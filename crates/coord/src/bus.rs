//! In-process message bus standing in for the ZeroMQ transport.
//!
//! Workers talk to the coordinator through asynchronous request/reply pairs: each
//! worker owns a [`WorkerEndpoint`] (send events, receive commands) and the
//! coordinator owns the [`MessageBus`] (receive events from any worker, send commands
//! to a specific worker). Channels are unbounded crossbeam channels, matching the
//! asynchronous, non-blocking pattern described in §4.2.

use crate::worker::WorkerEvent;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use serde::{Deserialize, Serialize};

/// Command sent from the coordinator to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordinatorCommand {
    /// Begin drafter spot-training; the flag says whether this worker is the
    /// session leader (sets up the training session others join).
    StartTraining {
        /// Whether this worker sets up the session (leader election winner).
        leader: bool,
    },
    /// Preempt any ongoing drafter training and release the GPUs for rollout.
    PreemptTraining,
    /// Begin serving rollout for a new RL step.
    StartRollout,
    /// Graceful shutdown at the end of training.
    Shutdown,
}

/// Worker-side endpoint: sends events to the coordinator, receives commands.
#[derive(Debug)]
pub struct WorkerEndpoint {
    /// Worker index this endpoint belongs to.
    pub worker: usize,
    event_tx: Sender<WorkerEvent>,
    command_rx: Receiver<CoordinatorCommand>,
}

impl WorkerEndpoint {
    /// Sends an event to the coordinator (never blocks).
    pub fn send_event(&self, event: WorkerEvent) {
        // The coordinator outliving its workers is a protocol error we surface loudly.
        self.event_tx.send(event).expect("coordinator bus closed");
    }

    /// Receives the next pending command, if any.
    pub fn try_recv_command(&self) -> Option<CoordinatorCommand> {
        match self.command_rx.try_recv() {
            Ok(cmd) => Some(cmd),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => None,
        }
    }
}

/// Coordinator-side bus.
#[derive(Debug)]
pub struct MessageBus {
    event_tx: Sender<WorkerEvent>,
    event_rx: Receiver<WorkerEvent>,
    command_txs: Vec<Sender<CoordinatorCommand>>,
}

impl MessageBus {
    /// Creates a bus for `num_workers` workers, returning the bus and one endpoint
    /// per worker.
    pub fn new(num_workers: usize) -> (MessageBus, Vec<WorkerEndpoint>) {
        let (event_tx, event_rx) = unbounded();
        let mut command_txs = Vec::with_capacity(num_workers);
        let mut endpoints = Vec::with_capacity(num_workers);
        for worker in 0..num_workers {
            let (cmd_tx, cmd_rx) = unbounded();
            command_txs.push(cmd_tx);
            endpoints.push(WorkerEndpoint {
                worker,
                event_tx: event_tx.clone(),
                command_rx: cmd_rx,
            });
        }
        (
            MessageBus {
                event_tx,
                event_rx,
                command_txs,
            },
            endpoints,
        )
    }

    /// Number of workers attached to the bus.
    pub fn num_workers(&self) -> usize {
        self.command_txs.len()
    }

    /// Injects an event as if a worker had sent it (used by simulations that do not
    /// run worker threads).
    pub fn inject_event(&self, event: WorkerEvent) {
        self.event_tx.send(event).expect("bus closed");
    }

    /// Drains all pending worker events.
    pub fn drain_events(&self) -> Vec<WorkerEvent> {
        let mut events = Vec::new();
        while let Ok(e) = self.event_rx.try_recv() {
            events.push(e);
        }
        events
    }

    /// Sends a command to one worker.
    ///
    /// # Panics
    ///
    /// Panics if the worker index is out of range.
    pub fn send_command(&self, worker: usize, command: CoordinatorCommand) {
        self.command_txs[worker]
            .send(command)
            .expect("worker endpoint dropped");
    }

    /// Broadcasts a command to every worker.
    pub fn broadcast(&self, command: CoordinatorCommand) {
        for tx in &self.command_txs {
            let _ = tx.send(command);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerState;

    #[test]
    fn events_flow_from_workers_to_coordinator() {
        let (bus, endpoints) = MessageBus::new(3);
        endpoints[1].send_event(WorkerEvent::StateChanged {
            worker: 1,
            state: WorkerState::Idle,
            at: 12.5,
        });
        endpoints[2].send_event(WorkerEvent::ActiveRequests {
            worker: 2,
            running: 4,
        });
        let events = bus.drain_events();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn commands_are_routed_to_the_right_worker() {
        let (bus, endpoints) = MessageBus::new(2);
        bus.send_command(0, CoordinatorCommand::StartTraining { leader: true });
        assert_eq!(
            endpoints[0].try_recv_command(),
            Some(CoordinatorCommand::StartTraining { leader: true })
        );
        assert_eq!(endpoints[1].try_recv_command(), None);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (bus, endpoints) = MessageBus::new(4);
        bus.broadcast(CoordinatorCommand::PreemptTraining);
        for ep in &endpoints {
            assert_eq!(
                ep.try_recv_command(),
                Some(CoordinatorCommand::PreemptTraining)
            );
        }
    }

    #[test]
    fn concurrent_worker_threads_can_report() {
        let (bus, endpoints) = MessageBus::new(8);
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    ep.send_event(WorkerEvent::StateChanged {
                        worker: ep.worker,
                        state: WorkerState::Idle,
                        at: 0.0,
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        assert_eq!(bus.drain_events().len(), 8);
    }
}

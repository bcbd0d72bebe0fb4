//! Centralized worker coordinator.
//!
//! The coordinator tracks every worker's state, promotes idle workers to drafter
//! training once the idle count crosses a threshold (leader-election pattern: the
//! first eligible worker sets up the session, later idle workers join), and halts
//! training immediately when rollout completes or new rollout work arrives.

use crate::worker::{WorkerEvent, WorkerState};
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

/// Coordinator policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// Minimum number of idle workers before a training session is launched
    /// (the paper launches opportunistically once idle workers exceed a threshold).
    pub min_idle_for_training: usize,
    /// Whether spot training is enabled at all (disabled for the VeRL-like baseline).
    pub spot_training_enabled: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            min_idle_for_training: 1,
            spot_training_enabled: true,
        }
    }
}

/// A drafter-training session spanning one or more workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSession {
    /// Worker elected as the session leader (sets up the session).
    pub leader: usize,
    /// All participating workers (leader included).
    pub members: Vec<usize>,
    /// Simulated time the session started.
    pub started_at_s: f64,
}

/// Aggregate statistics of coordinator activity.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoordinatorStats {
    /// Number of training sessions launched.
    pub sessions_started: u64,
    /// Number of sessions preempted by rollout work.
    pub sessions_preempted: u64,
    /// Number of workers promoted to training over the run.
    pub workers_promoted: u64,
    /// Number of workers that left a session early (failure or rollout work),
    /// without the whole session being preempted.
    pub members_departed: u64,
    /// Total state-transition events processed.
    pub events_processed: u64,
    /// Worker-failure events processed.
    pub workers_failed: u64,
    /// Times the training leader died and a surviving member was re-elected.
    pub leader_reelections: u64,
    /// Sessions dissolved because their last member failed or left.
    pub sessions_dissolved: u64,
}

/// The centralized coordinator (runs on "rank 0").
#[derive(Debug)]
pub struct Coordinator {
    config: CoordinatorConfig,
    states: Vec<WorkerState>,
    active_requests: Vec<usize>,
    session: Option<TrainingSession>,
    stats: CoordinatorStats,
}

impl Coordinator {
    /// Creates a coordinator for `num_workers` workers, all initially BUSY.
    pub fn new(num_workers: usize, config: CoordinatorConfig) -> Self {
        Coordinator {
            config,
            states: vec![WorkerState::Busy; num_workers],
            active_requests: vec![0; num_workers],
            session: None,
            stats: CoordinatorStats::default(),
        }
    }

    /// Number of managed workers.
    pub fn num_workers(&self) -> usize {
        self.states.len()
    }

    /// Current state of a worker.
    pub fn worker_state(&self, worker: usize) -> WorkerState {
        self.states[worker]
    }

    /// Workers currently in the given state.
    pub fn workers_in_state(&self, state: WorkerState) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (s == state).then_some(i))
            .collect()
    }

    /// The active training session, if any.
    pub fn training_session(&self) -> Option<&TrainingSession> {
        self.session.as_ref()
    }

    /// Coordinator statistics.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Processes a single worker event and returns the commands the coordinator
    /// decides to issue (they are also applied to the internal state).
    pub fn handle_event(
        &mut self,
        event: WorkerEvent,
        now_s: f64,
    ) -> Vec<(usize, CoordinatorCommand)> {
        self.stats.events_processed += 1;
        match event {
            WorkerEvent::ActiveRequests { worker, running } => {
                if worker < self.active_requests.len() {
                    self.active_requests[worker] = running;
                }
                Vec::new()
            }
            WorkerEvent::StateChanged {
                worker,
                state,
                at: _,
            } => {
                if worker >= self.states.len() {
                    return Vec::new();
                }
                let prev = self.states[worker];
                if !prev.can_transition_to(state) {
                    // Protocol violation: ignore but keep serving (robustness).
                    return Vec::new();
                }
                self.states[worker] = state;
                match state {
                    WorkerState::Idle => {
                        if prev == WorkerState::Training {
                            // A worker that stopped training (finished or locally
                            // preempted) leaves the session and sits out until the
                            // next promotion sweep — instantly re-promoting the
                            // worker that just told us it stopped would be churn.
                            self.remove_from_session(worker)
                        } else {
                            self.maybe_start_or_join_training(worker, now_s)
                        }
                    }
                    WorkerState::Busy => {
                        // A training member that picked up rollout work leaves its
                        // session (hard preemption of one member): the membership
                        // must not dangle, and a dead leader's seat is re-elected.
                        if prev == WorkerState::Training {
                            self.remove_from_session(worker)
                        } else {
                            Vec::new()
                        }
                    }
                    WorkerState::Training => {
                        // A promoted worker acking StartTraining is idempotent
                        // (it is already a member). An uninvited training report
                        // joins the active session if one exists; with no active
                        // session it is rejected — a worker cannot spot-train
                        // outside a coordinated session, so membership always
                        // covers every TRAINING worker.
                        match self.session.as_mut() {
                            Some(session) => {
                                if !session.members.contains(&worker) {
                                    session.members.push(worker);
                                    self.stats.workers_promoted += 1;
                                }
                            }
                            None => self.states[worker] = prev,
                        }
                        Vec::new()
                    }
                    WorkerState::Failed => {
                        self.stats.workers_failed += 1;
                        self.active_requests[worker] = 0;
                        self.remove_from_session(worker)
                    }
                }
            }
        }
    }

    /// Removes a worker from the active training session (if it is a member):
    /// the session dissolves when it was the last member, and a new leader —
    /// the lowest-indexed survivor — is elected when the departing worker led
    /// the session. Returns the commands issued (at most one leader promotion).
    fn remove_from_session(&mut self, worker: usize) -> Vec<(usize, CoordinatorCommand)> {
        let mut commands = Vec::new();
        let Some(session) = self.session.as_mut() else {
            return commands;
        };
        let Some(pos) = session.members.iter().position(|&w| w == worker) else {
            return commands;
        };
        session.members.remove(pos);
        self.stats.members_departed += 1;
        if session.members.is_empty() {
            self.session = None;
            self.stats.sessions_dissolved += 1;
        } else if session.leader == worker {
            let new_leader = *session.members.iter().min().expect("non-empty members");
            session.leader = new_leader;
            self.stats.leader_reelections += 1;
            commands.push((
                new_leader,
                CoordinatorCommand::StartTraining { leader: true },
            ));
        }
        commands
    }

    fn maybe_start_or_join_training(
        &mut self,
        _worker: usize,
        now_s: f64,
    ) -> Vec<(usize, CoordinatorCommand)> {
        if !self.config.spot_training_enabled {
            return Vec::new();
        }
        let idle = self.workers_in_state(WorkerState::Idle);
        let mut commands = Vec::new();
        match self.session.as_mut() {
            Some(session) => {
                // Later idle workers join the existing session.
                for &w in &idle {
                    if !session.members.contains(&w) {
                        session.members.push(w);
                        self.states[w] = WorkerState::Training;
                        self.stats.workers_promoted += 1;
                        commands.push((w, CoordinatorCommand::StartTraining { leader: false }));
                    }
                }
            }
            None => {
                if idle.len() >= self.config.min_idle_for_training {
                    // Leader election: the first eligible (lowest-index) idle worker
                    // sets up the session; the rest join it.
                    let leader = *idle.first().expect("non-empty idle set");
                    let mut members = Vec::new();
                    for (i, &w) in idle.iter().enumerate() {
                        self.states[w] = WorkerState::Training;
                        self.stats.workers_promoted += 1;
                        members.push(w);
                        commands.push((w, CoordinatorCommand::StartTraining { leader: i == 0 }));
                    }
                    self.session = Some(TrainingSession {
                        leader,
                        members,
                        started_at_s: now_s,
                    });
                    self.stats.sessions_started += 1;
                }
            }
        }
        commands
    }

    /// Called when the rollout stage completes (or new rollout work arrives): any
    /// ongoing training is halted gracefully and every *live* worker is returned
    /// to BUSY for the next stage — failed workers stay failed (a preemption must
    /// not resurrect a crashed worker) and receive no rollout command. Returns
    /// the issued commands.
    pub fn preempt_for_rollout(&mut self) -> Vec<(usize, CoordinatorCommand)> {
        let mut commands = Vec::new();
        if let Some(session) = self.session.take() {
            self.stats.sessions_preempted += 1;
            for &w in &session.members {
                commands.push((w, CoordinatorCommand::PreemptTraining));
            }
        }
        for (w, state) in self.states.iter_mut().enumerate() {
            if *state == WorkerState::Failed {
                continue;
            }
            *state = WorkerState::Busy;
            commands.push((w, CoordinatorCommand::StartRollout));
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_event(worker: usize, at: f64) -> WorkerEvent {
        WorkerEvent::StateChanged {
            worker,
            state: WorkerState::Idle,
            at,
        }
    }

    #[test]
    fn first_idle_worker_becomes_leader() {
        let mut coord = Coordinator::new(4, CoordinatorConfig::default());
        let commands = coord.handle_event(idle_event(2, 10.0), 10.0);
        assert_eq!(
            commands,
            vec![(2, CoordinatorCommand::StartTraining { leader: true })]
        );
        let session = coord.training_session().expect("session started");
        assert_eq!(session.leader, 2);
        assert_eq!(coord.worker_state(2), WorkerState::Training);
        assert_eq!(coord.stats().sessions_started, 1);
    }

    #[test]
    fn later_idle_workers_join_existing_session() {
        let mut coord = Coordinator::new(4, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 1.0), 1.0);
        let commands = coord.handle_event(idle_event(3, 2.0), 2.0);
        assert_eq!(
            commands,
            vec![(3, CoordinatorCommand::StartTraining { leader: false })]
        );
        assert_eq!(coord.training_session().unwrap().members, vec![0, 3]);
        assert_eq!(coord.stats().workers_promoted, 2);
    }

    #[test]
    fn threshold_delays_training_start() {
        let config = CoordinatorConfig {
            min_idle_for_training: 3,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(4, config);
        assert!(coord.handle_event(idle_event(0, 0.0), 0.0).is_empty());
        assert!(coord.handle_event(idle_event(1, 1.0), 1.0).is_empty());
        let commands = coord.handle_event(idle_event(2, 2.0), 2.0);
        assert_eq!(
            commands.len(),
            3,
            "all three idle workers promoted together"
        );
    }

    #[test]
    fn disabled_spot_training_never_promotes() {
        let config = CoordinatorConfig {
            spot_training_enabled: false,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(2, config);
        assert!(coord.handle_event(idle_event(0, 0.0), 0.0).is_empty());
        assert!(coord.training_session().is_none());
    }

    #[test]
    fn preemption_halts_training_and_restores_busy() {
        let mut coord = Coordinator::new(3, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0);
        coord.handle_event(idle_event(1, 1.0), 1.0);
        let commands = coord.preempt_for_rollout();
        assert!(commands
            .iter()
            .any(|(_, c)| *c == CoordinatorCommand::PreemptTraining));
        assert!(coord.training_session().is_none());
        for w in 0..3 {
            assert_eq!(coord.worker_state(w), WorkerState::Busy);
        }
        assert_eq!(coord.stats().sessions_preempted, 1);
    }

    #[test]
    fn busy_to_training_violation_is_ignored() {
        let mut coord = Coordinator::new(2, CoordinatorConfig::default());
        let commands = coord.handle_event(
            WorkerEvent::StateChanged {
                worker: 0,
                state: WorkerState::Training,
                at: 0.0,
            },
            0.0,
        );
        assert!(commands.is_empty());
        assert_eq!(coord.worker_state(0), WorkerState::Busy);
    }

    fn failed_event(worker: usize, at: f64) -> WorkerEvent {
        WorkerEvent::StateChanged {
            worker,
            state: WorkerState::Failed,
            at,
        }
    }

    #[test]
    fn leader_failure_reelects_the_lowest_surviving_member() {
        let mut coord = Coordinator::new(4, CoordinatorConfig::default());
        coord.handle_event(idle_event(1, 0.0), 0.0); // leader
        coord.handle_event(idle_event(3, 1.0), 1.0);
        coord.handle_event(idle_event(2, 2.0), 2.0);
        let commands = coord.handle_event(failed_event(1, 3.0), 3.0);
        assert_eq!(
            commands,
            vec![(2, CoordinatorCommand::StartTraining { leader: true })]
        );
        let session = coord.training_session().expect("session survives");
        assert_eq!(session.leader, 2);
        assert_eq!(session.members, vec![3, 2]);
        assert_eq!(coord.worker_state(1), WorkerState::Failed);
        assert_eq!(coord.stats().leader_reelections, 1);
        assert_eq!(coord.stats().workers_failed, 1);
    }

    #[test]
    fn non_leader_failure_just_shrinks_the_session() {
        let mut coord = Coordinator::new(3, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0);
        coord.handle_event(idle_event(2, 1.0), 1.0);
        let commands = coord.handle_event(failed_event(2, 2.0), 2.0);
        assert!(commands.is_empty());
        let session = coord.training_session().expect("session survives");
        assert_eq!(session.leader, 0);
        assert_eq!(session.members, vec![0]);
        assert_eq!(coord.stats().leader_reelections, 0);
    }

    #[test]
    fn last_member_failure_dissolves_the_session() {
        let mut coord = Coordinator::new(2, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0);
        let commands = coord.handle_event(failed_event(0, 1.0), 1.0);
        assert!(commands.is_empty());
        assert!(coord.training_session().is_none());
        assert_eq!(coord.stats().sessions_dissolved, 1);
        // A later idle worker starts a brand-new session.
        coord.handle_event(idle_event(1, 2.0), 2.0);
        assert_eq!(coord.training_session().unwrap().leader, 1);
        assert_eq!(coord.stats().sessions_started, 2);
    }

    #[test]
    fn preemption_does_not_resurrect_failed_workers() {
        let mut coord = Coordinator::new(3, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0);
        coord.handle_event(failed_event(2, 1.0), 1.0);
        let commands = coord.preempt_for_rollout();
        assert_eq!(coord.worker_state(2), WorkerState::Failed, "stays failed");
        assert!(
            !commands.iter().any(|(w, _)| *w == 2),
            "no command to a dead worker"
        );
        assert_eq!(coord.worker_state(0), WorkerState::Busy);
        assert_eq!(coord.worker_state(1), WorkerState::Busy);
    }

    #[test]
    fn training_member_picking_up_rollout_work_leaves_the_session() {
        let mut coord = Coordinator::new(3, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0); // leader
        coord.handle_event(idle_event(1, 1.0), 1.0);
        // Worker 0 (the leader) reports Busy: hard preemption of one member.
        let commands = coord.handle_event(
            WorkerEvent::StateChanged {
                worker: 0,
                state: WorkerState::Busy,
                at: 2.0,
            },
            2.0,
        );
        assert_eq!(
            commands,
            vec![(1, CoordinatorCommand::StartTraining { leader: true })]
        );
        let session = coord.training_session().expect("session survives");
        assert_eq!(session.leader, 1);
        assert_eq!(session.members, vec![1]);
        assert_eq!(coord.stats().members_departed, 1);
    }

    #[test]
    fn failed_worker_restarts_through_idle_and_rejoins_training() {
        let mut coord = Coordinator::new(2, CoordinatorConfig::default());
        coord.handle_event(idle_event(0, 0.0), 0.0);
        coord.handle_event(failed_event(1, 1.0), 1.0);
        // A failed worker cannot be promoted directly...
        assert_eq!(coord.worker_state(1), WorkerState::Failed);
        // ...but after restarting into Idle it joins the running session.
        let commands = coord.handle_event(idle_event(1, 2.0), 2.0);
        assert_eq!(
            commands,
            vec![(1, CoordinatorCommand::StartTraining { leader: false })]
        );
        assert_eq!(coord.training_session().unwrap().members, vec![0, 1]);
    }

    #[test]
    fn active_request_reports_are_tracked() {
        let mut coord = Coordinator::new(2, CoordinatorConfig::default());
        let commands = coord.handle_event(
            WorkerEvent::ActiveRequests {
                worker: 0,
                running: 7,
            },
            0.0,
        );
        assert!(commands.is_empty());
        assert_eq!(coord.stats().events_processed, 1);
    }
}

//! # tlt-coord
//!
//! Worker coordination for the TLT reproduction (§4.2 "Worker Coordinator").
//!
//! In the original system a centralized coordinator process (rank 0, ZeroMQ
//! request/reply) tracks the state of every rollout worker, promotes idle workers to
//! drafter training once enough of them have drained, elects a training leader, and
//! preempts training the moment rollout needs the GPUs back. This crate reproduces
//! that protocol as a state machine: each worker event goes in through
//! [`Coordinator::handle_event`], which returns the commands to deliver, so the
//! simulations drive it deterministically with no transport in between.
//!
//! ```
//! use tlt_coord::{Coordinator, CoordinatorConfig, WorkerEvent, WorkerState};
//!
//! let mut coord = Coordinator::new(4, CoordinatorConfig::default());
//! let commands = coord.handle_event(
//!     WorkerEvent::StateChanged { worker: 0, state: WorkerState::Idle, at: 1.0 },
//!     1.0,
//! );
//! assert_eq!(commands.len(), 1); // worker 0 promoted to drafter training
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod worker;

pub use coordinator::{
    Coordinator, CoordinatorCommand, CoordinatorConfig, CoordinatorStats, TrainingSession,
};
pub use worker::{WorkerEvent, WorkerState};

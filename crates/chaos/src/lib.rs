//! # tlt-chaos
//!
//! Deterministic fault injection for the whole TLT serving stack, with recovery
//! semantics and an invariant-checking harness.
//!
//! A [`Scenario`] scripts faults — replica crashes and restarts, stragglers,
//! training preemptions, corrupt/stale drafter checkpoints, arrival storms —
//! over a seeded serving workload on one [`Deployment`]: monolithic replicas
//! behind a frontend, or (after [`ScenarioBuilder::pools`]) a disaggregated
//! prefill/decode cluster. The [`runner`] plays the schedule through
//! [`tlt_serve::drive_schedule`] on that deployment's simulator — on the
//! monolithic frontend together with the [`tlt_coord`] worker coordinator and
//! the [`tlt_draft`] checkpoint pipeline — and returns one [`ChaosOutcome`]
//! type for both, its [`ChaosReport`] split by deployment. The
//! [`invariants`] harness proves the system-level guarantees hold under every
//! schedule: no request is ever lost or duplicated across a crash, KV budgets
//! are never exceeded, the coordinator never double-promotes or deadlocks,
//! speculative decoding stays bit-lossless through drafter swaps, and every run
//! is a pure function of its seed.
//!
//! ```
//! use tlt_chaos::{run_scenario, Scenario};
//!
//! let outcome = run_scenario(
//!     &Scenario::builder("crash-failover")
//!         .replicas(3)
//!         .arrivals(6.0, 5.0)
//!         .crash(2.0, 1)
//!         .build(),
//! );
//! assert!(outcome.invariants.passed());
//! assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod invariants;
pub mod runner;
pub mod scenario;

pub use invariants::{InvariantReport, InvariantViolation, INVARIANTS};
pub use runner::{run_pinned_matrix, run_scenario, ChaosOutcome, ChaosReport, DrafterFaultStats};
pub use scenario::{pinned_matrix, Deployment, FaultEvent, FaultKind, Scenario, ScenarioBuilder};

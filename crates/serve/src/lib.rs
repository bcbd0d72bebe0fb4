//! # tlt-serve
//!
//! Online serving subsystem for the TLT reproduction: a discrete-event, open-loop
//! counterpart to `tlt-rollout`'s closed-loop rollout engine.
//!
//! Where the rollout engine decodes one fixed RL-step batch to completion, this
//! crate models **production serving**: requests arrive over time (Poisson over
//! constant / diurnal / bursty rate curves, from [`tlt_workload::arrival`]), a
//! multi-replica frontend routes them through a pluggable load balancer
//! ([`balancer`]), and each replica runs a continuous-batching scheduler
//! ([`replica`]) with an admission queue, KV-capacity-based admission, packed
//! prefill / decode interleaving and optional preemption. Decode steps are costed
//! by [`tlt_gpusim::LlmCostModel`], and the per-step speculative-decoding decision
//! is delegated to [`tlt_rollout::SdStepEvaluator`] (the SD step shared with the
//! rollout engine, wrapping [`tlt_rollout::AdaptiveSdManager`]) with the elastic
//! threshold driven by the live load (running batch + queue depth) — the paper's
//! elastic-SD insight turned into a load-dependent serving policy. SLO metrics
//! (TTFT / TPOT / E2E percentiles, goodput, utilisation) live in [`metrics`].
//!
//! Everything is a pure function of seeds: identical configs and arrival streams
//! reproduce bit-identical reports.
//!
//! Both simulators — [`ServeSim`] (one fleet) and [`ClusterSim`] (prefill and
//! decode pools joined by a KV transfer link, with an autoscaler) — implement
//! [`Driver`], and the protocol for driving one lives in two functions:
//! [`drive`] (advance to each arrival, offer it, drain) and [`drive_schedule`]
//! (the same loop merged with a time-sorted list of caller-defined actions,
//! i.e. faults, ties going action < arrival < internal event). Everything that
//! consumes an arrival stream — [`simulate_serving`], [`simulate_disagg`],
//! `tlt-trace`'s record / replay, `tlt-chaos`'s runner — is a call to one of
//! them:
//!
//! ```
//! use tlt_gpusim::{GpuType, LlmCostModel};
//! use tlt_model::ModelSpec;
//! use tlt_serve::{drive_schedule, Driver, DriveOutcome, ServeConfig, ServeSim};
//! use tlt_workload::{generate_arrivals, ArrivalConfig};
//!
//! let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
//! let arrivals = generate_arrivals(&ArrivalConfig::constant(4.0, 6.0, 7));
//! let mut sim = ServeSim::new(&ServeConfig::new(cost, 2));
//! // Replica 1 crashes at t = 2 s and comes back at t = 4 s.
//! let faults = [(2.0, false), (4.0, true)];
//! let outcome = drive_schedule(
//!     &mut sim,
//!     &arrivals,
//!     &faults,
//!     |sim, t, &restart| match restart {
//!         false => sim.crash_replica(1, t),
//!         true => sim.restart_replica(1, t),
//!     },
//!     |_sim, _t| {},
//! );
//! assert_eq!(outcome, DriveOutcome::Completed);
//! assert_eq!(sim.state().fault_counts(), (1, 1));
//! assert_eq!(sim.into_report().completed.len(), arrivals.len());
//! ```
//!
//! ```
//! use tlt_gpusim::{GpuType, LlmCostModel};
//! use tlt_model::ModelSpec;
//! use tlt_serve::{simulate_serving, ServeConfig};
//! use tlt_workload::{generate_arrivals, ArrivalConfig};
//!
//! let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
//! let arrivals = generate_arrivals(&ArrivalConfig::constant(2.0, 10.0, 7));
//! let report = simulate_serving(&ServeConfig::new(cost, 2), &arrivals);
//! assert_eq!(report.completed.len(), arrivals.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod balancer;
pub mod cluster;
pub mod config;
pub mod events;
pub mod frontend;
pub mod metrics;
pub mod replica;
pub mod request;
pub mod transfer;

pub use balancer::{BalancerPolicy, LoadBalancer, ReplicaLoad};
pub use cluster::{simulate_disagg, AutoscaleConfig, ClusterReport, ClusterSim, DisaggConfig};
pub use config::{KvAccounting, ServeConfig, ServeConfigError};
pub use events::{
    drive, drive_schedule, DriveOutcome, DriveState, Driver, EventCore, EventKey, EventQueue,
};
pub use frontend::{simulate_serving, simulate_serving_traced, ServeSim};
pub use metrics::{percentile_f64, LatencySummary, ReplicaStats, ServeReport, SloSpec};
pub use replica::{FailoverRequest, MigratedEntry, Replica};
pub use request::{CompletedRequest, ServeRequest};
pub use transfer::{TransferLink, TransferLinkConfig};

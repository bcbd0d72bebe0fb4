//! # tlt
//!
//! End-to-end reproduction of **TLT** ("Taming the Long-Tail: Efficient Reasoning RL
//! Training with Adaptive Drafter", ASPLOS 2026): a system that accelerates reasoning
//! RL training losslessly by combining an adaptive (continuously spot-trained) draft
//! model with an adaptive speculative-decoding rollout engine.
//!
//! The crate composes the substrates built in the sibling crates:
//!
//! * [`tlt_obs`] — sim-time tracing and the flight recorder (re-exported
//!   here as [`obs`]),
//! * [`tlt_model`] — the tiny-transformer token-level substrate and model catalog,
//! * [`tlt_gpusim`] — the roofline GPU cost model and cluster topology,
//! * [`tlt_workload`] — long-tail workloads and verifiable reasoning tasks,
//! * [`tlt_draft`] — the adaptive drafter (model, training, DataBuffer, checkpointing),
//! * [`tlt_rollout`] — the adaptive rollout engine (speculative decoding, CUDAGraph
//!   pool, BEG-MAB tuner),
//! * [`tlt_serve`] — the online continuous-batching serving subsystem,
//! * [`tlt_rl`] — GRPO and its siblings,
//! * [`tlt_coord`] — the worker coordinator and spot-task scheduling,
//! * [`tlt_chaos`] — deterministic fault injection and the invariant harness,
//!
//! and exposes four end-to-end pipelines:
//!
//! * [`pipeline`] — timing-level simulation of the paper's full-size models on
//!   simulated GPU clusters (Figures 1/11/14, Tables 2-5),
//! * [`adaptive`] — token-level RL training of the tiny model with speculative
//!   rollouts and adaptive drafter training (Figures 12/15/16, Tables 6-8),
//! * [`serve`] — online serving under open-loop load with SLO metrics, comparing
//!   speculative-decoding policies across arrival rates,
//! * [`chaos`] — the pinned fault-injection scenario matrix with its
//!   invariant-checking harness.
//!
//! ```no_run
//! use tlt::{ExperimentConfig, SystemKind, run_experiment};
//! use tlt_gpusim::ClusterConfig;
//! use tlt_model::ModelSpec;
//!
//! let config = ExperimentConfig::paper_default(
//!     ModelSpec::qwen2_5_7b(),
//!     ClusterConfig::dgx_h100_testbed(),
//! );
//! let verl = run_experiment(SystemKind::Verl, &config);
//! let tlt = run_experiment(SystemKind::Tlt, &config);
//! println!("TLT speedup: {:.2}x", tlt.speedup_over(&verl));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod chaos;
pub mod config;
pub mod pipeline;
pub mod serve;

pub use tlt_obs as obs;

pub use adaptive::{
    run_token_experiment, DrafterAccuracyPoint, TokenExperimentConfig, TokenExperimentReport,
};
pub use config::{ExperimentConfig, SystemKind};
pub use pipeline::{run_comparison, run_experiment, ExperimentResult, StepBreakdown};
pub use serve::{
    replay_deployment, run_disagg_comparison, run_heterogeneous_comparison,
    run_prefix_sharing_comparison, run_replay, run_replay_streamed, run_serving,
    run_serving_comparison, ServingExperimentConfig, ServingSdPolicy,
};

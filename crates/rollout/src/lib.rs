//! # tlt-rollout
//!
//! The Adaptive Rollout Engine of the TLT reproduction (§5 of the paper).
//!
//! Two execution levels are provided:
//!
//! * **Token level** ([`spec`]) — real speculative decoding against the tiny
//!   transformer with lossless rejection-sampling verification, used to demonstrate
//!   losslessness and measure acceptance behaviour.
//! * **Timing level** ([`sim_engine`]) — a continuous-batching rollout simulation of
//!   the paper's full-size models driven by the roofline cost model and the drafter
//!   acceptance profiles, used to regenerate the throughput tables and figures.
//!
//! Shared infrastructure: the model-free n-gram drafter ([`ngram`]), the CUDAGraph
//! capture planner ([`cudagraph`]), the BEG-MAB tuner ([`mab`]), the Adaptive SD
//! Manager ([`manager`]) and the SD-step evaluator ([`sd_step`]) that both
//! timing-level simulators (this crate's and `tlt-serve`'s) advance by.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cudagraph;
pub mod mab;
pub mod manager;
pub mod ngram;
pub mod sd_step;
pub mod sim_engine;
pub mod spec;

pub use cudagraph::{default_batch_buckets, CaptureMode, CapturedGraph, CudaGraphPool};
pub use mab::{BegMabConfig, BegMabSelector, StepObservation};
pub use manager::{AdaptiveSdManager, DrafterChoice, SdDecision, SdManagerConfig};
pub use ngram::{NgramConfig, NgramDrafter};
pub use sd_step::{expected_accept_len, SdMode, SdStep, SdStepEvaluator, SdStepModel};
pub use sim_engine::{
    fixed_batch_speedup, simulate_rollout, simulate_rollout_batch, simulate_rollout_seeded,
    single_request_throughput, RolloutProfile, SimRolloutConfig, TimelinePoint,
};
pub use spec::{
    batch_seed, generate_batch, generate_group, measure_acceptance, speculative_generate,
    speculative_generate_with_swap, vanilla_generate, GenerationResult, SdStrategy, SpecDrafter,
};

//! # tlt-gpusim
//!
//! Roofline GPU cost model and cluster topology for the TLT reproduction.
//!
//! The paper's evaluation runs on DGX-H100/A100 clusters and a spread of consumer
//! GPUs; none of that hardware is required here. Instead, every kernel the system
//! would launch (prefill, decode, speculative verification, drafter steps, training)
//! is mapped to FLOPs + bytes and timed with a roofline model parameterised by the
//! real GPUs' bandwidth/compute specifications. The first-order effects the paper
//! relies on — memory-bound decode, compute-bound verification, CUDAGraph launch
//! savings, TP communication, OOM limits — all emerge from this model.
//!
//! ```
//! use tlt_gpusim::{GpuType, LlmCostModel};
//! use tlt_model::ModelSpec;
//!
//! let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
//! let decode = cost.decode_step_time(1, 2048);
//! let verify = cost.verify_step_time(1, 48, 2048);
//! // Verifying 48 drafted tokens costs about the same as decoding one token:
//! assert!(verify < 2.0 * decode);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod cost;
pub mod roofline;
pub mod specs;

pub use cluster::{ClusterConfig, MemoryEstimate, WorkerId};
pub use cost::{LlmCostModel, StepBatch};
pub use roofline::{achieved_tflops, estimate_time, ExecutionMode, KernelWork, TimeBreakdown};
pub use specs::{GpuSpec, GpuType};

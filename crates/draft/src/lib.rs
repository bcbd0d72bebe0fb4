//! # tlt-draft
//!
//! The Adaptive Drafter of the TLT reproduction (§4 of the paper): an EAGLE-style
//! single-decoder-layer draft model tied to the target's frozen embedding/LM head, a
//! unified training pipeline supporting EAGLE / HASS / EAGLE-3 / OSD strategies, the
//! online DataBuffer with one-step-offset sampling, sequence packing, selective
//! asynchronous checkpointing, and acceptance-length modelling used by the
//! timing-level simulations.
//!
//! ```
//! use tlt_draft::{DraftModel, FeatureSource};
//! use tlt_model::{ModelConfig, TinyLm};
//!
//! let target = TinyLm::new(ModelConfig::tiny(), 0);
//! let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 1);
//! assert!(drafter.num_parameters() * 2 < target.num_parameters());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acceptance;
pub mod checkpoint;
pub mod data_buffer;
pub mod model;
pub mod packing;
pub mod strategy;
pub mod trainer;

pub use acceptance::AcceptanceProfile;
pub use checkpoint::{
    serialize_trainable, try_restore_trainable, validate_trainable, CheckpointError,
    CheckpointMode, CheckpointReport, CheckpointStore, DrafterVault, SwapOutcome,
};
pub use data_buffer::{DataBuffer, DataBufferConfig, TrainingSample};
pub use model::{DraftGrads, DraftModel, DraftScratch, DraftState, FeatureSource, Linear};
pub use packing::{pack_sequences, packing_stats, PackingPlan, PackingStats};
pub use strategy::TrainingStrategy;
pub use trainer::{DrafterTrainer, TrainMetrics, TrainerConfig};

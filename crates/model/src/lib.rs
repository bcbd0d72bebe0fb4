//! # tlt-model
//!
//! Language-model substrate for the TLT ("Taming the Long-Tail") reproduction.
//!
//! The original system trains 7B–70B parameter LLMs on GPU clusters. This crate
//! replaces them with two complementary pieces:
//!
//! * a **real tiny transformer** ([`TinyLm`]) with exact forward *and* backward
//!   passes, used wherever token-level behaviour matters (speculative-decoding
//!   losslessness, drafter training, acceptance-length dynamics, policy drift), and
//! * a **model-geometry catalog** ([`ModelSpec`]) carrying the true parameter/layer/
//!   KV-cache geometry of the paper's models, used by the GPU cost model in
//!   `tlt-gpusim` to estimate realistic execution times and memory footprints.
//!
//! ## Quick example
//!
//! ```
//! use tlt_model::{ModelConfig, TinyLm, SamplingParams, sample_token};
//! use rand::SeedableRng;
//!
//! let model = TinyLm::new(ModelConfig::tiny(), 0);
//! let mut cache = model.new_cache();
//! let prompt = [1u32, 2, 3];
//! let out = model.forward(&prompt, &mut cache, false);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let next = sample_token(
//!     out.logits.row(out.logits.rows() - 1),
//!     SamplingParams::greedy(),
//!     &mut rng,
//! );
//! assert!((next as usize) < model.config.vocab_size);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention;
pub mod kl;
pub mod kv_cache;
pub mod layers;
pub mod mathx;
pub mod ops;
pub mod optim;
pub mod paged_kv;
pub mod par;
pub mod sampling;
pub mod spec;
pub mod tensor;
pub mod transformer;
pub mod workspace;

pub use kl::{kl_divergence, mean_sampled_kl, KlEstimator};
pub use kv_cache::{KvCache, KvStore, LayerKvCache};
pub use layers::{DecoderLayer, DecoderLayerGrads, LayerConfig};
pub use optim::{Adam, AdamConfig};
pub use paged_kv::{
    BlockId, BlockLedger, PagedKv, PagedKvCache, PagedKvPool, PoolStats, PrefixIndex, SharedGroup,
};
pub use par::{max_workers, parallel_map};
pub use sampling::{
    argmax, probs_from_logits, probs_from_logits_into, sample_from_probs, sample_from_residual,
    sample_token, SamplingParams,
};
pub use spec::{DraftModelSpec, ModelSpec};
pub use tensor::Mat;
pub use transformer::{ForwardOutput, ModelConfig, PolicyGrads, TinyLm, TokenId, TrainableForward};
pub use workspace::{DecodeWorkspace, LayerScratch};

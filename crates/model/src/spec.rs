//! Parametric catalog of the *real* model geometries evaluated in the paper.
//!
//! The tiny transformer in [`crate::transformer`] produces token-level behaviour;
//! the [`ModelSpec`]s here carry the true parameter counts, layer counts, and KV
//! geometry of Qwen2.5-7B/32B, DeepSeek-R1-Distill-7B, Llama-3.3-70B, Llama-3-8B
//! and Qwen2.5-0.5B so that the GPU cost model (`tlt-gpusim`) can estimate realistic
//! kernel times, memory footprints, and FLOP counts for every experiment.

use serde::{Deserialize, Serialize};

/// Bytes per parameter / activation element for BF16 weights.
pub const BF16_BYTES: f64 = 2.0;

/// Architecture geometry of a (full-size) transformer model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name as used in the paper.
    pub name: String,
    /// Total parameter count.
    pub params: f64,
    /// Number of decoder layers.
    pub num_layers: usize,
    /// Hidden (residual stream) size.
    pub hidden: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of KV heads (grouped-query attention).
    pub num_kv_heads: usize,
    /// MLP intermediate size.
    pub ffn_hidden: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
}

impl ModelSpec {
    /// Qwen2.5-7B geometry (paper model "Qwen-7B").
    pub fn qwen2_5_7b() -> Self {
        ModelSpec {
            name: "Qwen2.5-7B".to_string(),
            params: 7.6e9,
            num_layers: 28,
            hidden: 3584,
            num_heads: 28,
            num_kv_heads: 4,
            ffn_hidden: 18944,
            vocab_size: 152_064,
        }
    }

    /// DeepSeek-R1-Distill-Qwen-7B geometry (paper model "DeepSeek-7B"); identical
    /// architecture to Qwen2.5-7B (it is a distilled fine-tune of it).
    pub fn deepseek_r1_7b() -> Self {
        ModelSpec {
            name: "DeepSeek-R1-Distill-Qwen-7B".to_string(),
            ..ModelSpec::qwen2_5_7b()
        }
    }

    /// Qwen2.5-32B geometry (paper model "Qwen-32B").
    pub fn qwen2_5_32b() -> Self {
        ModelSpec {
            name: "Qwen2.5-32B".to_string(),
            params: 32.8e9,
            num_layers: 64,
            hidden: 5120,
            num_heads: 40,
            num_kv_heads: 8,
            ffn_hidden: 27648,
            vocab_size: 152_064,
        }
    }

    /// Llama-3.3-70B-Instruct geometry (paper model "Llama-70B").
    pub fn llama3_70b() -> Self {
        ModelSpec {
            name: "Llama-3.3-70B-Instruct".to_string(),
            params: 70.6e9,
            num_layers: 80,
            hidden: 8192,
            num_heads: 64,
            num_kv_heads: 8,
            ffn_hidden: 28672,
            vocab_size: 128_256,
        }
    }

    /// Llama-3-8B geometry (used by the paper's CUDAGraph memory study, Table 5).
    pub fn llama3_8b() -> Self {
        ModelSpec {
            name: "Llama-3-8B".to_string(),
            params: 8.0e9,
            num_layers: 32,
            hidden: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            ffn_hidden: 14336,
            vocab_size: 128_256,
        }
    }

    /// Qwen2.5-0.5B geometry (the vanilla small-model drafter baseline).
    pub fn qwen2_5_0_5b() -> Self {
        ModelSpec {
            name: "Qwen2.5-0.5B".to_string(),
            params: 0.49e9,
            num_layers: 24,
            hidden: 896,
            num_heads: 14,
            num_kv_heads: 2,
            ffn_hidden: 4864,
            vocab_size: 151_936,
        }
    }

    /// All target models evaluated end-to-end in the paper (Figure 11).
    pub fn paper_targets() -> Vec<ModelSpec> {
        vec![
            ModelSpec::qwen2_5_7b(),
            ModelSpec::deepseek_r1_7b(),
            ModelSpec::qwen2_5_32b(),
            ModelSpec::llama3_70b(),
        ]
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.num_heads
    }

    /// Weight footprint in bytes for BF16 weights.
    pub fn weight_bytes(&self) -> f64 {
        self.params * BF16_BYTES
    }

    /// KV-cache bytes per token (both K and V across all layers, BF16, GQA-aware).
    pub fn kv_bytes_per_token(&self) -> f64 {
        let kv_dim = self.num_kv_heads * self.head_dim();
        2.0 * self.num_layers as f64 * kv_dim as f64 * BF16_BYTES
    }

    /// Approximate FLOPs per token of a forward pass (the standard `2 * params`
    /// estimate, which is what roofline-style analyses use).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.params
    }

    /// Parameter count of a single decoder layer (attention + MLP + norms), used to
    /// size single-layer EAGLE-style drafters.
    pub fn params_per_layer(&self) -> f64 {
        let h = self.hidden as f64;
        let f = self.ffn_hidden as f64;
        let kv_dim = (self.num_kv_heads * self.head_dim()) as f64;
        // q + o projections are h*h, k/v are h*kv_dim; MLP is 3 * h * f; norms ~ 2h.
        2.0 * h * h + 2.0 * h * kv_dim + 3.0 * h * f + 2.0 * h
    }

    /// Builds the EAGLE-style single-layer drafter spec for this target: one decoder
    /// layer plus the fusion projection, with embeddings/LM-head *shared* (tied) with
    /// the target and therefore not counted as extra resident weights.
    pub fn eagle_drafter(&self) -> DraftModelSpec {
        DraftModelSpec {
            name: format!("{}-EAGLE-drafter", self.name),
            params: self.params_per_layer() + 2.0 * (self.hidden * self.hidden) as f64,
            num_layers: 1,
            hidden: self.hidden,
            flops_per_token: 2.0
                * (self.params_per_layer() + 2.0 * (self.hidden * self.hidden) as f64),
        }
    }

    /// Builds a vanilla small-LM drafter spec (e.g. Qwen2.5-0.5B for Qwen targets).
    pub fn small_lm_drafter(small: &ModelSpec) -> DraftModelSpec {
        DraftModelSpec {
            name: format!("{}-drafter", small.name),
            params: small.params,
            num_layers: small.num_layers,
            hidden: small.hidden,
            flops_per_token: small.flops_per_token(),
        }
    }
}

/// Geometry of a draft model (either a single-layer EAGLE drafter or a small LM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DraftModelSpec {
    /// Human-readable name.
    pub name: String,
    /// Parameter count of the *drafter-specific* weights.
    pub params: f64,
    /// Number of sequential decoder layers (dominates drafting latency).
    pub num_layers: usize,
    /// Hidden size.
    pub hidden: usize,
    /// FLOPs per drafted token.
    pub flops_per_token: f64,
}

impl DraftModelSpec {
    /// Weight footprint in bytes (BF16).
    pub fn weight_bytes(&self) -> f64 {
        self.params * BF16_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_parameter_counts_are_sane() {
        assert!(ModelSpec::qwen2_5_7b().params > 6e9);
        assert!(ModelSpec::qwen2_5_32b().params > 30e9);
        assert!(ModelSpec::llama3_70b().params > 65e9);
        assert!(ModelSpec::qwen2_5_0_5b().params < 1e9);
    }

    #[test]
    fn per_layer_params_roughly_params_over_layers() {
        // The paper notes the single-layer drafter is ~1/layer_num of the target.
        for spec in ModelSpec::paper_targets() {
            let approx = spec.params / spec.num_layers as f64;
            let per_layer = spec.params_per_layer();
            let ratio = per_layer / approx;
            assert!(
                (0.4..2.0).contains(&ratio),
                "{}: per-layer {per_layer:.2e} vs params/layers {approx:.2e}",
                spec.name
            );
        }
    }

    #[test]
    fn eagle_drafter_much_smaller_than_target() {
        let target = ModelSpec::qwen2_5_32b();
        let drafter = target.eagle_drafter();
        assert!(drafter.params * 20.0 < target.params);
        assert_eq!(drafter.num_layers, 1);
    }

    #[test]
    fn eagle_drafter_fewer_layers_than_small_lm() {
        // The paper's argument: a 0.5B drafter still has 24 sequential layers while
        // the EAGLE drafter has 1, so its drafting latency is far higher.
        let small = ModelSpec::qwen2_5_0_5b();
        let eagle = ModelSpec::qwen2_5_32b().eagle_drafter();
        let small_drafter = ModelSpec::small_lm_drafter(&small);
        assert!(small_drafter.num_layers > 20 * eagle.num_layers);
    }

    #[test]
    fn kv_bytes_per_token_accounts_for_gqa() {
        let spec = ModelSpec::llama3_8b();
        // 8 KV heads * 128 head_dim * 2 (K and V) * 32 layers * 2 bytes = 256 KiB/token.
        let expected = 2.0 * 32.0 * (8 * 128) as f64 * 2.0;
        assert!((spec.kv_bytes_per_token() - expected).abs() < 1.0);
    }

    #[test]
    fn deepseek_shares_qwen_architecture() {
        let qwen = ModelSpec::qwen2_5_7b();
        let ds = ModelSpec::deepseek_r1_7b();
        assert_eq!(qwen.num_layers, ds.num_layers);
        assert_eq!(qwen.hidden, ds.hidden);
        assert_ne!(qwen.name, ds.name);
    }
}

//! Transformer decoder layer: multi-head causal self-attention plus a SwiGLU MLP,
//! each wrapped in a pre-RMSNorm residual block.
//!
//! Two execution modes are provided:
//!
//! * [`DecoderLayer::forward_cached`] — incremental decoding against the
//!   layer's own [`LayerKvCache`] (one of the target's [`crate::KvCache`], or
//!   the drafter's), used by the rollout engines (supports multi-token inputs so
//!   speculative verification can score a whole drafted block in one call).
//! * [`DecoderLayer::forward_train`] / [`DecoderLayer::backward`] — full-sequence
//!   causal forward with recorded intermediates and an exact manual backward pass,
//!   used by drafter training and the last-layer policy-gradient update.

use crate::attention;
use crate::kv_cache::LayerKvCache;
use crate::ops::{
    rmsnorm_backward, rmsnorm_forward, rmsnorm_into, silu, swiglu_backward, swiglu_forward,
    RmsNormCache, SwiGluCache,
};
use crate::tensor::Mat;
use crate::workspace::LayerScratch;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of a single decoder layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerConfig {
    /// Model (residual stream) width.
    pub hidden: usize,
    /// Number of attention heads. Must divide `hidden`.
    pub num_heads: usize,
    /// Width of the MLP intermediate projection.
    pub ffn_hidden: usize,
}

impl LayerConfig {
    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.num_heads
    }

    /// Validates invariants (head divisibility, non-zero sizes).
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0 || self.num_heads == 0 || self.ffn_hidden == 0 {
            return Err("layer dimensions must be non-zero".to_string());
        }
        if self.hidden % self.num_heads != 0 {
            return Err(format!(
                "hidden size {} not divisible by {} heads",
                self.hidden, self.num_heads
            ));
        }
        Ok(())
    }
}

/// Trainable parameters of a decoder layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderLayer {
    /// Layer hyperparameters.
    pub config: LayerConfig,
    /// RMSNorm gain applied before attention.
    pub attn_norm: Vec<f32>,
    /// Query projection, `hidden x hidden`.
    pub wq: Mat,
    /// Key projection, `hidden x hidden`.
    pub wk: Mat,
    /// Value projection, `hidden x hidden`.
    pub wv: Mat,
    /// Output projection, `hidden x hidden`.
    pub wo: Mat,
    /// RMSNorm gain applied before the MLP.
    pub mlp_norm: Vec<f32>,
    /// Gate projection, `hidden x ffn_hidden`.
    pub w_gate: Mat,
    /// Up projection, `hidden x ffn_hidden`.
    pub w_up: Mat,
    /// Down projection, `ffn_hidden x hidden`.
    pub w_down: Mat,
}

/// Gradients for every parameter of a [`DecoderLayer`], in the same layout.
#[derive(Debug, Clone)]
pub struct DecoderLayerGrads {
    /// Gradient of the pre-attention norm gain.
    pub attn_norm: Vec<f32>,
    /// Gradient of the query projection.
    pub wq: Mat,
    /// Gradient of the key projection.
    pub wk: Mat,
    /// Gradient of the value projection.
    pub wv: Mat,
    /// Gradient of the output projection.
    pub wo: Mat,
    /// Gradient of the pre-MLP norm gain.
    pub mlp_norm: Vec<f32>,
    /// Gradient of the gate projection.
    pub w_gate: Mat,
    /// Gradient of the up projection.
    pub w_up: Mat,
    /// Gradient of the down projection.
    pub w_down: Mat,
}

impl DecoderLayerGrads {
    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &DecoderLayerGrads) {
        for (a, b) in self.attn_norm.iter_mut().zip(&other.attn_norm) {
            *a += b;
        }
        self.wq.add_assign(&other.wq);
        self.wk.add_assign(&other.wk);
        self.wv.add_assign(&other.wv);
        self.wo.add_assign(&other.wo);
        for (a, b) in self.mlp_norm.iter_mut().zip(&other.mlp_norm) {
            *a += b;
        }
        self.w_gate.add_assign(&other.w_gate);
        self.w_up.add_assign(&other.w_up);
        self.w_down.add_assign(&other.w_down);
    }

    /// Scales every gradient by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.attn_norm {
            *v *= alpha;
        }
        self.wq.scale_assign(alpha);
        self.wk.scale_assign(alpha);
        self.wv.scale_assign(alpha);
        self.wo.scale_assign(alpha);
        for v in &mut self.mlp_norm {
            *v *= alpha;
        }
        self.w_gate.scale_assign(alpha);
        self.w_up.scale_assign(alpha);
        self.w_down.scale_assign(alpha);
    }

    /// Global L2 norm across all gradients (for gradient clipping).
    pub fn global_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for v in &self.attn_norm {
            sq += v * v;
        }
        for m in [
            &self.wq,
            &self.wk,
            &self.wv,
            &self.wo,
            &self.w_gate,
            &self.w_up,
            &self.w_down,
        ] {
            sq += m.as_slice().iter().map(|v| v * v).sum::<f32>();
        }
        for v in &self.mlp_norm {
            sq += v * v;
        }
        sq.sqrt()
    }
}

/// Intermediates recorded during [`DecoderLayer::forward_train`].
#[derive(Debug, Clone)]
pub struct LayerTrainCache {
    attn_norm_cache: RmsNormCache,
    normed_input: Mat,
    q: Mat,
    k: Mat,
    v: Mat,
    /// Causal part of the attention probabilities, as kept by
    /// [`attention::forward`]: one block per tile of query rows, blocks back
    /// to back, each indexed `(key * num_heads + head) * tile + row`.
    attn_probs: Vec<f32>,
    attn_concat: Mat,
    mlp_norm_cache: RmsNormCache,
    mlp_cache: SwiGluCache,
}

impl DecoderLayer {
    /// Creates a layer with weights drawn from a small uniform distribution.
    pub fn random<R: Rng>(config: LayerConfig, rng: &mut R) -> Self {
        config.validate().expect("invalid layer config");
        let h = config.hidden;
        let f = config.ffn_hidden;
        let scale = 1.0 / (h as f32).sqrt();
        DecoderLayer {
            config,
            attn_norm: vec![1.0; h],
            wq: Mat::random_uniform(h, h, scale, rng),
            wk: Mat::random_uniform(h, h, scale, rng),
            wv: Mat::random_uniform(h, h, scale, rng),
            wo: Mat::random_uniform(h, h, scale, rng),
            mlp_norm: vec![1.0; h],
            w_gate: Mat::random_uniform(h, f, scale, rng),
            w_up: Mat::random_uniform(h, f, scale, rng),
            w_down: Mat::random_uniform(f, h, scale, rng),
        }
    }

    /// Number of scalar parameters in this layer.
    pub fn num_parameters(&self) -> usize {
        self.attn_norm.len()
            + self.mlp_norm.len()
            + self.wq.len()
            + self.wk.len()
            + self.wv.len()
            + self.wo.len()
            + self.w_gate.len()
            + self.w_up.len()
            + self.w_down.len()
    }

    /// Incremental forward pass over `new_hidden` (one row per new position),
    /// attending to everything already cached in `kv` plus the new positions
    /// causally. Keys/values for the new positions are appended.
    ///
    /// Convenience wrapper over [`DecoderLayer::forward_cached_into`] that
    /// allocates a fresh scratch and output; hot loops should hold a
    /// [`LayerScratch`] (or a full `DecodeWorkspace`) and call the `_into`
    /// variant directly.
    pub fn forward_cached(&self, new_hidden: &Mat, kv: &mut LayerKvCache) -> Mat {
        let rows = new_hidden.rows();
        let mut scratch = LayerScratch::new(
            self.config.hidden,
            self.config.ffn_hidden,
            attention::scratch_len(rows, kv.len() + rows, self.config.num_heads),
        );
        let mut out = Mat::zeros(new_hidden.rows(), self.config.hidden);
        self.forward_cached_into(new_hidden, kv, &mut scratch, &mut out);
        out
    }

    /// Allocation-free incremental forward pass: identical numerics to
    /// [`DecoderLayer::forward_cached`], with every temporary taken from
    /// `scratch` and the result written into `out` (resized in place).
    pub fn forward_cached_into(
        &self,
        new_hidden: &Mat,
        kv: &mut LayerKvCache,
        scratch: &mut LayerScratch,
        out: &mut Mat,
    ) {
        let cfg = &self.config;
        let past = kv.len();
        let n_new = new_hidden.rows();
        scratch.prepare(
            n_new,
            attention::scratch_len(n_new, past + n_new, cfg.num_heads),
        );
        out.set_rows(n_new, cfg.hidden);

        rmsnorm_into(new_hidden, &self.attn_norm, &mut scratch.normed);
        scratch.normed.matmul_into(&self.wq, &mut scratch.q);
        scratch.normed.matmul_into(&self.wk, &mut scratch.k);
        scratch.normed.matmul_into(&self.wv, &mut scratch.v);
        kv.append_rows(&scratch.k, &scratch.v);

        let kv = &*kv;
        attention::forward(
            &scratch.q,
            |j| kv.key(j),
            |j| kv.value(j),
            past,
            cfg.num_heads,
            &mut scratch.scores,
            false,
            &mut scratch.attn_out,
        );
        scratch
            .attn_out
            .matmul_into(&self.wo, &mut scratch.attn_proj);
        new_hidden.add_into(&scratch.attn_proj, &mut scratch.resid1);

        rmsnorm_into(&scratch.resid1, &self.mlp_norm, &mut scratch.mlp_normed);
        scratch
            .mlp_normed
            .matmul_into(&self.w_gate, &mut scratch.gate);
        scratch.mlp_normed.matmul_into(&self.w_up, &mut scratch.up);
        for ((h, &g), &u) in scratch
            .mlp_hidden
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.gate.as_slice())
            .zip(scratch.up.as_slice())
        {
            *h = silu(g) * u;
        }
        scratch
            .mlp_hidden
            .matmul_into(&self.w_down, &mut scratch.mlp_out);
        scratch.resid1.add_into(&scratch.mlp_out, out);
    }

    /// Computes and appends only the key/value rows for `new_hidden` to `kv`,
    /// skipping the query projection, attention, and MLP entirely.
    ///
    /// Keys and values are per-position functions of the input (`rmsnorm(x) @ wk`
    /// / `@ wv`), so the appended rows are bit-identical to what a full
    /// [`DecoderLayer::forward_cached_into`] pass would cache. Used by the drafter
    /// to prime its context KV from target features, where the layer *output* for
    /// those positions is never consumed.
    pub fn append_kv(&self, new_hidden: &Mat, kv: &mut LayerKvCache, scratch: &mut LayerScratch) {
        let n_new = new_hidden.rows();
        scratch.prepare(n_new, 0);
        rmsnorm_into(new_hidden, &self.attn_norm, &mut scratch.normed);
        scratch.normed.matmul_into(&self.wk, &mut scratch.k);
        scratch.normed.matmul_into(&self.wv, &mut scratch.v);
        kv.append_rows(&scratch.k, &scratch.v);
    }

    /// Full-sequence causal forward pass that records all intermediates needed by
    /// [`DecoderLayer::backward`].
    pub fn forward_train(&self, input: &Mat) -> (Mat, LayerTrainCache) {
        let cfg = &self.config;
        let t = input.rows();
        let (normed_input, attn_norm_cache) = rmsnorm_forward(input, &self.attn_norm);
        let q = normed_input.matmul(&self.wq);
        let k = normed_input.matmul(&self.wk);
        let v = normed_input.matmul(&self.wv);

        let mut attn_probs = vec![0.0f32; attention::kept_len(t, cfg.num_heads)];
        let mut attn_concat = Mat::zeros(t, cfg.hidden);
        attention::forward(
            &q,
            |j| k.row(j),
            |j| v.row(j),
            0,
            cfg.num_heads,
            &mut attn_probs,
            true,
            &mut attn_concat,
        );

        let attn_proj = attn_concat.matmul(&self.wo);
        let resid1 = input.add(&attn_proj);
        let (mlp_normed, mlp_norm_cache) = rmsnorm_forward(&resid1, &self.mlp_norm);
        let (mlp_out, mlp_cache) =
            swiglu_forward(&mlp_normed, &self.w_gate, &self.w_up, &self.w_down);
        let output = resid1.add(&mlp_out);

        (
            output,
            LayerTrainCache {
                attn_norm_cache,
                normed_input,
                q,
                k,
                v,
                attn_probs,
                attn_concat,
                mlp_norm_cache,
                mlp_cache,
            },
        )
    }

    /// Exact backward pass matching [`DecoderLayer::forward_train`].
    ///
    /// Returns the gradient with respect to the layer input and the parameter
    /// gradients.
    pub fn backward(&self, cache: &LayerTrainCache, d_output: &Mat) -> (Mat, DecoderLayerGrads) {
        let cfg = &self.config;
        let t = cache.q.rows();

        // output = resid1 + mlp_out: the upstream gradient flows into both the MLP
        // block and the residual stream (no copies needed — f32 addition is
        // exactly commutative, so accumulating the residual term into the
        // MLP-path gradient matches the original ordering bit for bit).
        let mlp_grads = swiglu_backward(
            &cache.mlp_cache,
            &self.w_gate,
            &self.w_up,
            &self.w_down,
            d_output,
        );
        let (mut d_resid1, d_mlp_norm) =
            rmsnorm_backward(&cache.mlp_norm_cache, &self.mlp_norm, &mlp_grads.d_input);
        d_resid1.add_assign(d_output);

        // resid1 = input + attn_concat @ wo
        let mut d_input = d_resid1.clone();
        let d_wo = cache.attn_concat.transposed_matmul(&d_resid1);
        let d_attn_concat = d_resid1.matmul_transposed(&self.wo);

        let mut d_q = Mat::zeros(t, cfg.hidden);
        let mut d_k = Mat::zeros(t, cfg.hidden);
        let mut d_v = Mat::zeros(t, cfg.hidden);
        attention::backward(
            &cache.q,
            &cache.k,
            &cache.v,
            &cache.attn_probs,
            cfg.num_heads,
            &d_attn_concat,
            &mut d_q,
            &mut d_k,
            &mut d_v,
        );

        // q = normed_input @ wq, etc.
        let d_wq = cache.normed_input.transposed_matmul(&d_q);
        let d_wk = cache.normed_input.transposed_matmul(&d_k);
        let d_wv = cache.normed_input.transposed_matmul(&d_v);
        let mut d_normed = d_q.matmul_transposed(&self.wq);
        d_normed.add_assign(&d_k.matmul_transposed(&self.wk));
        d_normed.add_assign(&d_v.matmul_transposed(&self.wv));
        let (d_input_from_norm, d_attn_norm) =
            rmsnorm_backward(&cache.attn_norm_cache, &self.attn_norm, &d_normed);
        d_input.add_assign(&d_input_from_norm);

        let grads = DecoderLayerGrads {
            attn_norm: d_attn_norm,
            wq: d_wq,
            wk: d_wk,
            wv: d_wv,
            wo: d_wo,
            mlp_norm: d_mlp_norm,
            w_gate: mlp_grads.d_w_gate,
            w_up: mlp_grads.d_w_up,
            w_down: mlp_grads.d_w_down,
        };
        (d_input, grads)
    }

    /// Applies a plain SGD update `w -= lr * grad` to every parameter.
    pub fn apply_sgd(&mut self, grads: &DecoderLayerGrads, lr: f32) {
        for (w, g) in self.attn_norm.iter_mut().zip(&grads.attn_norm) {
            *w -= lr * g;
        }
        self.wq.add_scaled(&grads.wq, -lr);
        self.wk.add_scaled(&grads.wk, -lr);
        self.wv.add_scaled(&grads.wv, -lr);
        self.wo.add_scaled(&grads.wo, -lr);
        for (w, g) in self.mlp_norm.iter_mut().zip(&grads.mlp_norm) {
            *w -= lr * g;
        }
        self.w_gate.add_scaled(&grads.w_gate, -lr);
        self.w_up.add_scaled(&grads.w_up, -lr);
        self.w_down.add_scaled(&grads.w_down, -lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_layer(seed: u64) -> DecoderLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        DecoderLayer::random(
            LayerConfig {
                hidden: 8,
                num_heads: 2,
                ffn_hidden: 12,
            },
            &mut rng,
        )
    }

    #[test]
    fn config_validation() {
        assert!(LayerConfig {
            hidden: 8,
            num_heads: 3,
            ffn_hidden: 4
        }
        .validate()
        .is_err());
        assert!(LayerConfig {
            hidden: 8,
            num_heads: 2,
            ffn_hidden: 4
        }
        .validate()
        .is_ok());
        assert!(LayerConfig {
            hidden: 0,
            num_heads: 1,
            ffn_hidden: 4
        }
        .validate()
        .is_err());
    }

    #[test]
    fn cached_forward_matches_train_forward() {
        let layer = test_layer(42);
        let mut rng = StdRng::seed_from_u64(1);
        let seq = Mat::random_uniform(5, 8, 1.0, &mut rng);

        // Full-sequence training-mode forward.
        let (full_out, _) = layer.forward_train(&seq);

        // Incremental forward, one token at a time.
        let mut cache = LayerKvCache::new(8);
        let mut rows = Vec::new();
        for i in 0..seq.rows() {
            let step = seq.slice_rows(i, i + 1);
            let out = layer.forward_cached(&step, &mut cache);
            rows.push(out);
        }
        for (i, row) in rows.iter().enumerate() {
            for c in 0..8 {
                assert!(
                    (row.get(0, c) - full_out.get(i, c)).abs() < 1e-4,
                    "mismatch at row {i} col {c}"
                );
            }
        }
    }

    #[test]
    fn cached_forward_multi_token_block_matches_single_steps() {
        let layer = test_layer(7);
        let mut rng = StdRng::seed_from_u64(2);
        let seq = Mat::random_uniform(6, 8, 1.0, &mut rng);

        let mut cache_a = LayerKvCache::new(8);
        let prefix = seq.slice_rows(0, 3);
        let _ = layer.forward_cached(&prefix, &mut cache_a);
        let block = seq.slice_rows(3, 6);
        let block_out = layer.forward_cached(&block, &mut cache_a);

        let mut cache_b = LayerKvCache::new(8);
        let mut singles = Vec::new();
        for i in 0..6 {
            let out = layer.forward_cached(&seq.slice_rows(i, i + 1), &mut cache_b);
            singles.push(out);
        }
        for i in 0..3 {
            for c in 0..8 {
                assert!((block_out.get(i, c) - singles[3 + i].get(0, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let layer = test_layer(3);
        let mut rng = StdRng::seed_from_u64(4);
        let input = Mat::random_uniform(4, 8, 0.5, &mut rng);
        let d_out = Mat::random_uniform(4, 8, 1.0, &mut rng);
        let (_, cache) = layer.forward_train(&input);
        let (d_input, _) = layer.backward(&cache, &d_out);

        let loss = |m: &Mat| {
            let (y, _) = layer.forward_train(m);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let eps = 1e-2;
        for idx in (0..input.len()).step_by(5) {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = d_input.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let layer = test_layer(5);
        let mut rng = StdRng::seed_from_u64(6);
        let input = Mat::random_uniform(3, 8, 0.5, &mut rng);
        let d_out = Mat::random_uniform(3, 8, 1.0, &mut rng);
        let (_, cache) = layer.forward_train(&input);
        let (_, grads) = layer.backward(&cache, &d_out);

        let loss = |l: &DecoderLayer| {
            let (y, _) = l.forward_train(&input);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let eps = 1e-2;
        // Check a few entries of wq and w_down.
        for idx in (0..layer.wq.len()).step_by(17) {
            let mut plus = layer.clone();
            plus.wq.as_mut_slice()[idx] += eps;
            let mut minus = layer.clone();
            minus.wq.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grads.wq.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "wq idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        for idx in (0..layer.w_down.len()).step_by(23) {
            let mut plus = layer.clone();
            plus.w_down.as_mut_slice()[idx] += eps;
            let mut minus = layer.clone();
            minus.w_down.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grads.w_down.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "w_down idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_step_reduces_alignment_loss() {
        let mut layer = test_layer(11);
        let mut rng = StdRng::seed_from_u64(12);
        let input = Mat::random_uniform(4, 8, 0.5, &mut rng);
        let target = Mat::random_uniform(4, 8, 0.5, &mut rng);

        let loss_of = |l: &DecoderLayer| {
            let (y, _) = l.forward_train(&input);
            let diff = y.sub(&target);
            diff.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let before = loss_of(&layer);
        for _ in 0..20 {
            let (y, cache) = layer.forward_train(&input);
            let d_out = y.sub(&target).scale(2.0);
            let (_, grads) = layer.backward(&cache, &d_out);
            layer.apply_sgd(&grads, 0.01);
        }
        let after = loss_of(&layer);
        assert!(
            after < before,
            "SGD failed to reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let layer = test_layer(13);
        let mut rng = StdRng::seed_from_u64(14);
        let input = Mat::random_uniform(2, 8, 0.5, &mut rng);
        let d_out = Mat::random_uniform(2, 8, 1.0, &mut rng);
        let (_, cache) = layer.forward_train(&input);
        let (_, g) = layer.backward(&cache, &d_out);
        let mut acc = g.clone();
        acc.accumulate(&g);
        acc.scale(0.5);
        for (a, b) in acc.wq.as_slice().iter().zip(g.wq.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(acc.global_norm() > 0.0);
    }

    #[test]
    fn parameter_count_is_consistent() {
        let layer = test_layer(15);
        let h = 8usize;
        let f = 12usize;
        let expected = 2 * h + 4 * h * h + 2 * h * f + f * h;
        assert_eq!(layer.num_parameters(), expected);
    }
}

//! The tiny autoregressive language model used as the *token-level* substrate of the
//! TLT reproduction.
//!
//! The paper trains 7B–70B parameter LLMs; this repository replaces them with a small
//! but *real* decoder-only transformer (sinusoidal positions, RMSNorm, causal MHA,
//! SwiGLU MLP, tied-vocabulary LM head). All token-level phenomena the paper relies
//! on — lossless speculative verification, acceptance-length dynamics, drafter
//! staleness after policy updates, drafter recovery under continued training — are
//! produced by this model rather than being hard-coded.

use crate::attention;
use crate::kv_cache::{KvCache, LayerKvCache};
use crate::layers::{DecoderLayer, DecoderLayerGrads, LayerConfig, LayerTrainCache};
use crate::ops::{rmsnorm_backward, rmsnorm_forward, RmsNormCache};
use crate::tensor::Mat;
use crate::workspace::{DecodeWorkspace, LayerScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Token identifier in the synthetic vocabulary.
pub type TokenId = u32;

/// Hyperparameters of the tiny transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Residual-stream width.
    pub hidden: usize,
    /// Number of decoder layers.
    pub num_layers: usize,
    /// Attention heads per layer.
    pub num_heads: usize,
    /// MLP intermediate width.
    pub ffn_hidden: usize,
    /// Maximum sequence length supported by the positional table.
    pub max_seq_len: usize,
}

impl ModelConfig {
    /// A small default configuration suitable for tests and examples.
    pub fn tiny() -> Self {
        ModelConfig {
            vocab_size: 96,
            hidden: 32,
            num_layers: 4,
            num_heads: 4,
            ffn_hidden: 64,
            max_seq_len: 512,
        }
    }

    /// An even smaller configuration for fast unit tests.
    pub fn micro() -> Self {
        ModelConfig {
            vocab_size: 32,
            hidden: 16,
            num_layers: 2,
            num_heads: 2,
            ffn_hidden: 24,
            max_seq_len: 128,
        }
    }

    /// Layer-level configuration.
    pub fn layer_config(&self) -> LayerConfig {
        LayerConfig {
            hidden: self.hidden,
            num_heads: self.num_heads,
            ffn_hidden: self.ffn_hidden,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.vocab_size == 0 {
            return Err("vocab size must be non-zero".to_string());
        }
        if self.num_layers == 0 {
            return Err("model must have at least one layer".to_string());
        }
        if self.max_seq_len == 0 {
            return Err("max sequence length must be non-zero".to_string());
        }
        self.layer_config().validate()
    }
}

/// Output of a forward pass over one or more new token positions.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Logits for each new position (`n_new x vocab`).
    pub logits: Mat,
    /// Last-layer hidden states (pre final norm) for each new position.
    pub last_hidden: Mat,
    /// Per-layer outputs (`num_layers + 1` entries: embedding output followed by each
    /// layer's output), populated only when hidden collection is requested.
    pub layer_outputs: Option<Vec<Mat>>,
}

/// Recorded state for the trainable portion of the model (last decoder layer,
/// final norm, LM head), produced by [`TinyLm::forward_for_update`].
#[derive(Debug, Clone)]
pub struct TrainableForward {
    last_layer_cache: LayerTrainCache,
    final_norm_cache: RmsNormCache,
    normed: Mat,
    /// Logits for every position of the sequence.
    pub logits: Mat,
}

/// Gradients for the trainable portion of the model.
#[derive(Debug, Clone)]
pub struct PolicyGrads {
    /// Gradients of the last decoder layer.
    pub last_layer: DecoderLayerGrads,
    /// Gradient of the final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Gradient of the LM head (`hidden x vocab`).
    pub lm_head: Mat,
}

impl PolicyGrads {
    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &PolicyGrads) {
        self.last_layer.accumulate(&other.last_layer);
        for (a, b) in self.final_norm.iter_mut().zip(&other.final_norm) {
            *a += b;
        }
        self.lm_head.add_assign(&other.lm_head);
    }

    /// Global L2 norm across all trainable-parameter gradients.
    pub fn global_norm(&self) -> f32 {
        let mut sq = self.last_layer.global_norm().powi(2);
        sq += self.final_norm.iter().map(|v| v * v).sum::<f32>();
        sq += self.lm_head.as_slice().iter().map(|v| v * v).sum::<f32>();
        sq.sqrt()
    }

    /// Scales every gradient by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.last_layer.scale(alpha);
        for v in &mut self.final_norm {
            *v *= alpha;
        }
        self.lm_head.scale_assign(alpha);
    }
}

/// The tiny decoder-only language model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TinyLm {
    /// Model hyperparameters.
    pub config: ModelConfig,
    /// Token embedding table (`vocab x hidden`).
    pub embedding: Mat,
    /// Sinusoidal positional table (`max_seq_len x hidden`); not trained.
    pub pos_table: Mat,
    /// Decoder layers.
    pub layers: Vec<DecoderLayer>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// LM head projection (`hidden x vocab`).
    pub lm_head: Mat,
}

impl TinyLm {
    /// Creates a randomly initialised model with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        config.validate().expect("invalid model config");
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (config.hidden as f32).sqrt();
        let embedding = Mat::random_uniform(config.vocab_size, config.hidden, scale, &mut rng);
        let lm_head = Mat::random_uniform(config.hidden, config.vocab_size, scale, &mut rng);
        let layers = (0..config.num_layers)
            .map(|_| DecoderLayer::random(config.layer_config(), &mut rng))
            .collect();
        let pos_table = Self::build_pos_table(config.max_seq_len, config.hidden);
        TinyLm {
            config,
            embedding,
            pos_table,
            layers,
            final_norm: vec![1.0; config.hidden],
            lm_head,
        }
    }

    fn build_pos_table(max_len: usize, hidden: usize) -> Mat {
        let mut table = Mat::zeros(max_len, hidden);
        for pos in 0..max_len {
            let row = table.row_mut(pos);
            for (i, value) in row.iter_mut().enumerate() {
                let pair = (i / 2) as f32;
                let freq = 1.0 / 10_000f32.powf(2.0 * pair / hidden as f32);
                let angle = pos as f32 * freq;
                *value = if i % 2 == 0 { angle.sin() } else { angle.cos() } * 0.1;
            }
        }
        table
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.embedding.len()
            + self.lm_head.len()
            + self.final_norm.len()
            + self
                .layers
                .iter()
                .map(DecoderLayer::num_parameters)
                .sum::<usize>()
    }

    /// Creates an empty KV cache sized for this model, with capacity reserved for
    /// the full context window so steady-state decode appends never reallocate.
    pub fn new_cache(&self) -> KvCache {
        let mut cache = KvCache::new(self.config.num_layers, self.config.hidden);
        cache.reserve(self.config.max_seq_len);
        cache
    }

    /// Embeds tokens starting at absolute position `start_pos`.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of range or the positions exceed
    /// `max_seq_len`.
    pub fn embed(&self, tokens: &[TokenId], start_pos: usize) -> Mat {
        let mut out = Mat::zeros(tokens.len(), self.config.hidden);
        self.embed_into(tokens, start_pos, &mut out);
        out
    }

    /// Allocation-free embedding into a pre-shaped matrix.
    fn embed_into(&self, tokens: &[TokenId], start_pos: usize, out: &mut Mat) {
        assert!(
            start_pos + tokens.len() <= self.config.max_seq_len,
            "sequence length {} exceeds max_seq_len {}",
            start_pos + tokens.len(),
            self.config.max_seq_len
        );
        debug_assert_eq!(out.shape(), (tokens.len(), self.config.hidden));
        for (i, &tok) in tokens.iter().enumerate() {
            assert!(
                (tok as usize) < self.config.vocab_size,
                "token id {tok} out of range"
            );
            let emb = self.embedding.row(tok as usize);
            let pos = self.pos_table.row(start_pos + i);
            let row = out.row_mut(i);
            for d in 0..row.len() {
                row[d] = emb[d] + pos[d];
            }
        }
    }

    /// Runs the model over `tokens` (new positions), using and extending `cache`.
    ///
    /// The cache determines the starting position: `cache.seq_len()` positions
    /// are assumed to have been processed already. When `collect_hidden` is true
    /// the per-layer outputs are returned (needed to build drafter training
    /// features).
    pub fn forward(
        &self,
        tokens: &[TokenId],
        cache: &mut KvCache,
        collect_hidden: bool,
    ) -> ForwardOutput {
        let hidden = self.embed(tokens, cache.seq_len());
        let mut layer_outputs = collect_hidden.then(|| vec![hidden.clone()]);
        let last_hidden = self.run_layers(&self.layers, hidden, cache, |out| {
            if let Some(outs) = layer_outputs.as_mut() {
                outs.push(out.clone());
            }
        });
        let logits = self.project_hidden(&last_hidden);
        ForwardOutput {
            logits,
            last_hidden,
            layer_outputs,
        }
    }

    /// Runs `hidden` (one row per new position) through `layers` — a prefix of
    /// this model's layers, one [`LayerKvCache`] of `cache` each — on one
    /// scratch; `each` sees every layer's output. Returns the last output.
    fn run_layers(
        &self,
        layers: &[DecoderLayer],
        mut hidden: Mat,
        cache: &mut KvCache,
        mut each: impl FnMut(&Mat),
    ) -> Mat {
        let config = &self.config;
        let positions = cache.seq_len() + hidden.rows();
        let mut scratch = LayerScratch::new(
            config.hidden,
            config.ffn_hidden,
            attention::scratch_len(hidden.rows(), positions, config.num_heads),
        );
        let mut next = Mat::zeros(0, config.hidden);
        let kvs = cache.layers_mut();
        assert_eq!(kvs.len(), layers.len(), "one layer cache per layer");
        for (layer, kv) in layers.iter().zip(kvs) {
            layer.forward_cached_into(&hidden, kv, &mut scratch, &mut next);
            each(&next);
            std::mem::swap(&mut hidden, &mut next);
        }
        hidden
    }

    /// Allocation-free incremental forward pass into a [`DecodeWorkspace`].
    ///
    /// Numerically identical to [`TinyLm::forward`] (the two share every kernel),
    /// but every temporary lives in `ws`: after the call `ws.logits()` holds the
    /// logits for the new positions and `ws.last_hidden()` the last-layer hidden
    /// states. Keys/values for the new positions are appended to `cache`.
    pub fn forward_into(&self, tokens: &[TokenId], cache: &mut KvCache, ws: &mut DecodeWorkspace) {
        let start_pos = cache.seq_len();
        ws.prepare(tokens.len());
        self.embed_into(tokens, start_pos, &mut ws.hidden);
        let kvs = cache.layers_mut();
        assert_eq!(kvs.len(), self.layers.len(), "one layer cache per layer");
        for (layer, kv) in self.layers.iter().zip(kvs) {
            layer.forward_cached_into(&ws.hidden, kv, &mut ws.scratch, &mut ws.next_hidden);
            std::mem::swap(&mut ws.hidden, &mut ws.next_hidden);
        }
        crate::ops::rmsnorm_into(&ws.hidden, &self.final_norm, &mut ws.norm_out);
        ws.norm_out.matmul_into(&self.lm_head, &mut ws.logits);
    }

    /// Zero-allocation single-token decode step: forwards `token` through the
    /// model and returns the logits row (`1 x vocab`) held in the workspace.
    pub fn decode_step<'ws>(
        &self,
        token: TokenId,
        cache: &mut KvCache,
        ws: &'ws mut DecodeWorkspace,
    ) -> &'ws Mat {
        tlt_obs::hooks::on_decode_step();
        self.forward_into(&[token], cache, ws);
        ws.logits()
    }

    /// Convenience wrapper: full forward over a prompt with a fresh cache.
    pub fn prefill(&self, tokens: &[TokenId], collect_hidden: bool) -> (ForwardOutput, KvCache) {
        tlt_obs::hooks::on_prefill_tokens(tokens.len());
        let mut cache = self.new_cache();
        let out = self.forward(tokens, &mut cache, collect_hidden);
        (out, cache)
    }

    /// Computes logits from externally produced last-layer hidden states (used by
    /// the drafter, which reuses the target's frozen final norm and LM head).
    pub fn project_hidden(&self, hidden: &Mat) -> Mat {
        let (normed, _) = rmsnorm_forward(hidden, &self.final_norm);
        normed.matmul(&self.lm_head)
    }

    /// Log-probability of each next token in `tokens` given its prefix.
    ///
    /// Returns a vector of length `tokens.len() - 1`; entry `i` is
    /// `log p(tokens[i+1] | tokens[..=i])`.
    pub fn sequence_logprobs(&self, tokens: &[TokenId]) -> Vec<f32> {
        if tokens.len() < 2 {
            return Vec::new();
        }
        let mut cache = self.new_cache();
        let out = self.forward(&tokens[..tokens.len() - 1], &mut cache, false);
        let mut result = Vec::with_capacity(tokens.len() - 1);
        for i in 0..tokens.len() - 1 {
            let logp = crate::ops::log_softmax(out.logits.row(i));
            result.push(logp[tokens[i + 1] as usize]);
        }
        result
    }

    /// Hidden states leaving the frozen trunk (embedding plus every layer but
    /// the last) over a full sequence: the input of the trainable tail. Equal
    /// bit for bit to what [`TinyLm::forward`] feeds its last layer.
    pub fn trunk_forward(&self, tokens: &[TokenId]) -> Mat {
        let frozen = &self.layers[..self.layers.len() - 1];
        // Throwaway cache, sized for this sequence only.
        let mut kv = KvCache::new(frozen.len(), self.config.hidden);
        kv.reserve(tokens.len());
        self.run_layers(frozen, self.embed(tokens, 0), &mut kv, |_| {})
    }

    /// Whether `other` has this model's frozen trunk (same geometry, embedding,
    /// positions and all layers but the last), so that one
    /// [`TinyLm::trunk_forward`] serves both models.
    pub fn shares_trunk_with(&self, other: &TinyLm) -> bool {
        let frozen = self.layers.len() - 1;
        self.config == other.config
            && self.embedding == other.embedding
            && self.pos_table == other.pos_table
            && self.layers[..frozen] == other.layers[..frozen]
    }

    /// Logits of this model's tail (last layer, final norm, LM head) over the
    /// trunk output of a full sequence, without recording anything: the logits
    /// [`TinyLm::forward`] returns for that sequence.
    pub fn tail_logits(&self, trunk: &Mat) -> Mat {
        let last = self.layers.last().expect("at least one layer");
        let mut kv = LayerKvCache::new(self.config.hidden);
        kv.reserve(trunk.rows());
        self.project_hidden(&last.forward_cached(trunk, &mut kv))
    }

    /// The trainable tail (last layer → final norm → LM head) over the trunk
    /// output of a full sequence, with the intermediates
    /// [`TinyLm::backward_for_update`] needs.
    pub fn forward_tail_for_update(&self, trunk: &Mat) -> TrainableForward {
        let last = self.layers.last().expect("at least one layer");
        let (last_out, last_layer_cache) = last.forward_train(trunk);
        let (normed, final_norm_cache) = rmsnorm_forward(&last_out, &self.final_norm);
        let logits = normed.matmul(&self.lm_head);
        TrainableForward {
            last_layer_cache,
            final_norm_cache,
            normed,
            logits,
        }
    }

    /// Forward pass exposing the trainable tail of the model (frozen trunk →
    /// last layer → final norm → LM head) with recorded intermediates, over a full
    /// sequence. Used by the GRPO policy update.
    pub fn forward_for_update(&self, tokens: &[TokenId]) -> TrainableForward {
        self.forward_tail_for_update(&self.trunk_forward(tokens))
    }

    /// Backward pass matching [`TinyLm::forward_for_update`], given the gradient of
    /// the loss with respect to the logits.
    pub fn backward_for_update(&self, fwd: &TrainableForward, d_logits: &Mat) -> PolicyGrads {
        // logits = normed @ lm_head
        let d_lm_head = fwd.normed.transposed_matmul(d_logits);
        let d_normed = d_logits.matmul_transposed(&self.lm_head);
        let (d_last_out, d_final_norm) =
            rmsnorm_backward(&fwd.final_norm_cache, &self.final_norm, &d_normed);
        let last = self.layers.last().expect("at least one layer");
        let (_, last_layer_grads) = last.backward(&fwd.last_layer_cache, &d_last_out);
        PolicyGrads {
            last_layer: last_layer_grads,
            final_norm: d_final_norm,
            lm_head: d_lm_head,
        }
    }

    /// Applies an SGD update to the trainable tail (last layer, final norm, LM head).
    pub fn apply_update(&mut self, grads: &PolicyGrads, lr: f32) {
        let last = self.layers.last_mut().expect("at least one layer");
        last.apply_sgd(&grads.last_layer, lr);
        for (w, g) in self.final_norm.iter_mut().zip(&grads.final_norm) {
            *w -= lr * g;
        }
        self.lm_head.add_scaled(&grads.lm_head, -lr);
    }

    /// Returns a frozen copy to serve as the reference model for KL regularisation.
    pub fn reference_copy(&self) -> TinyLm {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::cross_entropy_weighted;
    use crate::workspace::DecodeWorkspace;

    fn small_model() -> TinyLm {
        TinyLm::new(ModelConfig::micro(), 99)
    }

    #[test]
    fn config_validation_catches_bad_configs() {
        let mut cfg = ModelConfig::micro();
        cfg.vocab_size = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ModelConfig::micro();
        cfg.num_heads = 3;
        assert!(cfg.validate().is_err());
        assert!(ModelConfig::tiny().validate().is_ok());
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let model = small_model();
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4, 5];
        let (out, cache) = model.prefill(&tokens, true);
        assert_eq!(out.logits.shape(), (5, model.config.vocab_size));
        assert_eq!(out.last_hidden.shape(), (5, model.config.hidden));
        let layer_outputs = out.layer_outputs.expect("hidden collection requested");
        assert_eq!(layer_outputs.len(), model.config.num_layers + 1);
        assert_eq!(cache.seq_len(), 5);
    }

    #[test]
    fn incremental_decode_matches_prefill() {
        let model = small_model();
        let tokens: Vec<TokenId> = vec![3, 9, 1, 7, 2, 8];
        let (full, _) = model.prefill(&tokens, false);

        let mut cache = model.new_cache();
        let mut last_logits = Vec::new();
        for &t in &tokens {
            let out = model.forward(&[t], &mut cache, false);
            last_logits.push(out.logits);
        }
        for (i, logits) in last_logits.iter().enumerate() {
            for c in 0..model.config.vocab_size {
                assert!(
                    (logits.get(0, c) - full.logits.get(i, c)).abs() < 1e-3,
                    "position {i} vocab {c} mismatch"
                );
            }
        }

        // Chunked prefill reproduces the one-shot rows bit for bit, whatever
        // the chunk size.
        for chunk in 1..=4 {
            let mut cache = model.new_cache();
            let mut rows = Vec::new();
            for piece in tokens.chunks(chunk) {
                rows.extend_from_slice(model.forward(piece, &mut cache, false).logits.as_slice());
            }
            assert_eq!(rows, full.logits.as_slice(), "chunk {chunk}");
        }
    }

    #[test]
    fn workspace_forward_is_bit_identical_to_allocating_forward() {
        // The allocation-free decode path and the convenience API must agree bit
        // for bit: speculative verification depends on it.
        let model = small_model();
        let tokens: Vec<TokenId> = vec![4, 1, 9, 2, 6];

        let (full, _) = model.prefill(&tokens, false);
        let mut cache = model.new_cache();
        let mut ws = DecodeWorkspace::new(&model.config);
        model.forward_into(&tokens, &mut cache, &mut ws);
        assert_eq!(ws.logits().as_slice(), full.logits.as_slice());
        assert_eq!(ws.last_hidden().as_slice(), full.last_hidden.as_slice());

        // Single-token decode steps also match the allocating path exactly.
        let mut cache_a = model.new_cache();
        let _ = model.forward(&tokens, &mut cache_a, false);
        let mut cache_b = model.new_cache();
        model.forward_into(&tokens, &mut cache_b, &mut ws);
        let a = model.forward(&[7], &mut cache_a, false);
        let b = model.decode_step(7, &mut cache_b, &mut ws);
        assert_eq!(a.logits.as_slice(), b.as_slice());
    }

    #[test]
    fn cache_rollback_reproduces_logits() {
        // After truncating the KV cache, re-running a token must give identical
        // logits — this is what speculative rejection relies on.
        let model = small_model();
        let prompt: Vec<TokenId> = vec![1, 2, 3];
        let (_, mut cache) = model.prefill(&prompt, false);
        let baseline = model.forward(&[7], &mut cache, false);
        // Speculatively append some garbage tokens, then roll back.
        let _ = model.forward(&[9, 11, 13], &mut cache, false);
        cache.truncate(4);
        let _rerun_guard = cache.seq_len();
        cache.truncate(3);
        let rerun = model.forward(&[7], &mut cache, false);
        for c in 0..model.config.vocab_size {
            assert!((baseline.logits.get(0, c) - rerun.logits.get(0, c)).abs() < 1e-4);
        }

        // A rolled-back multi-token suffix, redone in one pass, reproduces the
        // one-shot rows bit for bit.
        let (one_shot, mut cache) = model.prefill(&[1, 2, 3, 7, 5], false);
        cache.truncate(2);
        let redo = model.forward(&[3, 7, 5], &mut cache, false);
        let vocab = model.config.vocab_size;
        assert_eq!(
            redo.logits.as_slice(),
            &one_shot.logits.as_slice()[2 * vocab..]
        );
    }

    #[test]
    fn sequence_logprobs_are_finite_and_negative() {
        let model = small_model();
        let tokens: Vec<TokenId> = vec![0, 5, 10, 15, 20];
        let lps = model.sequence_logprobs(&tokens);
        assert_eq!(lps.len(), 4);
        for lp in lps {
            assert!(lp.is_finite());
            assert!(lp <= 0.0);
        }
    }

    #[test]
    fn policy_update_increases_logprob_of_rewarded_tokens() {
        let mut model = small_model();
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4, 5, 6];
        let targets: Vec<usize> = tokens[1..].iter().map(|&t| t as usize).collect();

        let before: f32 = model.sequence_logprobs(&tokens).iter().sum();
        for _ in 0..10 {
            let fwd = model.forward_for_update(&tokens[..tokens.len() - 1]);
            // Positive-advantage policy gradient == cross-entropy toward the taken actions.
            let (_, d_logits) = cross_entropy_weighted(&fwd.logits, &targets, None);
            let grads = model.backward_for_update(&fwd, &d_logits);
            model.apply_update(&grads, 0.5);
        }
        let after: f32 = model.sequence_logprobs(&tokens).iter().sum();
        assert!(
            after > before,
            "policy update failed to raise sequence log-prob: {before} -> {after}"
        );
    }

    #[test]
    fn policy_update_changes_output_distribution() {
        // This is the "evolving target model" phenomenon (paper challenge C1): after
        // an RL update the output distribution must drift.
        let mut model = small_model();
        let reference = model.reference_copy();
        let tokens: Vec<TokenId> = vec![2, 4, 6, 8, 10];
        let targets: Vec<usize> = tokens[1..].iter().map(|&t| t as usize).collect();
        for _ in 0..5 {
            let fwd = model.forward_for_update(&tokens[..tokens.len() - 1]);
            let (_, d_logits) = cross_entropy_weighted(&fwd.logits, &targets, None);
            let grads = model.backward_for_update(&fwd, &d_logits);
            model.apply_update(&grads, 0.5);
        }
        let drift: f32 = model
            .sequence_logprobs(&tokens)
            .iter()
            .zip(reference.sequence_logprobs(&tokens).iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            drift > 1e-3,
            "expected output distribution drift, got {drift}"
        );
    }

    #[test]
    fn project_hidden_matches_forward_logits() {
        let model = small_model();
        let tokens: Vec<TokenId> = vec![1, 3, 5];
        let (out, _) = model.prefill(&tokens, false);
        let projected = model.project_hidden(&out.last_hidden);
        for r in 0..projected.rows() {
            for c in 0..projected.cols() {
                assert!((projected.get(r, c) - out.logits.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn embed_rejects_out_of_range_tokens() {
        let model = small_model();
        let result = std::panic::catch_unwind(|| model.embed(&[10_000], 0));
        assert!(result.is_err());
    }

    #[test]
    fn parameter_count_positive_and_stable() {
        let model = small_model();
        let n = model.num_parameters();
        assert!(n > 0);
        assert_eq!(n, small_model().num_parameters());
    }
}

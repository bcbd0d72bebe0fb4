//! EAGLE-style single-layer draft model.
//!
//! The drafter mirrors the paper's §4.1 design: it reuses the target model's frozen
//! embedding table, final norm and LM head, and owns only (a) a fusion linear layer
//! that combines the target's hidden state with the next token's embedding and (b) a
//! single trainable transformer decoder layer. Drafting is autoregressive in
//! *feature space*: each step consumes the previous feature and the last committed
//! token, produces the next feature, and projects it through the frozen LM head to
//! obtain draft logits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tlt_model::layers::{DecoderLayer, DecoderLayerGrads, LayerTrainCache};
use tlt_model::{LayerKvCache, LayerScratch, Mat, TinyLm, TokenId};

/// A bias-free linear layer with explicit forward/backward (used for the fusion
/// projection that reduces `[hidden ; embedding]` down to `hidden`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix (`in_dim x out_dim`).
    pub weight: Mat,
}

impl Linear {
    /// Random initialisation.
    pub fn random(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Linear {
            weight: Mat::random_uniform(in_dim, out_dim, 1.0 / (in_dim as f32).sqrt(), &mut rng),
        }
    }

    /// Forward pass `x @ w`.
    pub fn forward(&self, x: &Mat) -> Mat {
        x.matmul(&self.weight)
    }

    /// Backward pass: returns `(d_input, d_weight)`.
    pub fn backward(&self, x: &Mat, d_out: &Mat) -> (Mat, Mat) {
        let d_input = d_out.matmul_transposed(&self.weight);
        let d_weight = x.transposed_matmul(d_out);
        (d_input, d_weight)
    }

    /// Number of parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.len()
    }
}

/// Which target-layer hidden states feed the drafter (EAGLE uses the last layer,
/// EAGLE-3 fuses low/mid/top layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSource {
    /// Last decoder layer output only (EAGLE / HASS).
    LastLayer,
    /// Bottom, middle and top layer outputs concatenated (EAGLE-3).
    MultiLayer,
}

impl FeatureSource {
    /// Number of hidden-state vectors concatenated per position.
    pub fn width_multiplier(&self) -> usize {
        match self {
            FeatureSource::LastLayer => 1,
            FeatureSource::MultiLayer => 3,
        }
    }

    /// Extracts the feature matrix for this source from per-layer outputs
    /// (`num_layers + 1` matrices, embedding output first).
    pub fn extract(&self, layer_outputs: &[Mat]) -> Mat {
        assert!(
            layer_outputs.len() >= 2,
            "need at least one decoder layer output"
        );
        match self {
            FeatureSource::LastLayer => layer_outputs[layer_outputs.len() - 1].clone(),
            FeatureSource::MultiLayer => {
                let n = layer_outputs.len();
                let low = &layer_outputs[1];
                let mid = &layer_outputs[n / 2];
                let top = &layer_outputs[n - 1];
                Mat::hconcat(&[low, mid, top])
            }
        }
    }
}

/// The draft model: frozen ties to the target plus trainable fusion + decoder layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DraftModel {
    /// Which target hidden states are consumed.
    pub feature_source: FeatureSource,
    /// Fusion projection from `[features ; embedding]` to the drafter width.
    pub fusion: Linear,
    /// The single trainable decoder layer.
    pub layer: DecoderLayer,
    /// Version counter, bumped on every weight update (used to detect staleness).
    pub version: u64,
}

/// Recorded intermediates for one drafter training forward pass.
#[derive(Debug)]
pub(crate) struct DraftTrainCache {
    fusion_input: Mat,
    fused: Mat,
    layer_cache: LayerTrainCache,
    head_norm_cache: tlt_model::ops::RmsNormCache,
    /// Drafter output features (input to the frozen norm + head).
    pub features: Mat,
    /// Logits under the frozen target head.
    pub logits: Mat,
}

/// Gradients of the drafter's trainable parameters.
#[derive(Debug, Clone)]
pub struct DraftGrads {
    /// Gradient of the fusion weight.
    pub fusion: Mat,
    /// Gradients of the decoder layer.
    pub layer: DecoderLayerGrads,
}

impl DraftGrads {
    /// Global L2 norm of all gradients.
    pub fn global_norm(&self) -> f32 {
        let fusion_sq: f32 = self.fusion.as_slice().iter().map(|v| v * v).sum();
        (fusion_sq + self.layer.global_norm().powi(2)).sqrt()
    }
}

/// Incremental drafting state (feature-space KV cache plus last feature).
///
/// Created empty by [`DraftState::new`]; [`DraftModel::resume_draft`] brings it
/// to the committed prefix at the start of every speculative round, and
/// [`DraftModel::draft_step_into`] drafts on from there.
#[derive(Debug, Clone)]
pub struct DraftState {
    kv: LayerKvCache,
    last_feature: Vec<f32>,
    /// KV entries `0..committed` were primed from committed target features and
    /// stay valid across speculative rounds; entries beyond it come from
    /// [`DraftModel::draft_step_into`] calls and are rolled back by
    /// [`DraftModel::resume_draft`].
    committed: usize,
}

impl DraftState {
    /// An empty drafting state for a drafter of `target`, its KV reserved for
    /// the target's whole positional table.
    pub fn new(target: &TinyLm) -> Self {
        let hidden = target.config.hidden;
        let mut kv = LayerKvCache::new(hidden);
        kv.reserve(target.config.max_seq_len);
        DraftState {
            kv,
            last_feature: Vec::with_capacity(hidden),
            committed: 0,
        }
    }
}

/// Reusable scratch buffers for incremental drafting.
///
/// Holds the fusion input, fused activations, drafter feature, and projection
/// temporaries plus a [`LayerScratch`] for the drafter's decoder layer. Create one
/// per generation loop and pass it to [`DraftModel::resume_draft`] /
/// [`DraftModel::draft_step_into`]; steady-state draft steps then perform no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct DraftScratch {
    input: Mat,
    fused: Mat,
    feature: Mat,
    normed: Mat,
    logits: Mat,
    layer: LayerScratch,
}

impl DraftScratch {
    /// Creates scratch for drafting against `target` (last-layer features).
    pub fn new(target: &TinyLm) -> Self {
        let hidden = target.config.hidden;
        DraftScratch {
            input: Mat::zeros(0, 2 * hidden),
            fused: Mat::zeros(0, hidden),
            feature: Mat::zeros(0, hidden),
            normed: Mat::zeros(0, hidden),
            logits: Mat::zeros(0, target.config.vocab_size),
            layer: LayerScratch::new(
                hidden,
                target.config.ffn_hidden,
                target.config.max_seq_len * target.config.num_heads,
            ),
        }
    }
}

impl DraftModel {
    /// Creates a drafter compatible with `target`, using the given feature source.
    pub fn new(target: &TinyLm, feature_source: FeatureSource, seed: u64) -> Self {
        let hidden = target.config.hidden;
        let in_dim = hidden * feature_source.width_multiplier() + hidden;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        DraftModel {
            feature_source,
            fusion: Linear::random(in_dim, hidden, seed),
            layer: DecoderLayer::random(target.config.layer_config(), &mut rng),
            version: 0,
        }
    }

    /// Number of trainable parameters (fusion + decoder layer).
    pub fn num_parameters(&self) -> usize {
        self.fusion.num_parameters() + self.layer.num_parameters()
    }

    /// Builds the fusion input rows for positions `0..T` of a sequence: target
    /// features at position `t` concatenated with the embedding of token `t+1`.
    ///
    /// `features` has one row per position `0..T`, `tokens` are the full sequence
    /// tokens (length `T+1` at least); row `t` of the result corresponds to
    /// predicting the token at position `t+2`.
    pub fn build_fusion_input(&self, target: &TinyLm, features: &Mat, tokens: &[TokenId]) -> Mat {
        assert!(
            tokens.len() > features.rows(),
            "need the token following every feature position"
        );
        let hidden = target.config.hidden;
        let fwidth = hidden * self.feature_source.width_multiplier();
        assert_eq!(features.cols(), fwidth, "feature width mismatch");
        let mut out = Mat::zeros(features.rows(), fwidth + hidden);
        for t in 0..features.rows() {
            let row = out.row_mut(t);
            row[..fwidth].copy_from_slice(features.row(t));
            let next_token = tokens[t + 1] as usize;
            row[fwidth..].copy_from_slice(target.embedding.row(next_token));
        }
        out
    }

    /// Brings `state` to the committed prefix: `features` holds the target's
    /// last-layer feature at every committed position and `tokens` the committed
    /// tokens (same length).
    ///
    /// Speculative KV entries from the previous round's draft steps are rolled
    /// back, entries already primed from committed features are kept (keys/values
    /// are per-position functions of their fusion input, so they are bit-identical
    /// to a full re-prime), and only the newly committed positions are appended;
    /// a fresh [`DraftState::new`] is primed over the whole prefix. The fusion
    /// inputs and layer temporaries live in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if the drafter is not a [`FeatureSource::LastLayer`] drafter, if the
    /// prefix is empty or its features and tokens disagree, or if `state` is ahead
    /// of the prefix.
    pub fn resume_draft(
        &self,
        target: &TinyLm,
        features: &Mat,
        tokens: &[TokenId],
        state: &mut DraftState,
        scratch: &mut DraftScratch,
    ) {
        assert_eq!(
            self.feature_source,
            FeatureSource::LastLayer,
            "token-level engine requires a last-layer drafter"
        );
        assert_eq!(
            features.rows(),
            tokens.len(),
            "feature/token length mismatch"
        );
        assert!(!tokens.is_empty(), "cannot draft from an empty prefix");
        assert_eq!(
            features.cols(),
            target.config.hidden,
            "feature width mismatch"
        );
        assert!(
            state.committed < features.rows(),
            "drafting state is ahead of the committed prefix"
        );
        state.kv.truncate(state.committed);
        // Prime committed positions `committed..rows-1`, each pairing `feature[t]`
        // with `token[t+1]`. The layer output of a primed position is never
        // consumed, so only keys/values are computed ([`DecoderLayer::append_kv`]).
        let hidden = target.config.hidden;
        let (from, until) = (state.committed, features.rows() - 1);
        if until > from {
            let count = until - from;
            scratch.input.set_rows(count, 2 * hidden);
            for t in 0..count {
                let row = scratch.input.row_mut(t);
                row[..hidden].copy_from_slice(features.row(from + t));
                row[hidden..].copy_from_slice(target.embedding.row(tokens[from + t + 1] as usize));
            }
            scratch.fused.set_rows(count, hidden);
            scratch
                .input
                .matmul_into(&self.fusion.weight, &mut scratch.fused);
            self.layer
                .append_kv(&scratch.fused, &mut state.kv, &mut scratch.layer);
        }
        state.committed = until;
        state.last_feature.clear();
        state
            .last_feature
            .extend_from_slice(features.row(features.rows() - 1));
    }

    /// Performs one incremental draft step: consumes the last committed/drafted token
    /// and returns the draft logits for the *next* token (updating internal state),
    /// as the logits row held in `scratch`.
    pub fn draft_step_into<'s>(
        &self,
        target: &TinyLm,
        state: &mut DraftState,
        last_token: TokenId,
        scratch: &'s mut DraftScratch,
    ) -> &'s [f32] {
        let hidden = target.config.hidden;
        scratch.input.set_rows(1, 2 * hidden);
        {
            let row = scratch.input.row_mut(0);
            row[..hidden].copy_from_slice(&state.last_feature);
            row[hidden..].copy_from_slice(target.embedding.row(last_token as usize));
        }
        scratch.fused.set_rows(1, hidden);
        scratch
            .input
            .matmul_into(&self.fusion.weight, &mut scratch.fused);
        self.layer.forward_cached_into(
            &scratch.fused,
            &mut state.kv,
            &mut scratch.layer,
            &mut scratch.feature,
        );
        // The drafter's own feature becomes the context for the next draft step.
        state.last_feature.copy_from_slice(scratch.feature.row(0));
        scratch.normed.set_rows(1, hidden);
        tlt_model::ops::rmsnorm_into(&scratch.feature, &target.final_norm, &mut scratch.normed);
        scratch.logits.set_rows(1, target.config.vocab_size);
        scratch
            .normed
            .matmul_into(&target.lm_head, &mut scratch.logits);
        scratch.logits.row(0)
    }

    /// Full-sequence training forward pass over fusion inputs built with
    /// [`DraftModel::build_fusion_input`]. Returns drafter features and logits with
    /// the caches needed for [`DraftModel::backward`].
    pub(crate) fn forward_train(&self, target: &TinyLm, fusion_input: &Mat) -> DraftTrainCache {
        let fused = self.fusion.forward(fusion_input);
        let (features, layer_cache) = self.layer.forward_train(&fused);
        // Same computation as `target.project_hidden`, but the norm cache is kept
        // so the backward pass does not have to re-derive it.
        let (normed, head_norm_cache) =
            tlt_model::ops::rmsnorm_forward(&features, &target.final_norm);
        let logits = normed.matmul(&target.lm_head);
        DraftTrainCache {
            fusion_input: fusion_input.clone(),
            fused,
            layer_cache,
            head_norm_cache,
            features,
            logits,
        }
    }

    /// Backward pass given the gradient with respect to the drafter output features
    /// (already combining CE-through-head and feature-alignment terms).
    pub(crate) fn backward(&self, cache: &DraftTrainCache, d_features: &Mat) -> DraftGrads {
        let (d_fused, layer_grads) = self.layer.backward(&cache.layer_cache, d_features);
        let (_d_input, d_fusion) = self.fusion.backward(&cache.fusion_input, &d_fused);
        // `_d_input` would flow into the frozen target features/embeddings; they are
        // not trained, so it is discarded (matching the paper: only the single
        // decoder layer and fusion projection are updated).
        let _ = &cache.fused;
        DraftGrads {
            fusion: d_fusion,
            layer: layer_grads,
        }
    }

    /// Propagates the gradient of a loss on the drafter *logits* back to the drafter
    /// *features*, through the target's frozen final norm and LM head.
    pub(crate) fn logits_grad_to_features(
        &self,
        target: &TinyLm,
        cache: &DraftTrainCache,
        d_logits: &Mat,
    ) -> Mat {
        // logits = rmsnorm(features) @ lm_head  (all frozen); the norm cache was
        // recorded by `forward_train`.
        let d_normed = d_logits.matmul_transposed(&target.lm_head);
        let (d_features, _d_gain) =
            tlt_model::ops::rmsnorm_backward(&cache.head_norm_cache, &target.final_norm, &d_normed);
        d_features
    }

    /// Marks the drafter as updated (bumps the version counter).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_model::ModelConfig;

    fn target() -> TinyLm {
        TinyLm::new(ModelConfig::micro(), 7)
    }

    /// One plain SGD step on the drafter (the trainer uses Adam).
    fn apply_sgd(d: &mut DraftModel, grads: &DraftGrads, lr: f32) {
        d.fusion.weight.add_scaled(&grads.fusion, -lr);
        d.layer.apply_sgd(&grads.layer, lr);
        d.version += 1;
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let lin = Linear::random(4, 3, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Mat::random_uniform(2, 4, 1.0, &mut rng);
        let d_out = Mat::random_uniform(2, 3, 1.0, &mut rng);
        let (_, d_w) = lin.backward(&x, &d_out);
        let loss = |l: &Linear| {
            let y = l.forward(&x);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let eps = 1e-3;
        for idx in 0..lin.weight.len() {
            let mut plus = lin.clone();
            plus.weight.as_mut_slice()[idx] += eps;
            let mut minus = lin.clone();
            minus.weight.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((numeric - d_w.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn drafter_is_a_small_fraction_of_target() {
        let t = target();
        let d = DraftModel::new(&t, FeatureSource::LastLayer, 0);
        // The drafter (one layer + fusion) must be well under half of the target.
        assert!(d.num_parameters() * 2 < t.num_parameters());
    }

    #[test]
    fn feature_source_extraction_shapes() {
        let t = target();
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4];
        let (out, _) = t.prefill(&tokens, true);
        let layer_outputs = out.layer_outputs.unwrap();
        let last = FeatureSource::LastLayer.extract(&layer_outputs);
        assert_eq!(last.shape(), (4, t.config.hidden));
        let multi = FeatureSource::MultiLayer.extract(&layer_outputs);
        assert_eq!(multi.shape(), (4, 3 * t.config.hidden));
    }

    #[test]
    fn draft_step_produces_vocab_sized_logits() {
        let t = target();
        let d = DraftModel::new(&t, FeatureSource::LastLayer, 0);
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4, 5];
        let (out, _) = t.prefill(&tokens, true);
        let features = FeatureSource::LastLayer.extract(&out.layer_outputs.unwrap());
        let mut scratch = DraftScratch::new(&t);
        let mut state = DraftState::new(&t);
        d.resume_draft(&t, &features, &tokens, &mut state, &mut scratch);
        let logits = d.draft_step_into(&t, &mut state, *tokens.last().unwrap(), &mut scratch);
        assert_eq!(logits.len(), t.config.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
        // A second step keeps working (autoregressive in feature space).
        let logits2 = d.draft_step_into(&t, &mut state, 3, &mut scratch);
        assert_eq!(logits2.len(), t.config.vocab_size);
    }

    #[test]
    fn a_state_resumed_over_growing_prefixes_drafts_like_a_fresh_one() {
        // `resume_draft` keeps the KV entries primed in earlier rounds and rolls
        // back the draft steps' speculative ones; the next draft logits must be
        // those of a state synced once over the final prefix, bit for bit.
        let t = target();
        let d = DraftModel::new(&t, FeatureSource::LastLayer, 3);
        let tokens: Vec<TokenId> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        let (out, _) = t.prefill(&tokens, false);
        let prefix = |n: usize| (out.last_hidden.slice_rows(0, n), &tokens[..n]);

        let mut scratch = DraftScratch::new(&t);
        let mut resumed = DraftState::new(&t);
        for (round, n) in [1, 2, 5, 6, 9].into_iter().enumerate() {
            let (features, toks) = prefix(n);
            d.resume_draft(&t, &features, toks, &mut resumed, &mut scratch);
            for step in 0..=round as u32 {
                let _ = d.draft_step_into(&t, &mut resumed, 7 + step, &mut scratch);
            }
        }
        let (features, toks) = prefix(tokens.len());
        d.resume_draft(&t, &features, toks, &mut resumed, &mut scratch);
        let mut fresh = DraftState::new(&t);
        let mut fresh_scratch = DraftScratch::new(&t);
        d.resume_draft(&t, &features, toks, &mut fresh, &mut fresh_scratch);

        for last in [8, 2, 11] {
            let a = d.draft_step_into(&t, &mut resumed, last, &mut scratch);
            let b = d.draft_step_into(&t, &mut fresh, last, &mut fresh_scratch);
            let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "draft logits after token {last}");
        }
    }

    #[test]
    #[should_panic(expected = "token-level engine requires a last-layer drafter")]
    fn multi_layer_drafter_is_rejected() {
        let t = target();
        let d = DraftModel::new(&t, FeatureSource::MultiLayer, 0);
        let tokens: Vec<TokenId> = vec![2, 4, 6];
        let (out, _) = t.prefill(&tokens, true);
        let features = FeatureSource::MultiLayer.extract(&out.layer_outputs.unwrap());
        let mut state = DraftState::new(&t);
        d.resume_draft(
            &t,
            &features,
            &tokens,
            &mut state,
            &mut DraftScratch::new(&t),
        );
    }

    #[test]
    fn training_gradient_reduces_cross_entropy() {
        let t = target();
        let mut d = DraftModel::new(&t, FeatureSource::LastLayer, 0);
        // Build a training sample from a real rollout prefix.
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let (out, _) = t.prefill(&tokens, true);
        let features = FeatureSource::LastLayer.extract(&out.layer_outputs.unwrap());
        // Positions 0..T-2 predict tokens 2..T.
        let usable = features.slice_rows(0, tokens.len() - 2);
        let fusion_input = d.build_fusion_input(&t, &usable, &tokens);
        let targets: Vec<usize> = tokens[2..].iter().map(|&x| x as usize).collect();

        let loss_of = |d: &DraftModel| {
            let cache = d.forward_train(&t, &fusion_input);
            tlt_model::ops::cross_entropy(&cache.logits, &targets).0
        };
        let before = loss_of(&d);
        for _ in 0..30 {
            let cache = d.forward_train(&t, &fusion_input);
            let (_, d_logits) = tlt_model::ops::cross_entropy(&cache.logits, &targets);
            let d_features = d.logits_grad_to_features(&t, &cache, &d_logits);
            let grads = d.backward(&cache, &d_features);
            apply_sgd(&mut d, &grads, 0.1);
        }
        let after = loss_of(&d);
        assert!(
            after < before,
            "drafter CE did not decrease: {before} -> {after}"
        );
        assert!(d.version >= 30);
    }

    #[test]
    fn version_bumps_on_update() {
        let t = target();
        let mut d = DraftModel::new(&t, FeatureSource::LastLayer, 0);
        assert_eq!(d.version, 0);
        d.bump_version();
        assert_eq!(d.version, 1);
    }

    #[test]
    #[should_panic(expected = "cannot draft from an empty prefix")]
    fn empty_prefix_rejected() {
        let t = target();
        let d = DraftModel::new(&t, FeatureSource::LastLayer, 0);
        let mut state = DraftState::new(&t);
        let features = Mat::zeros(0, t.config.hidden);
        d.resume_draft(&t, &features, &[], &mut state, &mut DraftScratch::new(&t));
    }
}

//! Reusable scratch buffers for allocation-free forward passes.
//!
//! Every per-op temporary of a decoder forward pass (normed activations, Q/K/V,
//! attention scores, MLP intermediates, logits) lives in a [`DecodeWorkspace`]
//! that is created once per generation loop and reused across steps. Buffers are
//! resized with [`Mat::set_rows`], which reuses capacity, so a steady-state decode
//! step performs **zero heap allocations** (asserted by the counting-allocator
//! suite in `tests/alloc_free_decode.rs`).
//!
//! The workspace kernels and the allocating convenience API (`TinyLm::forward`,
//! `DecoderLayer::forward_cached`) share the same code path and the same caches
//! (a [`crate::KvCache`] for the model, a [`crate::LayerKvCache`] per layer), so
//! their outputs are bit-identical — using a workspace is purely a performance
//! decision.

use crate::attention;
use crate::tensor::Mat;
use crate::transformer::ModelConfig;

/// Scratch buffers for one decoder-layer forward pass
/// ([`crate::layers::DecoderLayer::forward_cached_into`]).
///
/// One instance serves every layer of a model in turn (all layers share the same
/// geometry), which is how [`DecodeWorkspace`] uses it.
#[derive(Debug, Clone)]
pub struct LayerScratch {
    pub(crate) normed: Mat,
    pub(crate) q: Mat,
    pub(crate) k: Mat,
    pub(crate) v: Mat,
    pub(crate) attn_out: Mat,
    pub(crate) attn_proj: Mat,
    pub(crate) resid1: Mat,
    pub(crate) mlp_normed: Mat,
    pub(crate) gate: Mat,
    pub(crate) up: Mat,
    pub(crate) mlp_hidden: Mat,
    pub(crate) mlp_out: Mat,
    /// Attention-score buffer, sized to the longest attendable context.
    pub(crate) scores: Vec<f32>,
    hidden: usize,
    ffn_hidden: usize,
}

impl LayerScratch {
    /// Creates scratch for layers of width `hidden` / `ffn_hidden` with room for
    /// `max_score_slots` attention-score entries before any reallocation:
    /// `num_heads * max context length` for one-row steps, times the attention
    /// kernel's tile of query rows for blocks of several.
    pub fn new(hidden: usize, ffn_hidden: usize, max_score_slots: usize) -> Self {
        LayerScratch {
            normed: Mat::zeros(0, hidden),
            q: Mat::zeros(0, hidden),
            k: Mat::zeros(0, hidden),
            v: Mat::zeros(0, hidden),
            attn_out: Mat::zeros(0, hidden),
            attn_proj: Mat::zeros(0, hidden),
            resid1: Mat::zeros(0, hidden),
            mlp_normed: Mat::zeros(0, hidden),
            gate: Mat::zeros(0, ffn_hidden),
            up: Mat::zeros(0, ffn_hidden),
            mlp_hidden: Mat::zeros(0, ffn_hidden),
            mlp_out: Mat::zeros(0, hidden),
            scores: vec![0.0; max_score_slots],
            hidden,
            ffn_hidden,
        }
    }

    /// Resizes every buffer for a forward pass over `rows` new positions needing
    /// up to `score_slots` attention-score entries. Reuses capacity; only grows
    /// allocations the first time a larger shape is seen.
    pub(crate) fn prepare(&mut self, rows: usize, score_slots: usize) {
        self.normed.set_rows(rows, self.hidden);
        self.q.set_rows(rows, self.hidden);
        self.k.set_rows(rows, self.hidden);
        self.v.set_rows(rows, self.hidden);
        self.attn_out.set_rows(rows, self.hidden);
        self.attn_proj.set_rows(rows, self.hidden);
        self.resid1.set_rows(rows, self.hidden);
        self.mlp_normed.set_rows(rows, self.hidden);
        self.gate.set_rows(rows, self.ffn_hidden);
        self.up.set_rows(rows, self.ffn_hidden);
        self.mlp_hidden.set_rows(rows, self.ffn_hidden);
        self.mlp_out.set_rows(rows, self.hidden);
        if self.scores.len() < score_slots {
            self.scores.resize(score_slots, 0.0);
        }
    }
}

/// Workspace for full-model incremental forward passes
/// ([`crate::transformer::TinyLm::forward_into`] /
/// [`crate::transformer::TinyLm::decode_step`]).
///
/// Create one per generation loop and reuse it across steps; after each forward
/// call [`DecodeWorkspace::logits`], [`DecodeWorkspace::last_hidden`] and
/// [`DecodeWorkspace::trunk_out`] expose the results for the new positions.
#[derive(Debug, Clone)]
pub struct DecodeWorkspace {
    pub(crate) hidden: Mat,
    pub(crate) next_hidden: Mat,
    pub(crate) norm_out: Mat,
    pub(crate) logits: Mat,
    pub(crate) scratch: LayerScratch,
    hidden_dim: usize,
    vocab: usize,
}

impl DecodeWorkspace {
    /// Creates a workspace for models with `config`'s geometry. The attention
    /// score buffer is pre-sized to a tile of query rows over
    /// `config.max_seq_len` keys, so no forward pass within the model's context
    /// window ever grows it.
    pub fn new(config: &ModelConfig) -> Self {
        DecodeWorkspace {
            hidden: Mat::zeros(0, config.hidden),
            next_hidden: Mat::zeros(0, config.hidden),
            norm_out: Mat::zeros(0, config.hidden),
            logits: Mat::zeros(0, config.vocab_size),
            scratch: LayerScratch::new(
                config.hidden,
                config.ffn_hidden,
                attention::scratch_len(config.max_seq_len, config.max_seq_len, config.num_heads),
            ),
            hidden_dim: config.hidden,
            vocab: config.vocab_size,
        }
    }

    /// Prepares the model-level buffers for a forward pass over `rows` positions.
    pub(crate) fn prepare(&mut self, rows: usize) {
        self.hidden.set_rows(rows, self.hidden_dim);
        self.norm_out.set_rows(rows, self.hidden_dim);
        self.logits.set_rows(rows, self.vocab);
    }

    /// Logits of the most recent forward pass (`rows x vocab`).
    pub fn logits(&self) -> &Mat {
        &self.logits
    }

    /// Last-layer hidden states (pre final norm) of the most recent forward pass
    /// (`rows x hidden`) — the drafter's `FeatureSource::LastLayer` features.
    pub fn last_hidden(&self) -> &Mat {
        &self.hidden
    }

    /// Frozen-trunk output of the most recent forward pass (`rows x hidden`):
    /// the last layer's input, bit for bit what
    /// [`crate::transformer::TinyLm::trunk_forward`] returns for these
    /// positions. `forward_into`'s final swap leaves it here, so reading it
    /// copies nothing.
    pub fn trunk_out(&self) -> &Mat {
        &self.next_hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_reuses_capacity() {
        let config = ModelConfig::micro();
        let mut ws = DecodeWorkspace::new(&config);
        ws.prepare(8);
        ws.scratch.prepare(8, 16);
        let logits_ptr = ws.logits.as_slice().as_ptr();
        let q_ptr = ws.scratch.q.as_slice().as_ptr();
        ws.prepare(1);
        ws.scratch.prepare(1, 16);
        assert_eq!(ws.logits.as_slice().as_ptr(), logits_ptr);
        assert_eq!(ws.scratch.q.as_slice().as_ptr(), q_ptr);
        assert_eq!(ws.logits().shape(), (1, config.vocab_size));
    }

    #[test]
    fn scores_presized_to_full_context() {
        let config = ModelConfig::micro();
        let ws = DecodeWorkspace::new(&config);
        let (len, heads) = (config.max_seq_len, config.num_heads);
        assert_eq!(
            ws.scratch.scores.len(),
            attention::scratch_len(len, len, heads)
        );
        // Room for every verification block up to the full context.
        for rows in 1..=len {
            assert!(attention::scratch_len(rows, len, heads) <= ws.scratch.scores.len());
        }
    }
}

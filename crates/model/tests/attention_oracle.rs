//! Bit-identity of `tlt_model`'s attention kernel against the three hand-written
//! loops it replaced.
//!
//! The oracle below is the previous `DecoderLayer::forward_cached_into`,
//! `forward_train` and `backward`, attention loops verbatim (head-major scores,
//! `softmax_in_place`, value accumulation through the output row, per-head
//! `T x T` probability matrices), rebuilt on the crate's public ops. It lives
//! only here: production code has one attention implementation and no switch.
//! Outputs, kept probabilities and every gradient must agree `to_bits` for
//! every geometry, context length, block shape and KV backend.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_model::layers::{DecoderLayerGrads, LayerConfig};
use tlt_model::ops::{
    rmsnorm_backward, rmsnorm_forward, rmsnorm_into, silu, softmax_in_place, swiglu_backward,
    swiglu_forward, RmsNormCache, SwiGluCache,
};
use tlt_model::tensor::dot;
use tlt_model::{
    DecoderLayer, KvStore, LayerKvCache, LayerScratch, Mat, PagedKv, PagedKvCache, PagedKvPool,
};

/// The previous `forward_cached_into`, allocating its temporaries.
fn oracle_forward_cached<K: KvStore>(
    layer: &DecoderLayer,
    new_hidden: &Mat,
    kv: &mut K,
    idx: usize,
) -> Mat {
    let cfg = &layer.config;
    let past = kv.kv_len(idx);
    let n_new = new_hidden.rows();
    let mut normed = Mat::zeros(n_new, cfg.hidden);
    rmsnorm_into(new_hidden, &layer.attn_norm, &mut normed);
    let q = normed.matmul(&layer.wq);
    let k = normed.matmul(&layer.wk);
    let v = normed.matmul(&layer.wv);
    kv.kv_append(idx, &k, &v);

    let head_dim = cfg.head_dim();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut attn_out = Mat::zeros(n_new, cfg.hidden);
    let mut scores = vec![0.0f32; (past + n_new) * cfg.num_heads];
    for i in 0..n_new {
        let visible = past + i + 1;
        let q_row = q.row(i);
        let scores = &mut scores[..visible * cfg.num_heads];
        for j in 0..visible {
            let k_row = kv.kv_key(idx, j);
            for (h, (qs, ks)) in q_row
                .chunks_exact(head_dim)
                .zip(k_row.chunks_exact(head_dim))
                .enumerate()
            {
                scores[h * visible + j] = dot(qs, ks) * scale;
            }
        }
        for h in 0..cfg.num_heads {
            softmax_in_place(&mut scores[h * visible..(h + 1) * visible]);
        }
        let out_row = attn_out.row_mut(i);
        for j in 0..visible {
            let v_row = kv.kv_value(idx, j);
            for (h, (os, vs)) in out_row
                .chunks_exact_mut(head_dim)
                .zip(v_row.chunks_exact(head_dim))
                .enumerate()
            {
                let w = scores[h * visible + j];
                for (o, &v) in os.iter_mut().zip(vs.iter()) {
                    *o += w * v;
                }
            }
        }
    }
    let resid1 = new_hidden.add(&attn_out.matmul(&layer.wo));

    let mut mlp_normed = Mat::zeros(n_new, cfg.hidden);
    rmsnorm_into(&resid1, &layer.mlp_norm, &mut mlp_normed);
    let gate = mlp_normed.matmul(&layer.w_gate);
    let up = mlp_normed.matmul(&layer.w_up);
    let mut mlp_hidden = Mat::zeros(n_new, cfg.ffn_hidden);
    for ((h, &g), &u) in mlp_hidden
        .as_mut_slice()
        .iter_mut()
        .zip(gate.as_slice())
        .zip(up.as_slice())
    {
        *h = silu(g) * u;
    }
    resid1.add(&mlp_hidden.matmul(&layer.w_down))
}

/// What the previous `forward_train` recorded.
struct OracleTrainCache {
    input: Mat,
    attn_norm_cache: RmsNormCache,
    normed_input: Mat,
    q: Mat,
    k: Mat,
    v: Mat,
    /// Per-head attention probability matrices (row-major `T x T`).
    attn_probs: Vec<Mat>,
    attn_concat: Mat,
    mlp_norm_cache: RmsNormCache,
    mlp_cache: SwiGluCache,
}

/// The previous `forward_train`.
fn oracle_forward_train(layer: &DecoderLayer, input: &Mat) -> (Mat, OracleTrainCache) {
    let cfg = &layer.config;
    let t = input.rows();
    let (normed_input, attn_norm_cache) = rmsnorm_forward(input, &layer.attn_norm);
    let q = normed_input.matmul(&layer.wq);
    let k = normed_input.matmul(&layer.wk);
    let v = normed_input.matmul(&layer.wv);

    let head_dim = cfg.head_dim();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut attn_probs = Vec::with_capacity(cfg.num_heads);
    let mut attn_concat = Mat::zeros(t, cfg.hidden);
    let mut scores = vec![0.0f32; t];
    for h in 0..cfg.num_heads {
        let off = h * head_dim;
        let mut probs = Mat::zeros(t, t);
        for i in 0..t {
            let q_row = &q.row(i)[off..off + head_dim];
            for (j, s) in scores.iter_mut().enumerate().take(i + 1) {
                let k_row = &k.row(j)[off..off + head_dim];
                *s = dot(q_row, k_row) * scale;
            }
            softmax_in_place(&mut scores[..i + 1]);
            scores[i + 1..t].fill(0.0);
            probs.set_row(i, &scores);
        }
        for i in 0..t {
            let out_row = attn_concat.row_mut(i);
            let p_row = &probs.row(i)[..i + 1];
            for (j, &w) in p_row.iter().enumerate() {
                let v_row = &v.row(j)[off..off + head_dim];
                for d in 0..head_dim {
                    out_row[off + d] += w * v_row[d];
                }
            }
        }
        attn_probs.push(probs);
    }

    let attn_proj = attn_concat.matmul(&layer.wo);
    let resid1 = input.add(&attn_proj);
    let (mlp_normed, mlp_norm_cache) = rmsnorm_forward(&resid1, &layer.mlp_norm);
    let (mlp_out, mlp_cache) =
        swiglu_forward(&mlp_normed, &layer.w_gate, &layer.w_up, &layer.w_down);
    let output = resid1.add(&mlp_out);
    (
        output,
        OracleTrainCache {
            input: input.clone(),
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

/// The previous `backward`.
fn oracle_backward(
    layer: &DecoderLayer,
    cache: &OracleTrainCache,
    d_output: &Mat,
) -> (Mat, DecoderLayerGrads) {
    let cfg = &layer.config;
    let t = cache.input.rows();
    let head_dim = cfg.head_dim();
    let scale = 1.0 / (head_dim as f32).sqrt();

    let mlp_grads = swiglu_backward(
        &cache.mlp_cache,
        &layer.w_gate,
        &layer.w_up,
        &layer.w_down,
        d_output,
    );
    let (mut d_resid1, d_mlp_norm) =
        rmsnorm_backward(&cache.mlp_norm_cache, &layer.mlp_norm, &mlp_grads.d_input);
    d_resid1.add_assign(d_output);

    let mut d_input = d_resid1.clone();
    let d_wo = cache.attn_concat.transposed_matmul(&d_resid1);
    let d_attn_concat = d_resid1.matmul_transposed(&layer.wo);

    let mut d_q = Mat::zeros(t, cfg.hidden);
    let mut d_k = Mat::zeros(t, cfg.hidden);
    let mut d_v = Mat::zeros(t, cfg.hidden);
    let mut d_probs_row = vec![0.0f32; t];
    let mut d_scores = vec![0.0f32; t];
    for h in 0..cfg.num_heads {
        let off = h * head_dim;
        let probs = &cache.attn_probs[h];
        for i in 0..t {
            let d_out_row = &d_attn_concat.row(i)[off..off + head_dim];
            let d_probs_row = &mut d_probs_row[..i + 1];
            for (j, dp) in d_probs_row.iter_mut().enumerate() {
                let v_row = &cache.v.row(j)[off..off + head_dim];
                *dp = dot(d_out_row, v_row);
            }
            let p_row = &probs.row(i)[..i + 1];
            for (j, &w) in p_row.iter().enumerate() {
                let dv_row = &mut d_v.row_mut(j)[off..off + head_dim];
                for d in 0..head_dim {
                    dv_row[d] += w * d_out_row[d];
                }
            }
            let inner: f32 = p_row
                .iter()
                .zip(d_probs_row.iter())
                .map(|(&p, &dp)| p * dp)
                .sum();
            let d_scores = &mut d_scores[..i + 1];
            for ((ds, &p), &dp) in d_scores
                .iter_mut()
                .zip(p_row.iter())
                .zip(d_probs_row.iter())
            {
                *ds = p * (dp - inner);
            }
            let q_row = &cache.q.row(i)[off..off + head_dim];
            let dq_row = &mut d_q.row_mut(i)[off..off + head_dim];
            for (j, &ds) in d_scores.iter().enumerate() {
                let k_row = &cache.k.row(j)[off..off + head_dim];
                for d in 0..head_dim {
                    dq_row[d] += ds * scale * k_row[d];
                }
            }
            for (j, &ds) in d_scores.iter().enumerate() {
                let dk_row = &mut d_k.row_mut(j)[off..off + head_dim];
                for d in 0..head_dim {
                    dk_row[d] += ds * scale * q_row[d];
                }
            }
        }
    }

    let d_wq = cache.normed_input.transposed_matmul(&d_q);
    let d_wk = cache.normed_input.transposed_matmul(&d_k);
    let d_wv = cache.normed_input.transposed_matmul(&d_v);
    let mut d_normed = d_q.matmul_transposed(&layer.wq);
    d_normed.add_assign(&d_k.matmul_transposed(&layer.wk));
    d_normed.add_assign(&d_v.matmul_transposed(&layer.wv));
    let (d_input_from_norm, d_attn_norm) =
        rmsnorm_backward(&cache.attn_norm_cache, &layer.attn_norm, &d_normed);
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

const HIDDEN: [usize; 5] = [8, 16, 32, 64, 96];
const HEAD_DIM: [usize; 3] = [4, 8, 16];

/// A random layer of the `hidden`-th width and `head_dim`-th head size (the
/// head is narrowed to the width where it would not fit).
fn random_layer(hidden: usize, head_dim: usize, seed: u64) -> DecoderLayer {
    let hidden = HIDDEN[hidden];
    let head_dim = HEAD_DIM[head_dim].min(hidden);
    let config = LayerConfig {
        hidden,
        num_heads: hidden / head_dim,
        ffn_hidden: hidden * 2,
    };
    DecoderLayer::random(config, &mut StdRng::seed_from_u64(seed))
}

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    Mat::random_uniform(rows, cols, 1.0, &mut StdRng::seed_from_u64(seed))
}

fn assert_bits(label: &str, new: &[f32], oracle: &[f32]) {
    assert_eq!(new.len(), oracle.len(), "{label}: length");
    for (i, (a, b)) in new.iter().zip(oracle).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i}: new {a} vs oracle {b}"
        );
    }
}

/// Appends the `past` rows to `kv`, then runs `block` through the oracle or
/// through the kernel (from an undersized scratch: growing it is part of the
/// path).
fn run_block<K: KvStore>(
    layer: &DecoderLayer,
    kv: &mut K,
    past: (&Mat, &Mat),
    block: &Mat,
    oracle: bool,
) -> Mat {
    if past.0.rows() > 0 {
        kv.kv_append(0, past.0, past.1);
    }
    if oracle {
        return oracle_forward_cached(layer, block, kv, 0);
    }
    let cfg = &layer.config;
    let mut scratch = LayerScratch::new(cfg.hidden, cfg.ffn_hidden, 0);
    let mut out = Mat::zeros(0, cfg.hidden);
    layer.forward_cached_into(block, kv, 0, &mut scratch, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Decode (`n_new` 1), verification blocks (5) and prefill (`T`, no past)
    /// on the contiguous and the paged store.
    #[test]
    fn cached_forward_is_bit_identical_to_the_oracle(
        hidden in 0usize..5,
        head_dim in 0usize..3,
        past in 0usize..=480,
        shape in 0usize..3,
        block_size in 1usize..=32,
        seed in 0u64..1_000,
    ) {
        let layer = random_layer(hidden, head_dim, seed);
        let (past, n_new) = match shape {
            0 => (past, 1),
            1 => (past, 5),
            _ => (0, 1 + past % 96),
        };
        let width = layer.config.hidden;
        let keys = random_mat(past, width, seed + 1);
        let values = random_mat(past, width, seed + 2);
        let block = random_mat(n_new, width, seed + 3);
        let contiguous = |oracle| {
            let mut kv = LayerKvCache::new(width);
            run_block(&layer, &mut kv, (&keys, &values), &block, oracle)
        };
        assert_bits("contiguous", contiguous(false).as_slice(), contiguous(true).as_slice());
        let paged = |oracle| {
            let mut pool = PagedKvPool::with_position_capacity(1, width, block_size, past + n_new);
            let mut cache = PagedKvCache::new(1);
            let mut kv = PagedKv { pool: &mut pool, cache: &mut cache };
            run_block(&layer, &mut kv, (&keys, &values), &block, oracle)
        };
        assert_bits("paged", paged(false).as_slice(), paged(true).as_slice());
        assert_bits("backends", paged(false).as_slice(), contiguous(false).as_slice());
    }

    /// Training forward, kept probabilities and the full backward pass.
    #[test]
    fn training_passes_are_bit_identical_to_the_oracle(
        hidden in 0usize..5,
        head_dim in 0usize..3,
        t in 1usize..=72,
        seed in 0u64..1_000,
    ) {
        let layer = random_layer(hidden, head_dim, seed);
        check_training(&layer, t, seed);
    }
}

fn check_training(layer: &DecoderLayer, t: usize, seed: u64) {
    let cfg = &layer.config;
    let input = random_mat(t, cfg.hidden, seed + 4);
    let (out, cache) = layer.forward_train(&input);
    let (oracle_out, oracle_cache) = oracle_forward_train(layer, &input);
    assert_bits("train forward", out.as_slice(), oracle_out.as_slice());
    for (h, probs) in oracle_cache.attn_probs.iter().enumerate() {
        for i in 0..t {
            for j in 0..=i {
                assert_eq!(
                    cache.attention_prob(h, i, j).to_bits(),
                    probs.get(i, j).to_bits(),
                    "kept probability of head {h}, query {i}, key {j}"
                );
            }
        }
    }

    let d_out = random_mat(t, cfg.hidden, seed + 5);
    let (d_input, grads) = layer.backward(&cache, &d_out);
    let (oracle_d_input, oracle_grads) = oracle_backward(layer, &oracle_cache, &d_out);
    assert_bits("d_input", d_input.as_slice(), oracle_d_input.as_slice());
    for (label, new, oracle) in [
        (
            "d_attn_norm",
            &grads.attn_norm[..],
            &oracle_grads.attn_norm[..],
        ),
        ("d_wq", grads.wq.as_slice(), oracle_grads.wq.as_slice()),
        ("d_wk", grads.wk.as_slice(), oracle_grads.wk.as_slice()),
        ("d_wv", grads.wv.as_slice(), oracle_grads.wv.as_slice()),
        ("d_wo", grads.wo.as_slice(), oracle_grads.wo.as_slice()),
        (
            "d_mlp_norm",
            &grads.mlp_norm[..],
            &oracle_grads.mlp_norm[..],
        ),
        (
            "d_w_gate",
            grads.w_gate.as_slice(),
            oracle_grads.w_gate.as_slice(),
        ),
        (
            "d_w_up",
            grads.w_up.as_slice(),
            oracle_grads.w_up.as_slice(),
        ),
        (
            "d_w_down",
            grads.w_down.as_slice(),
            oracle_grads.w_down.as_slice(),
        ),
    ] {
        assert_bits(label, new, oracle);
    }
}

/// The longest sequence the tiny model's positional table allows, at its
/// geometry, and a zero upstream gradient (the prompt rows of a policy update):
/// zeros of either sign must come out the same.
#[test]
fn full_context_and_zero_gradients_are_bit_identical_to_the_oracle() {
    let layer = random_layer(2, 1, 7);
    check_training(&layer, 480, 7);

    let input = random_mat(12, layer.config.hidden, 8);
    let mut d_out = random_mat(12, layer.config.hidden, 9);
    for r in 0..6 {
        d_out.row_mut(r).fill(if r % 2 == 0 { 0.0 } else { -0.0 });
    }
    let (_, cache) = layer.forward_train(&input);
    let (_, oracle_cache) = oracle_forward_train(&layer, &input);
    let (d_input, grads) = layer.backward(&cache, &d_out);
    let (oracle_d_input, oracle_grads) = oracle_backward(&layer, &oracle_cache, &d_out);
    assert_bits("d_input", d_input.as_slice(), oracle_d_input.as_slice());
    assert_bits("d_wq", grads.wq.as_slice(), oracle_grads.wq.as_slice());
    assert_bits("d_wk", grads.wk.as_slice(), oracle_grads.wk.as_slice());
    assert_bits("d_wv", grads.wv.as_slice(), oracle_grads.wv.as_slice());
}

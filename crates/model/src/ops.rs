//! Differentiable neural-network primitives (forward and backward passes).
//!
//! Every operation here is written as an explicit forward function that optionally
//! returns the intermediates needed by a matching backward function. This manual
//! reverse-mode style keeps the substrate dependency-free and easy to verify with
//! finite-difference tests (see the test module at the bottom of this file).

use crate::mathx;
use crate::tensor::Mat;

/// Numerical epsilon used by RMSNorm.
pub const RMS_EPS: f32 = 1e-5;

/// `max(m, v)` as one compare-select, which vectorises to a single max
/// instruction; `f32::max`'s NaN rule costs a compare and a blend more and
/// measured twice as slow in the max passes. A NaN `v` is skipped either way.
#[inline]
pub(crate) fn select_max(m: f32, v: f32) -> f32 {
    if v > m {
        v
    } else {
        m
    }
}

/// The front of every softmax here: replaces `row` by `exp(row - max)` and
/// returns `(max, sum)`. The max runs over 16 independent accumulators (its
/// order does not matter), the exponentials are one flat
/// [`mathx::exp_in_place`] pass, and the sum is sequential in index order.
pub(crate) fn exp_shifted_in_place(row: &mut [f32]) -> (f32, f32) {
    let mut acc = [f32::NEG_INFINITY; 16];
    let mut blocks = row.chunks_exact(acc.len());
    for block in &mut blocks {
        for (m, &v) in acc.iter_mut().zip(block) {
            *m = select_max(*m, v);
        }
    }
    let max = acc
        .iter()
        .chain(blocks.remainder())
        .fold(f32::NEG_INFINITY, |m, &v| select_max(m, v));
    for v in row.iter_mut() {
        *v -= max;
    }
    mathx::exp_in_place(row);
    let mut sum = 0.0;
    for &v in row.iter() {
        sum += v;
    }
    (max, sum)
}

/// In-place numerically-stable softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let (_, sum) = exp_shifted_in_place(row);
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Stable log-softmax over a slice, returning a new vector.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; row.len()];
    log_softmax_into(row, &mut out);
    out
}

/// Stable log-softmax written into a caller-provided buffer (no allocation).
///
/// # Panics
///
/// Panics if `out.len() != row.len()`.
pub fn log_softmax_into(row: &[f32], out: &mut [f32]) {
    assert_eq!(row.len(), out.len(), "log_softmax output length mismatch");
    let log_sum = log_sum_exp(row, out);
    for (o, &v) in out.iter_mut().zip(row.iter()) {
        *o = v - log_sum;
    }
}

/// Stable `log(sum(exp(row)))` of a slice; the exponentials are taken in
/// `scratch` (same length, overwritten).
fn log_sum_exp(row: &[f32], scratch: &mut [f32]) -> f32 {
    scratch.copy_from_slice(row);
    let (max, sum) = exp_shifted_in_place(scratch);
    sum.ln() + max
}

/// SiLU (swish) activation: `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of SiLU with respect to its input.
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + mathx::exp(-x))
}

/// Saved state from an [`rmsnorm_forward`] call, needed for the backward pass.
#[derive(Debug, Clone)]
pub struct RmsNormCache {
    /// Input activations.
    pub input: Mat,
    /// Per-row reciprocal RMS values.
    pub inv_rms: Vec<f32>,
}

/// RMSNorm forward pass: `y = x / rms(x) * gain` applied row-wise.
///
/// Returns the output and a cache for [`rmsnorm_backward`].
pub fn rmsnorm_forward(x: &Mat, gain: &[f32]) -> (Mat, RmsNormCache) {
    let mut out = Mat::zeros(x.rows(), x.cols());
    rmsnorm_into(x, gain, &mut out);
    let inv_rms = (0..x.rows())
        .map(|r| {
            let row = x.row(r);
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
            1.0 / (ms + RMS_EPS).sqrt()
        })
        .collect();
    (
        out,
        RmsNormCache {
            input: x.clone(),
            inv_rms,
        },
    )
}

/// Allocation-free RMSNorm forward pass into a caller-provided matrix.
///
/// `out` must already have `x`'s shape and is fully overwritten. Decode-path
/// callers use this directly; training callers that need the reciprocal RMS cache
/// go through [`rmsnorm_forward`].
///
/// # Panics
///
/// Panics on gain-length or output-shape mismatch.
pub fn rmsnorm_into(x: &Mat, gain: &[f32], out: &mut Mat) {
    assert_eq!(x.cols(), gain.len(), "rmsnorm gain length mismatch");
    assert_eq!(x.shape(), out.shape(), "rmsnorm output shape mismatch");
    for r in 0..x.rows() {
        let row = x.row(r);
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
        let inv = 1.0 / (ms + RMS_EPS).sqrt();
        let o = out.row_mut(r);
        for i in 0..row.len() {
            o[i] = row[i] * inv * gain[i];
        }
    }
}

/// RMSNorm backward pass.
///
/// Returns `(d_input, d_gain)` given the upstream gradient `d_out`.
pub fn rmsnorm_backward(cache: &RmsNormCache, gain: &[f32], d_out: &Mat) -> (Mat, Vec<f32>) {
    let x = &cache.input;
    assert_eq!(x.shape(), d_out.shape(), "rmsnorm backward shape mismatch");
    let n = x.cols() as f32;
    let mut d_x = Mat::zeros(x.rows(), x.cols());
    let mut d_gain = vec![0.0f32; gain.len()];
    for r in 0..x.rows() {
        let row = x.row(r);
        let grad = d_out.row(r);
        let inv = cache.inv_rms[r];
        // d_gain_i += g_i * x_i * inv
        for i in 0..row.len() {
            d_gain[i] += grad[i] * row[i] * inv;
        }
        // dL/dx_i = inv * g_i*gain_i - x_i * inv^3 / n * sum_j(g_j*gain_j*x_j)
        let dot: f32 = (0..row.len()).map(|j| grad[j] * gain[j] * row[j]).sum();
        let inv3 = inv.powi(3);
        let dx = d_x.row_mut(r);
        for i in 0..row.len() {
            dx[i] = inv * grad[i] * gain[i] - row[i] * inv3 * dot / n;
        }
    }
    (d_x, d_gain)
}

/// Saved state from a [`swiglu_forward`] call.
#[derive(Debug, Clone)]
pub struct SwiGluCache {
    /// Input activations.
    pub input: Mat,
    /// Gate pre-activation (`x @ w_gate`).
    pub gate_pre: Mat,
    /// Up projection (`x @ w_up`).
    pub up: Mat,
    /// Hidden activations (`silu(gate_pre) * up`), input to the down projection.
    pub hidden: Mat,
}

/// SwiGLU feed-forward block: `down(silu(x @ w_gate) * (x @ w_up))`.
pub fn swiglu_forward(x: &Mat, w_gate: &Mat, w_up: &Mat, w_down: &Mat) -> (Mat, SwiGluCache) {
    let gate_pre = x.matmul(w_gate);
    let up = x.matmul(w_up);
    let mut hidden = Mat::zeros(gate_pre.rows(), gate_pre.cols());
    for r in 0..hidden.rows() {
        let g = gate_pre.row(r);
        let u = up.row(r);
        let h = hidden.row_mut(r);
        for i in 0..h.len() {
            h[i] = silu(g[i]) * u[i];
        }
    }
    let out = hidden.matmul(w_down);
    (
        out,
        SwiGluCache {
            input: x.clone(),
            gate_pre,
            up,
            hidden,
        },
    )
}

/// Gradients produced by [`swiglu_backward`].
#[derive(Debug, Clone)]
pub struct SwiGluGrads {
    /// Gradient with respect to the block input.
    pub d_input: Mat,
    /// Gradient of the gate projection weights.
    pub d_w_gate: Mat,
    /// Gradient of the up projection weights.
    pub d_w_up: Mat,
    /// Gradient of the down projection weights.
    pub d_w_down: Mat,
}

/// Backward pass of the SwiGLU block.
pub fn swiglu_backward(
    cache: &SwiGluCache,
    w_gate: &Mat,
    w_up: &Mat,
    w_down: &Mat,
    d_out: &Mat,
) -> SwiGluGrads {
    // out = hidden @ w_down
    let d_w_down = cache.hidden.transposed_matmul(d_out);
    let d_hidden = d_out.matmul_transposed(w_down);

    // hidden = silu(gate_pre) * up. One fused pass computes the sigmoid once per
    // element and reuses it for both silu and its derivative — the exact formulas
    // of `silu` / `silu_grad`, evaluated with a single exp instead of two.
    let mut d_gate_pre = Mat::zeros(d_hidden.rows(), d_hidden.cols());
    let mut d_up = Mat::zeros(d_hidden.rows(), d_hidden.cols());
    for r in 0..d_hidden.rows() {
        let dh = d_hidden.row(r);
        let g = cache.gate_pre.row(r);
        let u = cache.up.row(r);
        let dg = d_gate_pre.row_mut(r);
        let du = d_up.row_mut(r);
        for i in 0..dh.len() {
            let s = sigmoid(g[i]);
            dg[i] = dh[i] * u[i] * (s * (1.0 + g[i] * (1.0 - s)));
            du[i] = dh[i] * (g[i] * s);
        }
    }

    let d_w_gate = cache.input.transposed_matmul(&d_gate_pre);
    let d_w_up = cache.input.transposed_matmul(&d_up);
    let mut d_input = d_gate_pre.matmul_transposed(w_gate);
    d_input.add_assign(&d_up.matmul_transposed(w_up));

    SwiGluGrads {
        d_input,
        d_w_gate,
        d_w_up,
        d_w_down,
    }
}

/// Cross-entropy loss over a batch of rows of logits against integer targets.
///
/// Returns `(mean_loss, d_logits)` where the gradient is already divided by the
/// number of rows so it can be fed straight into the backward pass.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or any target index is out of range.
pub fn cross_entropy(logits: &Mat, targets: &[usize]) -> (f32, Mat) {
    cross_entropy_weighted(logits, targets, None)
}

/// Cross-entropy with optional per-row weights (used by policy-gradient objectives
/// where each position is scaled by its advantage).
pub fn cross_entropy_weighted(
    logits: &Mat,
    targets: &[usize],
    weights: Option<&[f32]>,
) -> (f32, Mat) {
    assert_eq!(targets.len(), logits.rows(), "target length mismatch");
    if let Some(w) = weights {
        assert_eq!(w.len(), targets.len(), "weight length mismatch");
    }
    let n = logits.rows().max(1) as f32;
    let mut d_logits = Mat::zeros(logits.rows(), logits.cols());
    let mut loss = 0.0;
    for r in 0..logits.rows() {
        let target = targets[r];
        assert!(target < logits.cols(), "target index out of range");
        let w = weights.map_or(1.0, |ws| ws[r]);
        // Single log-sum-exp per row; the gradient row is the only buffer.
        let row = logits.row(r);
        let d = d_logits.row_mut(r);
        let log_sum = log_sum_exp(row, d);
        loss += -w * (row[target] - log_sum);
        for (d_i, &v) in d.iter_mut().zip(row.iter()) {
            *d_i = v - log_sum;
        }
        mathx::exp_in_place(d);
        // d/dz of -log p(target) is p - onehot.
        d[target] -= 1.0;
        for d_i in d.iter_mut() {
            *d_i = w * *d_i / n;
        }
    }
    (loss / n, d_logits)
}

/// Smooth L1 loss between two matrices, returning `(loss, d_pred)`.
///
/// Used by EAGLE-style drafter training to align drafter hidden states with the
/// target model's hidden states.
pub fn smooth_l1(pred: &Mat, target: &Mat) -> (f32, Mat) {
    assert_eq!(pred.shape(), target.shape(), "smooth_l1 shape mismatch");
    let n = pred.len().max(1) as f32;
    let mut grad = Mat::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for (i, (&p, &t)) in pred.as_slice().iter().zip(target.as_slice()).enumerate() {
        let diff = p - t;
        if diff.abs() < 1.0 {
            loss += 0.5 * diff * diff;
            grad.as_mut_slice()[i] = diff / n;
        } else {
            loss += diff.abs() - 0.5;
            grad.as_mut_slice()[i] = diff.signum() / n;
        }
    }
    (loss / n, grad)
}

/// Top-k accuracy of logits rows against integer targets, at several `k`
/// values in a single pass over the logits.
///
/// Returns one fraction per entry of `ks`: the fraction of rows whose target
/// token is within the `k` highest logits.
pub fn top_k_accuracy_multi(logits: &Mat, targets: &[usize], ks: &[usize]) -> Vec<f64> {
    assert_eq!(targets.len(), logits.rows(), "target length mismatch");
    if logits.rows() == 0 {
        return vec![0.0; ks.len()];
    }
    let mut hits = vec![0usize; ks.len()];
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let target_logit = row[targets[r]];
        let better = row.iter().filter(|&&v| v > target_logit).count();
        for (h, &k) in hits.iter_mut().zip(ks.iter()) {
            if better < k {
                *h += 1;
            }
        }
    }
    hits.into_iter()
        .map(|h| h as f64 / logits.rows() as f64)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What every softmax of the crate guarantees, whatever `exp` rounds to:
    /// `probs` is the softmax of `logits` (not all `-inf`).
    pub(crate) fn assert_softmax_contract(logits: &[f32], probs: &[f32]) {
        let n = logits.len();
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "{probs:?}");
        let total: f64 = probs.iter().map(|&p| f64::from(p)).sum();
        let slack = n as f64 / f64::from(1u32 << 23);
        assert!((total - 1.0).abs() <= slack, "sum {total} over {n}");
        // The largest logit maps to exp(0) == 1.0 exactly, so its probability is
        // the reciprocal of the sequential f32 sum of the exponentials.
        let top = crate::sampling::argmax(logits);
        let mut sum = 0.0f32;
        for &z in logits {
            sum += mathx::exp(z - logits[top]);
        }
        assert_eq!(probs[top].to_bits(), (1.0 / sum).to_bits());
        assert!(probs.iter().all(|&p| p <= probs[top]));
        if logits.iter().filter(|z| **z > f32::NEG_INFINITY).count() == 1 {
            let one_hot: Vec<f32> = (0..n).map(|i| f32::from(i == top)).collect();
            assert_eq!(probs, one_hot);
        }
    }

    /// `n` logits of magnitude up to `scale`; with `masked`, all `-inf` but one.
    pub(crate) fn random_logits(n: usize, scale: f64, masked: bool, seed: u64) -> Vec<f32> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = rng.gen_range(0..n);
        (0..n)
            .map(|i| match masked && i != keep {
                true => f32::NEG_INFINITY,
                false => (rng.gen_range(-1.0..1.0) * scale) as f32,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn softmax_in_place_keeps_its_contract(
            n in 1usize..200,
            scale in 0.01f64..120.0,
            masked in 0u8..4,
            seed in 0u64..1_000_000,
        ) {
            let logits = random_logits(n, scale, masked == 0, seed);
            let mut probs = logits.clone();
            softmax_in_place(&mut probs);
            assert_softmax_contract(&logits, &probs);
        }
    }

    fn finite_diff_check<F: FnMut(&Mat) -> f32>(x: &Mat, analytic: &Mat, mut f: F, tol: f32) {
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (numeric - a).abs() < tol,
                "finite diff mismatch at {idx}: numeric={numeric}, analytic={a}"
            );
        }
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let row = [0.5f32, -1.0, 2.0, 0.0];
        let lp = log_softmax(&row);
        let mut sm = row.to_vec();
        softmax_in_place(&mut sm);
        for (l, s) in lp.iter().zip(sm.iter()) {
            assert!((mathx::exp(*l) - s).abs() < 1e-6);
        }
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -0.5, 0.0, 0.7, 2.5] {
            let eps = 1e-3;
            let numeric = (silu(x + eps) - silu(x - eps)) / (2.0 * eps);
            assert!((numeric - silu_grad(x)).abs() < 1e-3);
        }
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Mat::random_uniform(3, 5, 1.0, &mut rng);
        let gain: Vec<f32> = (0..5).map(|i| 0.8 + 0.1 * i as f32).collect();
        let d_out = Mat::random_uniform(3, 5, 1.0, &mut rng);
        let (_, cache) = rmsnorm_forward(&x, &gain);
        let (d_x, _) = rmsnorm_backward(&cache, &gain, &d_out);
        let loss = |m: &Mat| {
            let (y, _) = rmsnorm_forward(m, &gain);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&x, &d_x, loss, 2e-2);
    }

    #[test]
    fn swiglu_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Mat::random_uniform(2, 4, 0.5, &mut rng);
        let w_gate = Mat::random_uniform(4, 6, 0.5, &mut rng);
        let w_up = Mat::random_uniform(4, 6, 0.5, &mut rng);
        let w_down = Mat::random_uniform(6, 4, 0.5, &mut rng);
        let d_out = Mat::random_uniform(2, 4, 1.0, &mut rng);
        let (_, cache) = swiglu_forward(&x, &w_gate, &w_up, &w_down);
        let grads = swiglu_backward(&cache, &w_gate, &w_up, &w_down, &d_out);
        let loss = |m: &Mat| {
            let (y, _) = swiglu_forward(m, &w_gate, &w_up, &w_down);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&x, &grads.d_input, loss, 3e-2);
    }

    #[test]
    fn swiglu_weight_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Mat::random_uniform(2, 3, 0.5, &mut rng);
        let w_gate = Mat::random_uniform(3, 4, 0.5, &mut rng);
        let w_up = Mat::random_uniform(3, 4, 0.5, &mut rng);
        let w_down = Mat::random_uniform(4, 3, 0.5, &mut rng);
        let d_out = Mat::random_uniform(2, 3, 1.0, &mut rng);
        let (_, cache) = swiglu_forward(&x, &w_gate, &w_up, &w_down);
        let grads = swiglu_backward(&cache, &w_gate, &w_up, &w_down, &d_out);
        let loss = |wg: &Mat| {
            let (y, _) = swiglu_forward(&x, wg, &w_up, &w_down);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&w_gate, &grads.d_w_gate, loss, 3e-2);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(10);
        let logits = Mat::random_uniform(3, 5, 1.0, &mut rng);
        let targets = vec![0usize, 3, 4];
        let (_, grad) = cross_entropy(&logits, &targets);
        let loss = |m: &Mat| cross_entropy(m, &targets).0;
        finite_diff_check(&logits, &grad, loss, 1e-2);
    }

    #[test]
    fn cross_entropy_decreases_with_confident_correct_prediction() {
        let confident = Mat::from_rows(&[&[10.0, 0.0, 0.0]]);
        let uncertain = Mat::from_rows(&[&[0.1, 0.0, 0.0]]);
        let (l1, _) = cross_entropy(&confident, &[0]);
        let (l2, _) = cross_entropy(&uncertain, &[0]);
        assert!(l1 < l2);
    }

    #[test]
    fn smooth_l1_zero_at_equal_inputs() {
        let a = Mat::from_rows(&[&[1.0, -2.0, 3.0]]);
        let (loss, grad) = smooth_l1(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn top_k_accuracy_basic() {
        let logits = Mat::from_rows(&[&[5.0, 1.0, 0.0], &[0.0, 1.0, 5.0]]);
        assert_eq!(top_k_accuracy_multi(&logits, &[0, 0], &[1, 3]), [0.5, 1.0]);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let mut rng = StdRng::seed_from_u64(12);
        let x = Mat::random_uniform(3, 6, 1.0, &mut rng);
        let gain: Vec<f32> = (0..6).map(|i| 0.9 + 0.05 * i as f32).collect();
        let (expected, _) = rmsnorm_forward(&x, &gain);
        let mut out = Mat::full(3, 6, 9.0);
        rmsnorm_into(&x, &gain, &mut out);
        assert_eq!(out, expected);

        let row = [0.5f32, -1.0, 2.0, 0.0];
        let mut buf = [9.0f32; 4];
        log_softmax_into(&row, &mut buf);
        assert_eq!(buf.to_vec(), log_softmax(&row));
    }
}

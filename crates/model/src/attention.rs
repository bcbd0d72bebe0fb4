//! Causal multi-head attention: the one score / softmax / value kernel behind
//! decode, speculative verification, prefill and the training forward, and the
//! backward pass that reads what the forward kept.
//!
//! The probabilities of one query row are stored **position-major** — entry
//! `key * heads + head` — so the score pass writes one contiguous group per key
//! and every later pass reads the heads of a key side by side. Sums over keys
//! (attention output, `d_q`) are accumulated in a fixed-size stack block of
//! output lanes that stays in registers across the key loop and is stored once.
//!
//! Every output element sees the same floating-point operations in the same
//! order as a head-at-a-time loop (scores through [`dot`]; per head a max,
//! [`mathx::exp`] of the difference, sequential sum and divide; keys in
//! increasing order), so results do not depend on the blocking and are
//! bit-identical across KV backends.

use crate::mathx;
use crate::ops::select_max;
use crate::tensor::{dot, Mat};

/// Number of probabilities [`forward`] keeps for `rows` causal query rows over
/// no past: row `i` holds `(i + 1) * heads` entries, rows back to back.
pub(crate) fn kept_len(rows: usize, heads: usize) -> usize {
    rows * (rows + 1) / 2 * heads
}

/// Causal attention of the query rows `q` (one per new position) over positions
/// `0..past + q.rows()`: row `i` attends to `0..=past + i`.
///
/// `key(j)` / `value(j)` return the cached row of position `j`. Each row's
/// probabilities are written to `probs`: with `keep` back to back for
/// [`backward`], otherwise every row reuses the front of the buffer. The
/// attention output (heads concatenated) goes to `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward<'a>(
    q: &Mat,
    key: impl Fn(usize) -> &'a [f32],
    value: impl Fn(usize) -> &'a [f32],
    past: usize,
    heads: usize,
    probs: &mut [f32],
    keep: bool,
    out: &mut Mat,
) {
    let head_dim = q.cols() / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut start = 0;
    for i in 0..q.rows() {
        let len = (past + i + 1) * heads;
        let row_probs = &mut probs[start..start + len];
        head_dots(q.row(i), &key, head_dim, scale, row_probs);
        softmax_heads(row_probs, heads);
        weighted_sum(row_probs, heads, &value, out.row_mut(i));
        if keep {
            start += len;
        }
    }
}

/// Backward pass of [`forward`] over a full causal sequence (`past == 0`) from
/// the kept probabilities: given the gradient `d_out` of the attention output,
/// accumulates into the zero-initialised `d_q`, `d_k` and `d_v`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    q: &Mat,
    k: &Mat,
    v: &Mat,
    probs: &[f32],
    heads: usize,
    d_out: &Mat,
    d_q: &mut Mat,
    d_k: &mut Mat,
    d_v: &mut Mat,
) {
    let head_dim = q.cols() / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    // d_probs of the current row, turned into its score gradients in place.
    let mut d_scores = vec![0.0f32; q.rows() * heads];
    let mut start = 0;
    for i in 0..q.rows() {
        let len = (i + 1) * heads;
        let p_row = &probs[start..start + len];
        let d_scores = &mut d_scores[..len];
        // d_probs[j] = d_out[i] . v[j] per head (a scale of 1.0 is bitwise exact).
        head_dots(d_out.row(i), &|j| v.row(j), head_dim, 1.0, d_scores);
        // d_v[j] += probs[i][j] * d_out[i]
        scatter(p_row, heads, d_out.row(i), d_v);
        // scores[i][j] = (q[i] . k[j]) * scale, so the gradient that reaches q
        // and k carries the scale.
        for_head_blocks(heads, |h0, wide| match wide {
            true => softmax_backward_block::<4>(p_row, d_scores, heads, h0, scale),
            false => softmax_backward_block::<1>(p_row, d_scores, heads, h0, scale),
        });
        weighted_sum(d_scores, heads, &|j| k.row(j), d_q.row_mut(i));
        scatter(d_scores, heads, q.row(i), d_k);
        start += len;
    }
}

/// `out[j * heads + h] = dot(x[h], row(j)[h]) * scale` for every row `j` the
/// output has room for, where `[h]` is the `h`-th `head_dim`-wide slice.
fn head_dots<'a>(
    x: &[f32],
    row: &impl Fn(usize) -> &'a [f32],
    head_dim: usize,
    scale: f32,
    out: &mut [f32],
) {
    let heads = x.len() / head_dim;
    for (j, out) in out.chunks_exact_mut(heads).enumerate() {
        for ((o, x_h), r_h) in out
            .iter_mut()
            .zip(x.chunks_exact(head_dim))
            .zip(row(j).chunks_exact(head_dim))
        {
            *o = dot(x_h, r_h) * scale;
        }
    }
}

/// Calls `block(h0, wide)` for heads in blocks of four (`wide`) and then one by
/// one, so per-head state fits a fixed-size array.
fn for_head_blocks(heads: usize, mut block: impl FnMut(usize, bool)) {
    let mut h0 = 0;
    while h0 + 4 <= heads {
        block(h0, true);
        h0 += 4;
    }
    while h0 < heads {
        block(h0, false);
        h0 += 1;
    }
}

/// Columns `h0..h0 + B` of a position-major row, one `[f32; B]` per key.
fn head_block<const B: usize>(
    row: &[f32],
    heads: usize,
    h0: usize,
) -> impl Iterator<Item = &[f32; B]> {
    row.chunks_exact(heads)
        .map(move |r| r[h0..h0 + B].try_into().expect("head block"))
}

/// Mutable counterpart of [`head_block`].
fn head_block_mut<const B: usize>(
    row: &mut [f32],
    heads: usize,
    h0: usize,
) -> impl Iterator<Item = &mut [f32; B]> {
    row.chunks_exact_mut(heads)
        .map(move |r| (&mut r[h0..h0 + B]).try_into().expect("head block"))
}

/// In-place softmax of every head column of a position-major score row; each
/// head gets the bits of [`crate::ops::softmax_in_place`] over its column. The
/// `exp` pass runs flat over the row, all heads at once.
fn softmax_heads(scores: &mut [f32], heads: usize) {
    for_head_blocks(heads, |h0, wide| match wide {
        true => subtract_max_block::<4>(scores, heads, h0),
        false => subtract_max_block::<1>(scores, heads, h0),
    });
    mathx::exp_in_place(scores);
    for_head_blocks(heads, |h0, wide| match wide {
        true => normalize_block::<4>(scores, heads, h0),
        false => normalize_block::<1>(scores, heads, h0),
    });
}

/// Subtracts from heads `h0..h0 + B` of a position-major row each head's max.
#[inline]
fn subtract_max_block<const B: usize>(scores: &mut [f32], heads: usize, h0: usize) {
    // A max does not depend on the order it is taken in: four keys at a time,
    // each into its own accumulator, so no key waits for the one before it.
    let mut acc = [[f32::NEG_INFINITY; B]; 4];
    let mut groups = scores.chunks_exact(4 * heads);
    for group in &mut groups {
        for (g, acc) in acc.iter_mut().enumerate() {
            let s: &[f32; B] = group[g * heads + h0..][..B].try_into().expect("head block");
            for (m, &s) in acc.iter_mut().zip(s) {
                *m = select_max(*m, s);
            }
        }
    }
    let [mut max, rest @ ..] = acc;
    let tail = head_block::<B>(groups.remainder(), heads, h0);
    for s in rest.iter().chain(tail) {
        for (m, &s) in max.iter_mut().zip(s) {
            *m = select_max(*m, s);
        }
    }
    for s in head_block_mut::<B>(scores, heads, h0) {
        for (s, &m) in s.iter_mut().zip(&max) {
            *s -= m;
        }
    }
}

/// Divides heads `h0..h0 + B` of a position-major row by each head's sum over
/// the keys in increasing order.
#[inline]
fn normalize_block<const B: usize>(probs: &mut [f32], heads: usize, h0: usize) {
    let mut sum = [0.0f32; B];
    for p in head_block::<B>(probs, heads, h0) {
        for (sum, &p) in sum.iter_mut().zip(p) {
            *sum += p;
        }
    }
    // A head whose sum is not positive is left undivided; x / 1.0 is bitwise x.
    let divisor = sum.map(|s| if s > 0.0 { s } else { 1.0 });
    for p in head_block_mut::<B>(probs, heads, h0) {
        for (p, &d) in p.iter_mut().zip(&divisor) {
            *p /= d;
        }
    }
}

/// Softmax backward for heads `h0..h0 + B` of one query row: turns `d_probs`
/// into `d_scores * scale` in place.
#[inline]
fn softmax_backward_block<const B: usize>(
    probs: &[f32],
    d_probs: &mut [f32],
    heads: usize,
    h0: usize,
    scale: f32,
) {
    // `f32::sum` over the keys in increasing order, from its identity -0.0.
    let mut inner = [-0.0f32; B];
    for (p, dp) in head_block::<B>(probs, heads, h0).zip(head_block::<B>(d_probs, heads, h0)) {
        for ((inner, &p), &dp) in inner.iter_mut().zip(p).zip(dp) {
            *inner += p * dp;
        }
    }
    for (p, dp) in head_block::<B>(probs, heads, h0).zip(head_block_mut::<B>(d_probs, heads, h0)) {
        for ((dp, &p), &inner) in dp.iter_mut().zip(p).zip(&inner) {
            *dp = p * (*dp - inner) * scale;
        }
    }
}

/// One pass over the lanes of a `heads`-way split row in blocks of `G` units of
/// `W` lanes, driven by [`run_units`]. `head[g]` is the head unit `g` lies in.
trait UnitPass {
    fn block<const W: usize, const G: usize>(&mut self, head: [usize; G], lane0: usize);
}

/// Walks the `width` lanes of a `heads`-way split row with `pass`: blocks of
/// four units while they fit, then single units. A unit is the largest power of
/// two (up to one AVX-512 register) that divides the head width, so it never
/// straddles heads, halved while the row holds fewer than four so short rows
/// still fill a block. Unit boundaries never affect results.
fn run_units<P: UnitPass>(pass: &mut P, heads: usize, width: usize) {
    fn ladder<const W: usize, P: UnitPass>(pass: &mut P, head_dim: usize, width: usize) {
        let head = |u: usize| u * W / head_dim;
        let mut u = 0;
        while (u + 4) * W <= width {
            pass.block::<W, 4>([head(u), head(u + 1), head(u + 2), head(u + 3)], u * W);
            u += 4;
        }
        while (u + 1) * W <= width {
            pass.block::<W, 1>([head(u)], u * W);
            u += 1;
        }
    }
    let head_dim = width / heads;
    let mut unit = (1 << head_dim.trailing_zeros()).min(16);
    while unit > 1 && width / unit < 4 {
        unit /= 2;
    }
    match unit {
        16 => ladder::<16, P>(pass, head_dim, width),
        8 => ladder::<8, P>(pass, head_dim, width),
        4 => ladder::<4, P>(pass, head_dim, width),
        2 => ladder::<2, P>(pass, head_dim, width),
        _ => ladder::<1, P>(pass, head_dim, width),
    }
}

/// `out[l] = sum over rows j of weights[j * heads + head(l)] * row(j)[l]`, from
/// zero in increasing `j`, for every row the weights cover.
fn weighted_sum<'a>(
    weights: &[f32],
    heads: usize,
    row: &impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    struct Pass<'p, R> {
        weights: &'p [f32],
        heads: usize,
        row: &'p R,
        out: &'p mut [f32],
    }
    impl<'a, R: Fn(usize) -> &'a [f32]> UnitPass for Pass<'_, R> {
        /// The partial sums stay in registers across the whole row loop.
        #[inline]
        fn block<const W: usize, const G: usize>(&mut self, head: [usize; G], lane0: usize) {
            let mut acc = [[0.0f32; W]; G];
            for (j, w) in self.weights.chunks_exact(self.heads).enumerate() {
                let lanes = &(self.row)(j)[lane0..lane0 + W * G];
                for ((acc, x), &h) in acc.iter_mut().zip(lanes.chunks_exact(W)).zip(&head) {
                    let (x, w): (&[f32; W], f32) = (x.try_into().expect("unit width"), w[h]);
                    for (acc, &x) in acc.iter_mut().zip(x) {
                        *acc += w * x;
                    }
                }
            }
            self.out[lane0..lane0 + W * G].copy_from_slice(acc.as_flattened());
        }
    }
    let width = out.len();
    run_units(
        &mut Pass {
            weights,
            heads,
            row,
            out,
        },
        heads,
        width,
    );
}

/// `dst[j][l] += weights[j * heads + head(l)] * src[l]` for every row `j` the
/// weights cover.
fn scatter(weights: &[f32], heads: usize, src: &[f32], dst: &mut Mat) {
    struct Pass<'p> {
        weights: &'p [f32],
        heads: usize,
        src: &'p [f32],
        dst: &'p mut [f32],
    }
    impl UnitPass for Pass<'_> {
        #[inline]
        fn block<const W: usize, const G: usize>(&mut self, head: [usize; G], lane0: usize) {
            let src: [[f32; W]; G] = std::array::from_fn(|g| {
                let at = lane0 + g * W;
                self.src[at..at + W].try_into().expect("unit width")
            });
            let rows = self.dst.chunks_exact_mut(self.src.len());
            for (w, row) in self.weights.chunks_exact(self.heads).zip(rows) {
                let lanes = row[lane0..lane0 + W * G].chunks_exact_mut(W);
                for ((d, s), &h) in lanes.zip(&src).zip(&head) {
                    let (d, w): (&mut [f32; W], f32) = (d.try_into().expect("unit width"), w[h]);
                    for (d, &s) in d.iter_mut().zip(s) {
                        *d += w * s;
                    }
                }
            }
        }
    }
    run_units(
        &mut Pass {
            weights,
            heads,
            src,
            dst: dst.as_mut_slice(),
        },
        heads,
        src.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tests::{assert_softmax_contract, random_logits};
    use proptest::prelude::*;

    proptest! {
        /// Every head column of a position-major row, through blocks of four
        /// heads and single heads, with and without a tail of the 4-key groups.
        #[test]
        fn softmax_heads_keeps_the_softmax_contract_per_head(
            heads in 1usize..=9,
            keys in 1usize..70,
            scale in 0.01f64..120.0,
            masked in 0u8..4,
            seed in 0u64..1_000_000,
        ) {
            let columns: Vec<Vec<f32>> = (0..heads as u64)
                .map(|h| random_logits(keys, scale, masked == 0, seed + h))
                .collect();
            let mut row: Vec<f32> = (0..keys * heads).map(|i| columns[i % heads][i / heads]).collect();
            softmax_heads(&mut row, heads);
            for (h, logits) in columns.iter().enumerate() {
                let probs: Vec<f32> = row.iter().skip(h).step_by(heads).copied().collect();
                assert_softmax_contract(logits, &probs);
                // ... and each head is the flat softmax of its column, bit for bit.
                let mut flat = logits.clone();
                crate::ops::softmax_in_place(&mut flat);
                prop_assert_eq!(probs, flat);
            }
        }
    }
}

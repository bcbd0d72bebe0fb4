//! Causal multi-head attention: the one score / softmax / value kernel behind
//! decode, speculative verification, prefill and the training forward, and the
//! backward pass that reads what the forward kept.
//!
//! **One query row** (a decode step, a drafter step) keeps its probabilities
//! **position-major**, entry `key * heads + head`: the score pass writes one
//! contiguous group per key and every later pass reads the heads of a key side
//! by side. Sums over keys are accumulated in a fixed-size stack block of
//! output lanes that stays in registers across the key loop and is stored once.
//!
//! **Several query rows** (a verification block, prefill, the training
//! forward and backward) are cut into tiles of up to [`TILE`] consecutive rows,
//! and each tile makes one pass over the keys and one over the values. A tile
//! keeps its probabilities **row-innermost**, entry `(key * heads + head) *
//! TILE + row`, so every pass handles the tile's rows as one vector of lanes:
//! a key's head slice is read once and scored against all rows (the queries
//! held transposed, each lane forming [`dot`]'s eight products and its
//! reduction tree), the softmax and its backward run lane-wise per head, and
//! the value sum keeps one accumulator per (dimension, row) in registers.
//!
//! Which rows share a key: row `i0 + t` of the tile starting at query row `i0`
//! sees keys `0..=past + i0 + t`. The `shared = past + i0 + 1` keys every row
//! of the tile sees are one plain loop of each pass. The causal triangle after
//! them, key `shared + u` for rows `u + 1..`, is a second loop whose lane
//! updates are masked: a row's max, sum, inner product and output keep their
//! value at a key the row does not see, and `d_k` / `d_v` take only the rows
//! that see the key, so no row's result takes any part of such a key (the
//! score pass fills those lanes alongside; nothing reads them). Lanes past a
//! short last tile's rows are computed the same way and never stored.
//!
//! Every output element sees the same floating-point operations in the same
//! order as a head-at-a-time loop over one row: scores through [`dot`]'s lane
//! products and tree; per head a max, [`mathx::exp`] of the difference, a sum
//! from zero over the keys in increasing order and a divide; output and `d_q`
//! sums over the keys in increasing order; and `d_k` / `d_v` updates over the
//! query rows in increasing order, because the tiles come in row order and a
//! key's updates within one go row by row. A lane is one row, a tile only
//! regroups rows, so results do not depend on the tiling and are bit-identical
//! across KV backends and vector widths.

use crate::mathx;
use crate::ops::select_max;
use crate::tensor::{dot, Mat};
use std::iter::Take;
use std::slice::{ChunksExact, ChunksExactMut};

/// Query rows that share one pass over the keys and values.
const TILE: usize = 8;

/// One value per row of a tile: the entries `block[j][h]` of a tile's
/// probability block, which holds `(key * heads + head) * TILE + row`.
type Lanes = [f32; TILE];

/// Number of probabilities [`forward`] keeps for `rows` causal query rows over
/// no past: each tile's block, tiles back to back.
pub(crate) fn kept_len(rows: usize, heads: usize) -> usize {
    Tile::all(rows, 0, heads).map(|tile| tile.len()).sum()
}

/// Probability slots [`forward`] needs without `keep` for `rows` query rows
/// whose last row sees `positions` keys: one row's, or one tile's.
pub(crate) fn scratch_len(rows: usize, positions: usize, heads: usize) -> usize {
    match rows {
        1 => positions * heads,
        _ => positions * heads * TILE,
    }
}

/// The query rows `i0..i0 + rows` of one call: row `i0 + t` sees the `shared`
/// keys common to the tile and then `t` more.
#[derive(Clone, Copy)]
struct Tile {
    i0: usize,
    rows: usize,
    shared: usize,
    heads: usize,
}

impl Tile {
    /// The tiles of `rows` query rows after `past` positions, in row order.
    fn all(rows: usize, past: usize, heads: usize) -> impl Iterator<Item = Tile> {
        (0..rows).step_by(TILE).map(move |i0| Tile {
            i0,
            rows: (rows - i0).min(TILE),
            shared: past + i0 + 1,
            heads,
        })
    }

    /// Keys the tile's last row sees.
    fn keys(&self) -> usize {
        self.shared + self.rows - 1
    }

    /// Length of the tile's probability block.
    fn len(&self) -> usize {
        self.keys() * self.heads * TILE
    }

    /// The first row of the tile that sees `key`.
    fn first(&self, key: usize) -> usize {
        (key + 1).saturating_sub(self.shared)
    }

    /// The groups (`heads` lanes of [`TILE`] rows each) of the keys the
    /// tile's rows see, in key order.
    fn groups<'b>(&self, block: &'b [f32]) -> Take<ChunksExact<'b, f32>> {
        block.chunks_exact(self.heads * TILE).take(self.keys())
    }

    /// Mutable counterpart of [`Tile::groups`].
    fn groups_mut<'b>(&self, block: &'b mut [f32]) -> Take<ChunksExactMut<'b, f32>> {
        block.chunks_exact_mut(self.heads * TILE).take(self.keys())
    }

    /// The groups of the `shared` keys every row of the tile sees.
    fn shared<'b>(&self, block: &'b [f32]) -> Take<ChunksExact<'b, f32>> {
        block.chunks_exact(self.heads * TILE).take(self.shared)
    }

    /// Mutable counterpart of [`Tile::shared`].
    fn shared_mut<'b>(&self, block: &'b mut [f32]) -> Take<ChunksExactMut<'b, f32>> {
        block.chunks_exact_mut(self.heads * TILE).take(self.shared)
    }

    /// The groups of the causal triangle's keys, in key order, each with the
    /// first row that sees it.
    fn triangle<'b>(&self, block: &'b [f32]) -> impl Iterator<Item = (usize, &'b [f32])> {
        let group = self.heads * TILE;
        let keys = &block[self.shared * group..self.keys() * group];
        keys.chunks_exact(group)
            .zip(1..)
            .map(|(g, first)| (first, g))
    }

    /// Mutable counterpart of [`Tile::triangle`].
    fn triangle_mut<'b>(
        &self,
        block: &'b mut [f32],
    ) -> impl Iterator<Item = (usize, &'b mut [f32])> {
        let group = self.heads * TILE;
        let keys = &mut block[self.shared * group..self.keys() * group];
        keys.chunks_exact_mut(group)
            .zip(1..)
            .map(|(g, first)| (first, g))
    }

    /// The tile's rows of a matrix with `width` columns.
    fn of<'m>(&self, m: &'m [f32], width: usize) -> &'m [f32] {
        &m[self.i0 * width..(self.i0 + self.rows) * width]
    }

    /// Mutable counterpart of [`Tile::of`].
    fn of_mut<'m>(&self, m: &'m mut [f32], width: usize) -> &'m mut [f32] {
        &mut m[self.i0 * width..(self.i0 + self.rows) * width]
    }
}

/// Causal attention of the query rows `q` (one per new position) over positions
/// `0..past + q.rows()`: row `i` attends to `0..=past + i`.
///
/// `key(j)` / `value(j)` return the cached row of position `j`. The
/// probabilities are written to `probs`: with `keep` tile after tile for
/// [`backward`] ([`kept_len`] slots), otherwise every tile reuses the front of
/// the buffer ([`scratch_len`] slots). The attention output (heads
/// concatenated) goes to `out`.
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
    let width = q.cols();
    let head_dim = width / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    if q.rows() == 1 && !keep {
        let probs = &mut probs[..(past + 1) * heads];
        head_dots(q.row(0), &key, head_dim, scale, probs);
        softmax_heads(probs, heads);
        weighted_sum(probs, heads, &value, out.row_mut(0));
        return;
    }
    let mut start = 0;
    for tile in Tile::all(q.rows(), past, heads) {
        let block = &mut probs[start..start + tile.len()];
        tile_dots(
            tile.of(q.as_slice(), width),
            &key,
            head_dim,
            scale,
            &tile,
            block,
        );
        tile_softmax(block, &tile);
        let out = tile.of_mut(out.as_mut_slice(), width);
        tile_weighted_sum(block, &tile, &value, head_dim, out);
        if keep {
            start += tile.len();
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
    let width = q.cols();
    let head_dim = width / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    // d_probs of the current tile, turned into its score gradients in place.
    let mut d_scores = vec![0.0f32; q.rows() * heads * TILE];
    let mut start = 0;
    for tile in Tile::all(q.rows(), 0, heads) {
        let p = &probs[start..start + tile.len()];
        let d_scores = &mut d_scores[..tile.len()];
        let d_out_rows = tile.of(d_out.as_slice(), width);
        // d_probs[i][j] = d_out[i] . v[j] per head (a scale of 1.0 is bitwise exact).
        tile_dots(d_out_rows, &|j| v.row(j), head_dim, 1.0, &tile, d_scores);
        // d_v[j] += probs[i][j] * d_out[i]
        tile_scatter(p, &tile, d_out_rows, head_dim, d_v);
        // scores[i][j] = (q[i] . k[j]) * scale, so the gradient that reaches q
        // and k carries the scale.
        for_head_blocks(heads, |h0, wide| match wide {
            true => tile_softmax_backward::<4>(p, d_scores, &tile, h0, scale),
            false => tile_softmax_backward::<1>(p, d_scores, &tile, h0, scale),
        });
        let d_q_rows = tile.of_mut(d_q.as_mut_slice(), width);
        tile_weighted_sum(d_scores, &tile, &|j| k.row(j), head_dim, d_q_rows);
        tile_scatter(d_scores, &tile, tile.of(q.as_slice(), width), head_dim, d_k);
        start += tile.len();
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

/// The scores of a tile: `block[j][h][t] = dot(x[t][h], row(j)[h]) * scale`
/// for every row `t` of `x` (the tile's rows) and every key `j` it sees, where
/// `[h]` is the `h`-th `head_dim`-wide slice. Entries of keys a row does not
/// see hold whatever is left there.
fn tile_dots<'a>(
    x: &[f32],
    row: &impl Fn(usize) -> &'a [f32],
    head_dim: usize,
    scale: f32,
    tile: &Tile,
    block: &mut [f32],
) {
    if head_dim == 8 {
        for h in 0..tile.heads {
            dots8(x, row, scale, tile, h, block);
        }
        return;
    }
    // Key-major, so a key row is read once for the whole tile.
    let width = x.len() / tile.rows;
    for (j, group) in tile.groups_mut(block).enumerate() {
        let (key, first) = (row(j), tile.first(j));
        for (h, (k_h, s)) in key
            .chunks_exact(head_dim)
            .zip(group.chunks_exact_mut(TILE))
            .enumerate()
        {
            for (s, x) in s.iter_mut().zip(x.chunks_exact(width)).skip(first) {
                *s = dot(&x[h * head_dim..][..head_dim], k_h) * scale;
            }
        }
    }
}

/// Head `h` of [`tile_dots`] at `head_dim == 8`: the tile's queries are held
/// transposed (`q[d][t]`, zeros past the tile's rows), and per key each lane
/// forms [`dot`]'s eight products and reduces them with its tree, so lane `t`
/// is `dot(x[t][h], key[h])` bit for bit. The lanes of rows that do not see a
/// key of the triangle are computed alongside and never read.
fn dots8<'a>(
    x: &[f32],
    row: &impl Fn(usize) -> &'a [f32],
    scale: f32,
    tile: &Tile,
    h: usize,
    block: &mut [f32],
) {
    let mut q = [[0.0f32; TILE]; 8];
    for (t, x) in x.chunks_exact(8 * tile.heads).enumerate() {
        for (q, &x) in q.iter_mut().zip(&x[8 * h..8 * h + 8]) {
            q[t] = x;
        }
    }
    for (j, group) in tile.groups_mut(block).enumerate() {
        let k: &[f32; 8] = row(j)[8 * h..8 * h + 8].try_into().expect("head width");
        let s: &mut Lanes = (&mut group[h * TILE..][..TILE]).try_into().expect("lanes");
        *s = std::array::from_fn(|t| {
            let p = |d: usize| q[d][t] * k[d];
            ((((p(0) + p(1)) + (p(2) + p(3))) + ((p(4) + p(5)) + (p(6) + p(7)))) + 0.0) * scale
        });
    }
}

/// In-place softmax of a tile's scores per (row, head) over the keys the row
/// sees; each gets the bits of [`softmax_heads`] over that row.
fn tile_softmax(block: &mut [f32], tile: &Tile) {
    for_head_blocks(tile.heads, |h0, wide| match wide {
        true => tile_softmax_block::<4>(block, tile, h0),
        false => tile_softmax_block::<1>(block, tile, h0),
    });
}

/// The lanes of heads `h0..h0 + B` in one key's group of a tile block.
fn head_lanes<const B: usize>(group: &[f32], h0: usize) -> [&Lanes; B] {
    std::array::from_fn(|b| group[(h0 + b) * TILE..][..TILE].try_into().expect("lanes"))
}

/// Mutable counterpart of [`head_lanes`].
fn head_lanes_mut<const B: usize>(group: &mut [f32], h0: usize) -> [&mut Lanes; B] {
    let mut lanes = group[h0 * TILE..(h0 + B) * TILE].chunks_exact_mut(TILE);
    std::array::from_fn(|_| lanes.next().and_then(|l| l.try_into().ok()).expect("lanes"))
}

/// `new` in the lanes of the rows from `first` on, `old` in the others: a
/// row's lane takes no part in a key it does not see.
#[inline(always)]
fn seen(t: usize, first: usize, old: f32, new: f32) -> f32 {
    if t >= first {
        new
    } else {
        old
    }
}

/// [`tile_softmax`] for heads `h0..h0 + B`: per (row, head) a max, `exp` of
/// the difference summed over the keys in increasing order, and a divide.
#[inline]
fn tile_softmax_block<const B: usize>(block: &mut [f32], tile: &Tile, h0: usize) {
    /// Folds one key's scores into the maxima of the rows from `first` on.
    #[inline(always)]
    fn max_step<const B: usize>(max: &mut [Lanes; B], g: &[f32], h0: usize, first: usize) {
        for (m, s) in max.iter_mut().zip(head_lanes::<B>(g, h0)) {
            for (t, (m, &s)) in m.iter_mut().zip(s).enumerate() {
                *m = seen(t, first, *m, select_max(*m, s));
            }
        }
    }
    /// Replaces one key's scores by `exp(s - max)` and adds them to the sums
    /// of the rows from `first` on.
    #[inline(always)]
    fn exp_step<const B: usize>(
        sum: &mut [Lanes; B],
        max: &[Lanes; B],
        g: &mut [f32],
        h0: usize,
        first: usize,
    ) {
        for ((sum, s), m) in sum.iter_mut().zip(head_lanes_mut::<B>(g, h0)).zip(max) {
            for (t, ((sum, s), &m)) in sum.iter_mut().zip(s).zip(m).enumerate() {
                *s = mathx::exp(*s - m);
                *sum = seen(t, first, *sum, *sum + *s);
            }
        }
    }
    let mut max = [[f32::NEG_INFINITY; TILE]; B];
    for g in tile.shared(block) {
        max_step(&mut max, g, h0, 0);
    }
    for (first, g) in tile.triangle(block) {
        max_step(&mut max, g, h0, first);
    }
    let mut sum = [[0.0f32; TILE]; B];
    for g in tile.shared_mut(block) {
        exp_step(&mut sum, &max, g, h0, 0);
    }
    for (first, g) in tile.triangle_mut(block) {
        exp_step(&mut sum, &max, g, h0, first);
    }
    // A head whose sum is not positive is left undivided; x / 1.0 is bitwise x.
    let divisor = sum.map(|s| s.map(|s| if s > 0.0 { s } else { 1.0 }));
    for g in block.chunks_exact_mut(tile.heads * TILE) {
        for (p, d) in head_lanes_mut::<B>(g, h0).into_iter().zip(&divisor) {
            for (p, &d) in p.iter_mut().zip(d) {
                *p /= d;
            }
        }
    }
}

/// Softmax backward for heads `h0..h0 + B` of every row of a tile: turns
/// `d_probs` into `d_scores * scale` in place over the keys each row sees.
#[inline]
fn tile_softmax_backward<const B: usize>(
    probs: &[f32],
    d_probs: &mut [f32],
    tile: &Tile,
    h0: usize,
    scale: f32,
) {
    /// Adds one key's `p * dp` to the inner products of the rows from `first` on.
    #[inline(always)]
    fn inner_step<const B: usize>(
        inner: &mut [Lanes; B],
        p: &[f32],
        dp: &[f32],
        h0: usize,
        first: usize,
    ) {
        for ((inner, p), dp) in inner
            .iter_mut()
            .zip(head_lanes::<B>(p, h0))
            .zip(head_lanes::<B>(dp, h0))
        {
            for (t, ((inner, &p), &dp)) in inner.iter_mut().zip(p).zip(dp).enumerate() {
                *inner = seen(t, first, *inner, *inner + p * dp);
            }
        }
    }
    // `f32::sum` over the keys in increasing order, from its identity -0.0.
    let mut inner = [[-0.0f32; TILE]; B];
    for (p, dp) in tile.shared(probs).zip(tile.shared(d_probs)) {
        inner_step(&mut inner, p, dp, h0, 0);
    }
    for ((first, p), (_, dp)) in tile.triangle(probs).zip(tile.triangle(d_probs)) {
        inner_step(&mut inner, p, dp, h0, first);
    }
    let group = tile.heads * TILE;
    for (p, dp) in probs
        .chunks_exact(group)
        .zip(d_probs.chunks_exact_mut(group))
    {
        for ((dp, p), inner) in head_lanes_mut::<B>(dp, h0)
            .into_iter()
            .zip(head_lanes::<B>(p, h0))
            .zip(&inner)
        {
            for ((dp, &p), &inner) in dp.iter_mut().zip(p).zip(inner) {
                *dp = p * (*dp - inner) * scale;
            }
        }
    }
}

/// The lanes of a head's `W`-wide units: the largest power of two up to eight
/// that divides the head width, so a unit never straddles heads.
fn unit_width(head_dim: usize) -> usize {
    1 << head_dim.trailing_zeros().min(3)
}

/// `out[t][l] = sum over the keys j row t sees of block[j][head(l)][t] *
/// row(j)[l]`, from zero in increasing `j`, into `out` (the tile's rows). One
/// unit of output lanes keeps an accumulator per (lane, row) in registers
/// across one pass over the value rows.
fn tile_weighted_sum<'a>(
    block: &[f32],
    tile: &Tile,
    row: &impl Fn(usize) -> &'a [f32],
    head_dim: usize,
    out: &mut [f32],
) {
    /// Adds one key's weighted value lanes to the sums of the rows from
    /// `first` on.
    #[inline(always)]
    fn axpy_step<const W: usize>(acc: &mut [Lanes; W], w: &Lanes, x: &[f32; W], first: usize) {
        for (acc, &x) in acc.iter_mut().zip(x) {
            for (t, (acc, &w)) in acc.iter_mut().zip(w).enumerate() {
                *acc = seen(t, first, *acc, *acc + w * x);
            }
        }
    }
    fn pass<'a, 'b, const W: usize>(
        block: &'b [f32],
        tile: &Tile,
        row: &impl Fn(usize) -> &'a [f32],
        head_dim: usize,
        out: &mut [f32],
    ) {
        let width = out.len() / tile.rows;
        for lane0 in (0..width).step_by(W) {
            let h = lane0 / head_dim;
            let mut acc = [[0.0f32; TILE]; W];
            let lanes = |j: usize, g: &'b [f32]| -> (&'b Lanes, &'a [f32; W]) {
                (
                    g[h * TILE..][..TILE].try_into().expect("lanes"),
                    row(j)[lane0..lane0 + W].try_into().expect("unit width"),
                )
            };
            for (j, g) in tile.shared(block).enumerate() {
                let (w, x) = lanes(j, g);
                axpy_step(&mut acc, w, x, 0);
            }
            for (j, (first, g)) in (tile.shared..).zip(tile.triangle(block)) {
                let (w, x) = lanes(j, g);
                axpy_step(&mut acc, w, x, first);
            }
            for (t, out) in out.chunks_exact_mut(width).enumerate() {
                for (out, acc) in out[lane0..lane0 + W].iter_mut().zip(&acc) {
                    *out = acc[t];
                }
            }
        }
    }
    match unit_width(head_dim) {
        8 => pass::<8>(block, tile, row, head_dim, out),
        4 => pass::<4>(block, tile, row, head_dim, out),
        2 => pass::<2>(block, tile, row, head_dim, out),
        _ => pass::<1>(block, tile, row, head_dim, out),
    }
}

/// `dst[j][l] += block[j][head(l)][t] * src[t][l]` for every row `t` of
/// `src` (the tile's rows) and every key `j` it sees: a key's rows in
/// increasing order, its lanes held in registers across them. Shared keys go
/// four at a time, so four such chains of additions run side by side.
fn tile_scatter(block: &[f32], tile: &Tile, src: &[f32], head_dim: usize, dst: &mut Mat) {
    /// Shared keys updated side by side.
    const KEYS: usize = 4;
    /// Adds the tile's `rows` to the lanes of `K` keys, row by row.
    #[inline(always)]
    fn step<const W: usize, const K: usize>(
        dst: [&mut [f32; W]; K],
        w: [&Lanes; K],
        src: &[[f32; W]; TILE],
        rows: std::ops::Range<usize>,
    ) {
        let mut acc: [[f32; W]; K] = std::array::from_fn(|k| *dst[k]);
        for t in rows {
            for (acc, w) in acc.iter_mut().zip(&w) {
                for (acc, &s) in acc.iter_mut().zip(&src[t]) {
                    *acc += w[t] * s;
                }
            }
        }
        for (dst, acc) in dst.into_iter().zip(acc) {
            *dst = acc;
        }
    }
    fn lanes_at(g: &[f32], at: usize) -> &Lanes {
        g[at..at + TILE].try_into().expect("lanes")
    }
    fn unit_mut<const W: usize>(row: &mut [f32], lane0: usize) -> &mut [f32; W] {
        (&mut row[lane0..lane0 + W]).try_into().expect("unit width")
    }
    fn pass<const W: usize>(
        block: &[f32],
        tile: &Tile,
        src: &[f32],
        head_dim: usize,
        dst: &mut [f32],
    ) {
        let (group, width) = (tile.heads * TILE, src.len() / tile.rows);
        for lane0 in (0..width).step_by(W) {
            let h = lane0 / head_dim;
            let src: [[f32; W]; TILE] = std::array::from_fn(|t| match t < tile.rows {
                true => src[t * width + lane0..][..W]
                    .try_into()
                    .expect("unit width"),
                false => [0.0; W],
            });
            let w = |g, k| lanes_at(g, k * group + h * TILE);
            let blocks = block.chunks_exact(KEYS * group);
            let dst_blocks = dst.chunks_exact_mut(KEYS * width);
            for (g, rows) in blocks.zip(dst_blocks).take(tile.shared / KEYS) {
                let mut rows = rows.chunks_exact_mut(width);
                let dst = std::array::from_fn(|_| unit_mut(rows.next().expect("key row"), lane0));
                step::<W, KEYS>(dst, std::array::from_fn(|k| w(g, k)), &src, 0..tile.rows);
            }
            let keys = tile.groups(block).zip(dst.chunks_exact_mut(width));
            for (j, (g, row)) in keys.enumerate().skip(tile.shared / KEYS * KEYS) {
                step::<W, 1>(
                    [unit_mut(row, lane0)],
                    [w(g, 0)],
                    &src,
                    tile.first(j)..tile.rows,
                );
            }
        }
    }
    let dst = dst.as_mut_slice();
    match unit_width(head_dim) {
        8 => pass::<8>(block, tile, src, head_dim, dst),
        4 => pass::<4>(block, tile, src, head_dim, dst),
        2 => pass::<2>(block, tile, src, head_dim, dst),
        _ => pass::<1>(block, tile, src, head_dim, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tests::{assert_softmax_contract, random_logits};
    use proptest::prelude::*;

    /// Every score a tile stores is `dot(q, k) * scale` bit for bit, on the
    /// transposed kernel (`head_dim` 8) and through `dot` (6), for every key a
    /// row sees; one query row is all `-0.0` against an all-positive key, so
    /// all eight products are negative zeros.
    #[test]
    fn tile_scores_are_the_bits_of_dot() {
        let (heads, rows, past) = (3, 5, 4);
        let mut state = 7u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            [0.0, -0.0, 1.5, -2.25, 0.75, 3.0e-3][(state >> 24) as usize % 6]
        };
        for head_dim in [8, 6] {
            let width = heads * head_dim;
            let mut q: Vec<f32> = (0..rows * width).map(|_| next()).collect();
            q[..width].fill(-0.0);
            let mut keys: Vec<Vec<f32>> = (0..past + rows)
                .map(|_| (0..width).map(|_| next()).collect())
                .collect();
            keys[0].fill(0.5);
            let tile = Tile::all(rows, past, heads).next().expect("one tile");
            let mut block = vec![f32::NAN; tile.len()];
            tile_dots(&q, &|j| &keys[j][..], head_dim, 0.5, &tile, &mut block);
            for (t, x) in q.chunks_exact(width).enumerate() {
                for (j, key) in keys.iter().enumerate().take(past + 1 + t) {
                    for h in 0..heads {
                        let at = h * head_dim..(h + 1) * head_dim;
                        let want = dot(&x[at.clone()], &key[at]) * 0.5;
                        let got = block[(j * heads + h) * TILE + t];
                        assert_eq!(got.to_bits(), want.to_bits(), "row {t} key {j} head {h}");
                    }
                }
            }
        }
    }

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

//! Property-based equivalence suite for the register-tiled matmul kernels.
//!
//! The kernels must be `to_bits`-equal to their references, not merely close:
//! `matmul` and `transposed_matmul` (and the rows==1 mat-vec shape) to the
//! naive loop that accumulates each element in increasing `k`, and
//! `matmul_transposed` to one `tensor::dot` per element. Shapes cover every
//! tile-ladder width and the scalar tail, `1xN` / `Nx1` operands, zero
//! dimensions and long shared dimensions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt_model::tensor::dot;
use tlt_model::Mat;

/// Naive i-j-k reference product `a * b`: per element, `k` strictly increasing.
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Reference `a * b^T`: every element is a standalone [`dot`].
fn dot_matmul_transposed(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.set(i, j, dot(a.row(i), b.row(j)));
        }
    }
    out
}

fn assert_bits_eq(label: &str, fast: &Mat, reference: &Mat) {
    assert_eq!(fast.shape(), reference.shape(), "{label}: shape mismatch");
    for (i, (x, y)) in fast
        .as_slice()
        .iter()
        .zip(reference.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} diverged: fast={x}, reference={y}"
        );
    }
}

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::random_uniform(rows, cols, 1.0, &mut rng)
}

/// Maps a drawn `(m, k, n)` onto a shape family: general shapes around the
/// tile widths, mat-vec rows wide enough for a 64+64+16+tail ladder, `Nx1`
/// outputs, and long shared dimensions. Zero dimensions are included.
fn pick_shape(family: usize, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    match family {
        0 => (m % 24, k % 70, n % 70),
        1 => (1, k % 70, n % 151),
        2 => (1 + m % 4, 1 + k % 69, 1),
        _ => (1 + m % 2, 500 + k % 60, 1 + n % 39),
    }
}

proptest! {
    /// Blocked `matmul` (and the rows==1 mat-vec shape it subsumes) matches the
    /// naive reference for arbitrary `m x k * k x n` shapes, including zero and
    /// one-sized dimensions.
    #[test]
    fn matmul_matches_naive_reference(
        family in 0usize..4,
        m in 0usize..1000,
        k in 0usize..1000,
        n in 0usize..1000,
        seed in 0u64..1_000,
    ) {
        let (m, k, n) = pick_shape(family, m, k, n);
        let a = random_mat(m, k, seed);
        let b = random_mat(k, n, seed.wrapping_add(1));
        assert_bits_eq("matmul", &a.matmul(&b), &naive_matmul(&a, &b));
    }

    /// The mat-vec fast-path shape (`1 x k`) agrees with the naive reference and
    /// with the corresponding row of a taller product.
    #[test]
    fn matvec_row_matches_naive_and_batched(
        k in 1usize..70,
        n in 1usize..151,
        extra_rows in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let a = random_mat(extra_rows, k, seed);
        let b = random_mat(k, n, seed.wrapping_add(1));
        let row0 = a.slice_rows(0, 1);
        let single = row0.matmul(&b);
        assert_bits_eq("matvec", &single, &naive_matmul(&row0, &b));
        let full = a.matmul(&b);
        prop_assert_eq!(single.row(0), full.row(0));
    }

    /// Every element of `matmul_transposed` is the `dot` of its two rows.
    #[test]
    fn matmul_transposed_matches_naive_reference(
        family in 0usize..4,
        m in 0usize..1000,
        k in 0usize..1000,
        n in 0usize..1000,
        seed in 0u64..1_000,
    ) {
        let (m, k, n) = pick_shape(family, m, k, n);
        let a = random_mat(m, k, seed);
        let b = random_mat(n, k, seed.wrapping_add(1));
        assert_bits_eq(
            "matmul_transposed",
            &a.matmul_transposed(&b),
            &dot_matmul_transposed(&a, &b),
        );
    }

    /// `transposed_matmul` equals `transpose(a) * b` computed naively.
    #[test]
    fn transposed_matmul_matches_naive_reference(
        family in 0usize..4,
        m in 0usize..1000,
        k in 0usize..1000,
        n in 0usize..1000,
        seed in 0u64..1_000,
    ) {
        let (m, k, n) = pick_shape(family, m, k, n);
        let a = random_mat(k, m, seed);
        let b = random_mat(k, n, seed.wrapping_add(1));
        assert_bits_eq(
            "transposed_matmul",
            &a.transposed_matmul(&b),
            &naive_matmul(&a.transpose(), &b),
        );
    }

    /// The `_into` variants overwrite stale buffer contents and agree with the
    /// allocating forms exactly.
    #[test]
    fn into_variants_overwrite_and_match(
        m in 1usize..12,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = random_mat(m, k, seed);
        let b = random_mat(k, n, seed.wrapping_add(1));
        let mut out = Mat::full(m, n, f32::MAX);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), a.matmul(&b).as_slice());

        let c = random_mat(n, k, seed.wrapping_add(2));
        let mut out_t = Mat::full(m, n, f32::MAX);
        a.matmul_transposed_into(&c, &mut out_t);
        prop_assert_eq!(out_t.as_slice(), a.matmul_transposed(&c).as_slice());

        let d = random_mat(m, n, seed.wrapping_add(3));
        let mut out_tm = Mat::full(k, n, f32::MAX);
        a.transposed_matmul_into(&d, &mut out_tm);
        prop_assert_eq!(out_tm.as_slice(), a.transposed_matmul(&d).as_slice());
    }
}

/// Explicit degenerate shapes (not left to chance in the random sweep).
#[test]
fn degenerate_shapes_match_reference() {
    for &(m, k, n) in &[
        (0usize, 0usize, 0usize),
        (0, 5, 3),
        (3, 0, 4),
        (2, 7, 0),
        (1, 17, 1),
        (1, 1, 33),
        (33, 1, 1),
    ] {
        let a = random_mat(m, k, 7);
        let b = random_mat(k, n, 8);
        assert_bits_eq("degenerate matmul", &a.matmul(&b), &naive_matmul(&a, &b));
        let bt = random_mat(n, k, 9);
        assert_bits_eq(
            "degenerate matmul_transposed",
            &a.matmul_transposed(&bt),
            &dot_matmul_transposed(&a, &bt),
        );
        let at = random_mat(k, m, 10);
        assert_bits_eq(
            "degenerate transposed_matmul",
            &at.transposed_matmul(&random_mat(k, n, 11)),
            &naive_matmul(&at.transpose(), &random_mat(k, n, 11)),
        );
    }
}

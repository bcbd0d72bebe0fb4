//! `exp` for `f32` from adds, multiplies, compare-selects and integer shifts
//! only: no libm call and no fused multiply-add, so every result bit is fixed
//! by IEEE-754 and this source, on any target, libc and vector width.
//!
//! Every softmax, sigmoid and loss of the token-level path goes through
//! [`exp`] (one value) or [`exp_in_place`] (a buffer, same bits element for
//! element). Both are branch-free, so loops over them autovectorise.
//!
//! Method, for `x` in `[EXP_LO, EXP_HI]`:
//!
//! 1. `n = round(x * LOG2E)`, taken by adding and subtracting `MAGIC`
//!    (`1.5 * 2^23`: the sum's low mantissa bits are `n`, rounded to nearest
//!    even by the addition itself).
//! 2. Two-constant Cody-Waite reduction `r = (x - n * LN2_HI) - n * LN2_LO`,
//!    `|r| <= ln2 / 2` up to the rounding of step 1. `LN2_HI = 0x3f317200` has
//!    nine trailing zero bits, so `n * LN2_HI` is exact for `|n| <= 128`;
//!    `LN2_LO = ln2 - LN2_HI` rounded to `f32`.
//! 3. `exp(r) ~= 1 + r + r^2 (C2 + C3 r + C4 r^2 + C5 r^3 + C6 r^4)`, Horner on
//!    the bracket. The coefficients are a degree-6 minimax fit of the relative
//!    error on `|r| <= 1.0005 * ln2 / 2` with the constant and linear terms
//!    held at 1 (Lawson's algorithm on 1,201 Chebyshev nodes at 40 digits,
//!    then rounded to `f32`); the rounded polynomial is within `3.7e-9` of
//!    `exp(r)` relatively, 0.06 ulp, so evaluation rounding is what is left.
//! 4. `2^n` is built in the exponent bits and applied as two exact power-of-two
//!    factors `2^(n >> 1) * 2^(n - (n >> 1))`, which reaches `n = -126` and
//!    `n = 128` without a special case; the last multiply overflows to `+inf`
//!    by ordinary rounding.
//!
//! Contract (tests below; libm appears there only, as the reference): the
//! result is within 2 ulp of the correctly rounded `exp(x)` (measured: at most
//! 1 ulp over the dense sweep); `exp(+-0.0) == 1.0` exactly, which a softmax's
//! largest element and the greedy acceptance test rely on; `x < EXP_LO` (true
//! result below the smallest normal `2^-126`) gives exactly `0.0`, so no
//! result is ever subnormal and a softmax's far tail is exact zeros;
//! `x > EXP_HI` gives `+inf`; NaN in, NaN out.

/// `log2(e)` rounded to `f32`.
const LOG2E: f32 = f32::from_bits(0x3fb8_aa3b);
/// `1.5 * 2^23`: adding it rounds an `f32` of magnitude below `2^22` to an
/// integer held in the low mantissa bits.
const MAGIC: f32 = f32::from_bits(0x4b40_0000);
const LN2_HI: f32 = f32::from_bits(0x3f31_7200);
const LN2_LO: f32 = f32::from_bits(0x35bf_be8e);
const C2: f32 = f32::from_bits(0x3eff_fffe);
const C3: f32 = f32::from_bits(0x3e2a_aa49);
const C4: f32 = f32::from_bits(0x3d2a_ac79);
const C5: f32 = f32::from_bits(0x3c09_1d10);
const C6: f32 = f32::from_bits(0x3ab5_11e6);
/// Smallest input whose exponential is a normal number (`-126 ln2` rounded up).
pub const EXP_LO: f32 = f32::from_bits(0xc2ae_ac4f);
/// Largest input whose exponential rounds to a finite number.
pub const EXP_HI: f32 = f32::from_bits(0x42b1_7217);

/// Lanes of one [`exp_in_place`] block: a whole number of vector registers at
/// any width up to 512 bits.
const LANES: usize = 16;

/// `e^x`; see the module documentation for the method and the contract.
#[inline]
pub fn exp(x: f32) -> f32 {
    let t = x * LOG2E + MAGIC;
    let n = t - MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let q = (((C6 * r + C5) * r + C4) * r + C3) * r + C2;
    let p = (q * (r * r) + r) + 1.0;
    // `t`'s bits are `MAGIC`'s plus `n`; rebased so each half carries the
    // exponent bias: `half + rest == n + 254` and `half == (n >> 1) + 127`.
    let biased = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32 - 254);
    let half = biased >> 1;
    let rest = biased - half;
    let scaled = p * f32::from_bits((half << 23) as u32) * f32::from_bits((rest << 23) as u32);
    // Outside the cut-offs `n` does not fit the exponent field and `scaled` is
    // arbitrary; a NaN fails both comparisons and passes through.
    let low = if x < EXP_LO { 0.0 } else { scaled };
    if x > EXP_HI {
        f32::INFINITY
    } else {
        low
    }
}

/// Replaces every element by its [`exp`], bit for bit what the scalar form
/// returns whatever the slice's length and alignment: full blocks of `LANES`
/// in place, the tail through a zero-padded block.
pub fn exp_in_place(xs: &mut [f32]) {
    fn block(xs: &mut [f32; LANES]) {
        for x in xs {
            *x = exp(*x);
        }
    }
    let mut blocks = xs.chunks_exact_mut(LANES);
    for b in &mut blocks {
        block(b.try_into().expect("block width"));
    }
    let tail = blocks.into_remainder();
    let mut padded = [0.0f32; LANES];
    padded[..tail.len()].copy_from_slice(tail);
    block(&mut padded);
    tail.copy_from_slice(&padded[..tail.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Correctly rounded reference (up to libm's `f64` error, far below half an
    /// `f32` ulp except at near-ties).
    fn reference(x: f32) -> f32 {
        (x as f64).exp() as f32
    }

    /// Input bits -> result bits, taken from this implementation once the dense
    /// sweep below held; any platform that compiles the crate must reproduce
    /// them. (A NaN's payload is not IEEE-754's to fix: that row checks NaN-ness.)
    const GOLDEN: [(u32, u32); 78] = [
        (0x00000000, 0x3f800000), // +0.0: 1e0
        (0x80000000, 0x3f800000), // -0.0: 1e0
        (0x3f800000, 0x402df854), // 1: 2.7182817e0
        (0xbf800000, 0x3ebc5ab2), // -1: 3.6787945e-1
        (0x3eb17217, 0x3fb504f3), // ln2/2, neighbour below: 1.4142135e0
        (0x3eb17218, 0x3fb504f3), // ln2/2: 1.4142135e0
        (0x3eb17219, 0x3fb504f4), // ln2/2, neighbour above: 1.4142137e0
        (0xbeb17219, 0x3f3504f3), // -ln2/2, neighbour below: 7.0710677e-1
        (0xbeb17218, 0x3f3504f3), // -ln2/2: 7.0710677e-1
        (0xbeb17217, 0x3f3504f4), // -ln2/2, neighbour above: 7.071068e-1
        (0xbfb17219, 0x3e7ffffe), // -4 ln2/2, neighbour below: 2.4999997e-1
        (0xbfb17218, 0x3e800000), // -4 ln2/2: 2.5e-1
        (0xbfb17217, 0x3e800001), // -4 ln2/2, neighbour above: 2.5000003e-1
        (0xbf851593, 0x3eb504f2), // -3 ln2/2, neighbour below: 3.5355335e-1
        (0xbf851592, 0x3eb504f3), // -3 ln2/2: 3.5355338e-1
        (0xbf851591, 0x3eb504f4), // -3 ln2/2, neighbour above: 3.535534e-1
        (0xbf317219, 0x3effffff), // -2 ln2/2, neighbour below: 4.9999997e-1
        (0xbf317218, 0x3f000000), // -2 ln2/2: 5e-1
        (0xbf317217, 0x3f000000), // -2 ln2/2, neighbour above: 5e-1
        (0x3f317217, 0x3fffffff), // 2 ln2/2, neighbour below: 1.9999999e0
        (0x3f317218, 0x40000000), // 2 ln2/2: 2e0
        (0x3f317219, 0x40000001), // 2 ln2/2, neighbour above: 2.0000002e0
        (0x3f851591, 0x403504f2), // 3 ln2/2, neighbour below: 2.8284268e0
        (0x3f851592, 0x403504f3), // 3 ln2/2: 2.828427e0
        (0x3f851593, 0x403504f4), // 3 ln2/2, neighbour above: 2.8284273e0
        (0x3fb17217, 0x407ffffe), // 4 ln2/2, neighbour below: 3.9999995e0
        (0x3fb17218, 0x40800000), // 4 ln2/2: 4e0
        (0x3fb17219, 0x40800001), // 4 ln2/2, neighbour above: 4.0000005e0
        (0xc2aeac50, 0x00000000), // EXP_LO, neighbour below: 0e0
        (0xc2aeac4f, 0x00800026), // EXP_LO: 1.1754997e-38
        (0xc2aeac4e, 0x00800066), // EXP_LO, neighbour above: 1.1755086e-38
        (0x42b17216, 0x7f7fff04), // EXP_HI, neighbour below: 3.4027726e38
        (0x42b17217, 0x7f7fff84), // EXP_HI: 3.4027985e38
        (0x42b17218, 0x7f800000), // EXP_HI, neighbour above: inf
        (0x7f800000, 0x7f800000), // +inf: inf
        (0xff800000, 0x00000000), // -inf: 0e0
        (0x7fc00000, 0x7fc00000), // NaN: NaN
        (0x00000001, 0x3f800000), // smallest subnormal: 1e0
        (0x80000001, 0x3f800000), // -smallest subnormal: 1e0
        (0x007fffff, 0x3f800000), // largest subnormal: 1e0
        (0x807fffff, 0x3f800000), // -largest subnormal: 1e0
        (0x00800000, 0x3f800000), // smallest normal: 1e0
        (0x34000000, 0x3f800001), // EPSILON: 1.0000001e0
        (0xb4000000, 0x3f7ffffe), // -EPSILON: 9.999999e-1
        (0xc2ae0000, 0x00b33687), // -87: 1.6458115e-38
        (0x42b00000, 0x7ef882b7), // 88: 1.6516363e38
        (0xc2af0000, 0x00000000), // -87.5 (below the cut-off): 0e0
        (0x42b10000, 0x7f4cdcc4), // 88.5: 2.723088e38
        (0x42b20000, 0x7f800000), // 89 (above the cut-off): inf
        (0xc2d00000, 0x00000000), // -104: 0e0
        (0x3f000000, 0x3fd3094c), // 0.5: 1.6487212e0
        (0xbf000000, 0x3f1b4598), // -0.5: 6.0653067e-1
        (0x3e800000, 0x3fa45af2), // 0.25: 1.2840254e0
        (0xbe800000, 0x3f475f7d), // -0.25: 7.788008e-1
        (0x40000000, 0x40ec7326), // 2.0: 7.389056e0
        (0xc0000000, 0x3e0a9555), // -2.0: 1.3533528e-1
        (0x40600000, 0x42047639), // 3.5: 3.311545e1
        (0xc0600000, 0x3cf76081), // -3.5: 3.0197384e-2
        (0x40e80000, 0x44b0035b), // 7.25: 1.4081049e3
        (0xc0e80000, 0x3a3a2aff), // -7.25: 7.101744e-4
        (0x41200000, 0x46ac14ee), // 10.0: 2.2026465e4
        (0xc1200000, 0x383e6bce), // -10.0: 4.539993e-5
        (0x41a00000, 0x4de75844), // 20.0: 4.851652e8
        (0xc1a00000, 0x310da433), // -20.0: 2.0611537e-9
        (0x42480000, 0x638c881f), // 50.0: 5.1847055e21
        (0xc2480000, 0x1b692beb), // -50.0: 1.9287499e-22
        (0x42a00000, 0x792abbce), // 80.0: 5.5406225e34
        (0xc2a00000, 0x05bfecba), // -80.0: 1.8048513e-35
        (0x2edbe6ff, 0x3f800000), // 1e-10: 1e0
        (0xaedbe6ff, 0x3f800000), // -1e-10: 1e0
        (0x3a83126f, 0x3f8020c9), // 0.001: 1.0010005e0
        (0xba83126f, 0x3f7fbe7f), // -0.001: 9.990005e-1
        (0x3dcccccd, 0x3f8d763e), // 0.1: 1.105171e0
        (0xbdcccccd, 0x3f67a36d), // -0.1: 9.048374e-1
        (0x41851592, 0x4b800000), // 16.635532: 1.6777216e7
        (0xc1851592, 0x337fffff), // -16.635532: 5.960464e-8
        (0x7f61b1e6, 0x7f800000), // 3e38: inf
        (0xff61b1e6, 0x00000000), // -3e38: 0e0
    ];

    #[test]
    fn golden_table_reproduces_bit_for_bit() {
        for (input, want) in GOLDEN {
            let x = f32::from_bits(input);
            let got = exp(x);
            if f32::from_bits(want).is_nan() {
                assert!(got.is_nan(), "exp({x:e}) = {got:e}, expected NaN");
            } else {
                assert_eq!(got.to_bits(), want, "exp({x:e}) = {got:e}");
            }
        }
    }

    #[test]
    fn dense_sweep_is_within_two_ulp_of_correctly_rounded() {
        // Every float whose low 9 mantissa bits are zero, over [-104, 89].
        let (mut max_ulp, mut not_rounded, mut inputs) = (0u32, 0u64, 0u64);
        for bits in (0..=u32::MAX).step_by(1 << 9) {
            let x = f32::from_bits(bits);
            if !(-104.0..=89.0).contains(&x) {
                continue;
            }
            inputs += 1;
            let (got, want) = (exp(x), reference(x));
            if x < EXP_LO {
                assert_eq!(got.to_bits(), 0, "exp({x:e}) below the cut-off");
                assert!(want < f32::MIN_POSITIVE, "cut-off too high at {x:e}");
            } else if x > EXP_HI {
                assert_eq!(got, f32::INFINITY, "exp({x:e}) above the cut-off");
                assert_eq!(want, f32::INFINITY, "cut-off too low at {x:e}");
            } else {
                assert!(got.is_normal(), "exp({x:e}) = {got:e}");
                let ulp = got.to_bits().abs_diff(want.to_bits());
                max_ulp = max_ulp.max(ulp);
                not_rounded += u64::from(ulp != 0);
            }
        }
        // Measured: 4,374,786 inputs, max 1 ulp, 35,418 not correctly rounded.
        println!("{inputs} inputs, max {max_ulp} ulp, {not_rounded} not correctly rounded");
        assert!(max_ulp <= 2, "max distance {max_ulp} ulp");
    }

    #[test]
    fn slice_form_equals_scalar_form_at_every_length_and_offset() {
        // One buffer over the whole domain, specials included; every window of
        // it must come out as the scalar form maps it, wherever it starts.
        let mut source: Vec<f32> = (0..16 + 67)
            .map(|i| -104.0 + 193.0 * (i as f32 / 82.0) + 0.37 * (i % 7) as f32)
            .collect();
        source[3] = f32::NAN;
        source[20] = f32::NEG_INFINITY;
        source[41] = f32::INFINITY;
        source[57] = -0.0;
        source[64] = EXP_LO;
        source[70] = EXP_HI;
        for offset in 0..16 {
            for len in 0..=67 {
                let mut buffer = source.clone();
                exp_in_place(&mut buffer[offset..offset + len]);
                for (i, (&got, &x)) in buffer.iter().zip(&source).enumerate() {
                    let want = if (offset..offset + len).contains(&i) {
                        exp(x)
                    } else {
                        x
                    };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "offset {offset} len {len} at {i}"
                    );
                }
            }
        }
    }
}

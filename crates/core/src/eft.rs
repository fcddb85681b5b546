//! Error-free transformations (paper §III-B, Figure 1).
//!
//! The floating-point sum of two numbers `a ⊕ b = rd(a + b)` generally loses
//! the low-order bits of the smaller operand. An *error-free transformation*
//! splits a value `b` against an *extractor* `a` into a contribution
//! `q := (a ⊕ b) ⊖ a` — an integer multiple of `ulp(a)` — and a remainder
//! `r := b ⊖ q`, such that `q + r = b` holds exactly. Contributions of many
//! values against the same extractor share a grid and therefore sum without
//! rounding error, which is the core mechanism behind reproducible
//! summation (Ogita, Rump & Oishi 2004; Demmel & Nguyen 2013/2015).

use crate::float::ReproFloat;

/// Splits `b` against extractor `m` into `(q, r)` with `q + r == b` exactly,
/// `q` an integer multiple of `ulp(m)`.
///
/// Correctness requires `|b| < 2^{W-1} · ulp(m)` relative to the extractor's
/// format so that `m ⊕ b` cannot change `m`'s exponent; the accumulators in
/// this crate guarantee that invariant via the bin ladder.
///
/// ```
/// use rfa_core::eft::extract;
/// // Figure 1 of the paper: extractor 1024, value 179.25 (m = 52 here, so
/// // nothing is lost; with a coarser grid the remainder becomes non-zero).
/// let (q, r) = extract(1.5f64 * 1024.0, 179.25);
/// assert_eq!(q + r, 179.25);
/// ```
#[inline(always)]
pub fn extract<T: ReproFloat>(m: T, b: T) -> (T, T) {
    let s = m + b;
    let q = s - m;
    let r = b - q;
    (q, r)
}

/// Error-free product via FMA: `a · b = hi + lo` exactly, `hi = a ⊗ b`.
///
/// Valid whenever `a ⊗ b` neither overflows nor loses bits to denormal
/// underflow — in particular whenever both factors are integer multiples
/// of a common power-of-two grid `g` and the exact product stays finite,
/// in which case `hi` and `lo` are themselves multiples of `g` (the
/// property the scaled deposit of [`crate::repro::ReproSum::add_scaled`]
/// relies on).
#[inline]
pub fn two_product<T: ReproFloat>(a: T, b: T) -> (T, T) {
    let hi = a * b;
    let lo = a.mul_add_(b, -hi);
    (hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_is_error_free() {
        // Against extractor 1.5·2^10: grid is 2^(10-52).
        let m = 1.5 * f64::exp2i(10);
        for b in [179.25f64, -56.0625, 30.390625, 1e-30, -0.0, 0.0] {
            let (q, r) = extract(m, b);
            assert_eq!(q + r, b, "b = {b}");
            // q is a multiple of ulp(m) = 2^(10-52).
            let ulp = f64::exp2i(10 - 52);
            assert_eq!((q / ulp).fract(), 0.0);
        }
    }

    #[test]
    fn extract_toy_example_from_figure_1() {
        // The paper's Figure 1 uses an 11-bit mantissa; we emulate the grid
        // by picking an extractor whose ulp is 1/16 in f64: e = 52 - 4.
        let m = 1.5 * f64::exp2i(48);
        let values = [179.25, 56.0625, 30.390625];
        let mut q_sum = 0.0;
        let mut r_sum_exact: f64 = 0.0;
        for &b in &values {
            let (q, r) = extract(m, b);
            q_sum += q; // exact: all multiples of 2^-4
            r_sum_exact += r;
        }
        assert_eq!(q_sum + r_sum_exact, 179.25 + 56.0625 + 30.390625);
    }

    #[test]
    fn contributions_sum_order_independently() {
        let m = 1.5 * f64::exp2i(20);
        let values = [0.1, 0.7, -0.3, 123.456, -99.9, 3.25e-5];
        let forward: f64 = values.iter().map(|&b| extract(m, b).0).sum();
        let backward: f64 = values.iter().rev().map(|&b| extract(m, b).0).sum();
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn two_product_is_error_free() {
        // k·v with k an integer and v on a power-of-two grid: hi + lo
        // recovers the exact product, and both halves stay on the grid.
        for (k, v) in [
            (3.0f64, 0.1),
            (1_000_003.0, 1.0 / 3.0),
            ((1u64 << 51) as f64, 1.25e-300),
            (7.0, -0.062_5),
        ] {
            let (hi, lo) = two_product(k, v);
            assert_eq!(hi, k * v);
            // Exactness cross-check through integer arithmetic on the
            // mantissas: hi + lo == k·v with no rounding at all.
            assert_eq!(k.mul_add(v, -hi), lo);
            assert_eq!(hi + lo, k * v); // lo below half ulp(hi)
        }
        let (hi, lo) = two_product(4096.0f32, 0.1f32);
        assert_eq!(hi + lo, 4096.0f32 * 0.1f32);
        assert_eq!(4096.0f32.mul_add(0.1, -hi), lo);
    }
}

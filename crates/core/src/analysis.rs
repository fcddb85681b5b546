//! A-priori error bounds for conventional and reproducible summation
//! (paper §VI-B, Eq. 5 and Eq. 6).
//!
//! These are the closed-form bounds evaluated in Table II. They bound the
//! *absolute* error of a sum of `n` values:
//!
//! * conventional recursive summation (Demmel & Nguyen 2013):
//!   `e_conv = (n - 1) · u · Σ|bᵢ|`, with `u = ε/2` the unit roundoff
//!   (`2^-53` for `f64`, the value Table II's figures imply);
//! * reproducible summation with `L` levels and extractor spacing `W`
//!   (Demmel & Nguyen 2015, identical for the paper's variant):
//!   `e_rsum = n · 2^{(1-L)·W - 1} · max|bᵢ|`.
//!
//! The reproducible bound is up to `2^{W-1}` more pessimistic than observed
//! errors (§VI-B); both bounds are reported alongside measured errors by
//! the Table II bench.

use crate::float::ReproFloat;

/// Eq. 5: error bound of conventional (recursive) floating-point summation,
/// given `n` and the sum of absolute values.
pub fn conventional_bound<T: ReproFloat>(n: usize, sum_abs: f64) -> f64 {
    (n.saturating_sub(1)) as f64 * (T::EPSILON.to_f64() / 2.0) * sum_abs
}

/// Eq. 6: error bound of reproducible summation with `levels` levels, given
/// `n` and the maximum absolute input value.
///
/// This is the paper's constant, which assumes the first extractor
/// exponent is chosen minimally for `max_abs` (`f = E + m - W + 2`). A
/// *W-spaced anchored ladder* (ours, and ReproBLAS's) quantizes the
/// extractor exponent upward by up to `W - 1`, which at the deepest level
/// costs at most one extra bit: use [`reproducible_bound_anchored`] when
/// bounding this crate's accumulators.
pub fn reproducible_bound<T: ReproFloat>(n: usize, levels: usize, max_abs: f64) -> f64 {
    let exp = (1 - levels as i32) * T::W - 1;
    n as f64 * exp2(exp) * max_abs
}

/// Error bound of [`crate::ReproSum`] (anchored-ladder variant): Eq. 6
/// with the ladder-quantization factor 2. The top rung's ulp satisfies
/// `ulp ≤ 2·max|b|` (a value just above the next rung's deposit limit gets
/// a grid twice its magnitude), so the deepest level's half-ulp — the
/// per-value truncation — is `≤ n · 2^{(1-L)·W} · max|b|`.
pub fn reproducible_bound_anchored<T: ReproFloat>(n: usize, levels: usize, max_abs: f64) -> f64 {
    2.0 * reproducible_bound::<T>(n, levels, max_abs)
}

fn exp2(e: i32) -> f64 {
    // Wide-range 2^e in f64 (bounds may underflow the format being
    // analyzed; the caller compares in f64).
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::exp2i(e) // denormal-aware
    }
}

/// All Table II bound columns for one experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ErrorBounds {
    pub conventional: f64,
    pub rsum: [f64; 3], // L = 1, 2, 3
}

/// Evaluates both bounds for a concrete input set.
pub fn bounds_for<T: ReproFloat>(values: &[T]) -> ErrorBounds {
    let n = values.len();
    let sum_abs: f64 = values.iter().map(|v| v.abs().to_f64()).sum();
    let max_abs: f64 = values.iter().map(|v| v.abs().to_f64()).fold(0.0, f64::max);
    ErrorBounds {
        conventional: conventional_bound::<T>(n, sum_abs),
        rsum: [
            reproducible_bound::<T>(n, 1, max_abs),
            reproducible_bound::<T>(n, 2, max_abs),
            reproducible_bound::<T>(n, 3, max_abs),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_shape_u12_n1000() {
        // Paper Table II, double precision, U[1,2), n = 10^3:
        // conventional ≈ 1.7e-10, L=1 ≈ 1.0e3, L=2 ≈ 9.1e-10, L=3 ≈ 8.3e-22.
        let n = 1000;
        let sum_abs = 1.5 * n as f64; // E[|b|] = 1.5 for U[1,2)
        let max_abs = 2.0;
        let conv = conventional_bound::<f64>(n, sum_abs);
        assert!((conv / 1.7e-10 - 1.0).abs() < 0.05, "conv = {conv:e}");
        let l1 = reproducible_bound::<f64>(n, 1, max_abs);
        assert!((5e2..5e3).contains(&l1), "l1 = {l1:e}");
        let l2 = reproducible_bound::<f64>(n, 2, max_abs);
        assert!((5e-10..5e-9).contains(&l2), "l2 = {l2:e}");
        let l3 = reproducible_bound::<f64>(n, 3, max_abs);
        assert!((1e-22..2e-21).contains(&l3), "l3 = {l3:e}");
    }

    #[test]
    fn bounds_scale_linearly_with_n() {
        let a = reproducible_bound::<f64>(1000, 2, 1.0);
        let b = reproducible_bound::<f64>(1_000_000, 2, 1.0);
        assert!((b / a - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn f32_bounds_use_f32_parameters() {
        // W = 18 for f32: L=2 bound = n · 2^-19 · max.
        let b = reproducible_bound::<f32>(1024, 2, 1.0);
        assert_eq!(b, 1024.0 * 2f64.powi(-19));
        let c = conventional_bound::<f32>(2, 1.0);
        assert_eq!(c, f32::EPSILON as f64 / 2.0);
    }

    #[test]
    fn anchored_bound_is_twice_eq6() {
        assert_eq!(
            reproducible_bound_anchored::<f64>(100, 2, 3.5),
            2.0 * reproducible_bound::<f64>(100, 2, 3.5)
        );
    }

    #[test]
    fn anchored_bound_covers_worst_single_value() {
        // The adversarial placement: a value just above a rung's deposit
        // limit gets a level-0 grid of up to 2x its magnitude; with L = 2
        // the residual after level 1 is up to max · 2^-W — within the
        // anchored bound, above the plain Eq. 6 one.
        let v = -53.38886026755796f64; // regression case from proptest
        let mut acc = crate::ReproSum::<f64, 2>::new();
        acc.add(v);
        let err = (acc.value() - v).abs();
        assert!(err <= reproducible_bound_anchored::<f64>(1, 2, v.abs()));
        assert!(err > reproducible_bound::<f64>(1, 2, v.abs()));
    }

    #[test]
    fn bounds_for_summarizes_input() {
        let values = [1.0f64, -2.0, 0.5];
        let b = bounds_for(&values);
        assert_eq!(b.conventional, conventional_bound::<f64>(3, 3.5));
        assert_eq!(b.rsum[1], reproducible_bound::<f64>(3, 2, 2.0));
        assert!(b.rsum[0] > b.rsum[1] && b.rsum[1] > b.rsum[2]);
    }
}

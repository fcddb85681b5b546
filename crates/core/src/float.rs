//! Floating-point format parameters and bit-level helpers.
//!
//! The reproducible summation algorithm is generic over the IEEE-754 binary
//! format it sums. This module defines the [`ReproFloat`] trait carrying the
//! per-format constants of the paper (Table I):
//!
//! * `m` — number of stored mantissa bits ([`ReproFloat::MANTISSA_BITS`]),
//! * `W` — log2 of the ratio between consecutive extractors
//!   ([`ReproFloat::W`]; the paper recommends 18 for single and 40 for double
//!   precision, §III-C),
//! * `V` — SIMD register width in lanes ([`ReproFloat::LANES`]),
//! * `NB` — block size between carry-bit propagations
//!   ([`ReproFloat::BLOCK`], bounded by `2^(m - W - 1)`, §III-D),
//!
//! plus the *bin ladder*: a fixed, format-global grid of extractor exponents
//! `e(i) = ANCHOR_EXP - i·W`. Anchoring the ladder globally (instead of at
//! the first input value, as the paper's exposition allows) makes the chosen
//! grid a pure function of `max |input|` and is what guarantees reproducible
//! results across arbitrary input permutations and partitionings (see
//! DESIGN.md §3).

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An IEEE-754 binary floating-point type usable with the reproducible
/// accumulators. Implemented for `f32` and `f64` (sealed).
pub trait ReproFloat:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Send
    + Sync
    + 'static
    + sealed::Sealed
{
    /// Number of stored mantissa bits `m` (23 for `f32`, 52 for `f64`).
    const MANTISSA_BITS: i32;
    /// Extractor spacing `W` (paper §III-C: 18 for single, 40 for double).
    const W: i32;
    /// SIMD width `V` in lanes (paper §III-D: 8 for single, 4 for double on
    /// AVX; we keep the same logical widths).
    const LANES: usize;
    /// Deposits per lane between carry-bit propagations (`NB`), bounded by
    /// `2^(m - W - 1)` (paper §III-D).
    const BLOCK: usize;
    /// Exponent of the topmost bin's extractor ufp.
    const ANCHOR_EXP: i32;
    /// Number of rungs in the bin ladder; the bottom rung stays within the
    /// normal exponent range so extractors are never denormal.
    const NUM_BINS: usize;
    /// Inputs with magnitude `>= 2^HUGE_EXP` cannot be binned without
    /// overflowing the top extractor and are deterministically treated as
    /// overflow (±∞). `HUGE_EXP = ANCHOR_EXP - m + W - 1`.
    const HUGE_EXP: i32;

    const ZERO: Self;
    const ONE: Self;
    /// Machine epsilon `2^-m`, the gap above 1.0. The paper's Eq. 5 uses
    /// the unit roundoff, half of it.
    const EPSILON: Self;

    fn abs(self) -> Self;
    /// IEEE `maxNum` (vectorizes to `maxps`/`maxpd`; NaN handling is the
    /// hardware's — callers detect NaN separately).
    fn max_(self, other: Self) -> Self;
    /// Fused multiply-add `self·a + b` with a single rounding (required by
    /// the error-free product [`crate::eft::two_product`]).
    fn mul_add_(self, a: Self, b: Self) -> Self;
    fn is_nan(self) -> bool;
    fn is_finite(self) -> bool;
    fn is_infinite(self) -> bool;
    fn is_sign_negative(self) -> bool;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn from_i64(v: i64) -> Self;
    /// Round to nearest integer, ties to even (used by carry propagation;
    /// the argument is always an exact small multiple of 0.25 there, so the
    /// tie rule only matters for determinism, which any fixed rule gives).
    fn round_ties_even_(self) -> Self;
    fn to_i64(self) -> i64;
    fn nan() -> Self;
    fn infinity() -> Self;
    fn neg_infinity() -> Self;

    /// `2^e` with saturation: `0` below the denormal range, `+∞` above
    /// `E_max`. Exact for every representable power of two, including
    /// denormal ones.
    fn exp2i(e: i32) -> Self;

    /// `floor(log2 |x|)` for finite non-zero `x` (denormal-aware).
    fn exponent(self) -> i32;

    /// Exponent of the extractor ufp for ladder rung `bin`.
    #[inline]
    fn bin_exp(bin: usize) -> i32 {
        Self::ANCHOR_EXP - (bin as i32) * Self::W
    }

    /// The extractor `M = 1.5 · 2^{e(bin)}` for a ladder rung. For the
    /// out-of-range sentinel rung (`bin >= NUM_BINS`) this returns the *top*
    /// extractor: remainders reaching that depth are guaranteed to be below
    /// half its ulp, so they extract to exactly zero and the level stays
    /// empty (see `ReproSum::deposit`).
    #[inline]
    fn extractor(bin: usize) -> Self {
        let bin = if bin >= Self::NUM_BINS { 0 } else { bin };
        Self::from_f64(1.5) * Self::exp2i(Self::bin_exp(bin))
    }

    /// The carry unit `0.25 · 2^{e(bin)}` (paper §III-C).
    #[inline]
    fn carry_unit(bin: usize) -> Self {
        Self::exp2i(Self::bin_exp(bin) - 2)
    }

    /// Deposit limit of a rung: values with `|b| <` this limit can be
    /// deposited at the rung without invalidating the extraction
    /// (`2^{W-1} · ulp(M)`, the condition of Algorithm 2 line 4).
    #[inline]
    fn deposit_limit(bin: usize) -> Self {
        Self::exp2i(Self::bin_exp(bin) - Self::MANTISSA_BITS + Self::W - 1)
    }

    /// Deepest rung whose deposit limit exceeds `|b|` (the most precise
    /// valid placement). `None` if `|b|` is too large for even the top rung
    /// (overflow). `b` must be finite and non-zero.
    #[inline]
    fn bin_for(b: Self) -> Option<usize> {
        let needed = b.exponent() + Self::MANTISSA_BITS - Self::W + 2;
        let slack = Self::ANCHOR_EXP - needed;
        if slack < 0 {
            return None;
        }
        Some(((slack / Self::W) as usize).min(Self::NUM_BINS - 1))
    }
}

macro_rules! impl_repro_float {
    (
        $t:ty, bits = $b:ty, mant = $m:expr, w = $w:expr, lanes = $v:expr,
        block = $nb:expr, bias = $bias:expr, anchor = $anchor:expr,
        min_norm = $min_norm:expr, min_denorm = $min_denorm:expr
    ) => {
        impl ReproFloat for $t {
            const MANTISSA_BITS: i32 = $m;
            const W: i32 = $w;
            const LANES: usize = $v;
            const BLOCK: usize = $nb;
            const ANCHOR_EXP: i32 = $anchor;
            const NUM_BINS: usize = ((($anchor) - ($min_norm)) / $w + 1) as usize;
            const HUGE_EXP: i32 = $anchor - $m + $w - 1;

            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn max_(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn mul_add_(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn is_infinite(self) -> bool {
                <$t>::is_infinite(self)
            }
            #[inline(always)]
            fn is_sign_negative(self) -> bool {
                <$t>::is_sign_negative(self)
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn round_ties_even_(self) -> Self {
                <$t>::round_ties_even(self)
            }
            #[inline(always)]
            fn to_i64(self) -> i64 {
                self as i64
            }
            #[inline(always)]
            fn nan() -> Self {
                <$t>::NAN
            }
            #[inline(always)]
            fn infinity() -> Self {
                <$t>::INFINITY
            }
            #[inline(always)]
            fn neg_infinity() -> Self {
                <$t>::NEG_INFINITY
            }

            #[inline]
            fn exp2i(e: i32) -> Self {
                if e >= $min_norm {
                    if e > $bias {
                        <$t>::INFINITY
                    } else {
                        <$t>::from_bits(((e + $bias) as $b) << $m)
                    }
                } else if e >= $min_denorm {
                    <$t>::from_bits((1 as $b) << (e - $min_denorm))
                } else {
                    0.0
                }
            }

            #[inline]
            fn exponent(self) -> i32 {
                debug_assert!(self.is_finite() && self != 0.0);
                let bits = self.to_bits();
                let exp_field = ((bits >> $m) & ((1 << (<$b>::BITS - 1 - $m)) - 1)) as i32;
                if exp_field != 0 {
                    exp_field - $bias
                } else {
                    // Denormal: value = frac · 2^min_denorm.
                    let frac = bits & (((1 as $b) << $m) - 1);
                    let msb = (<$b>::BITS - 1 - frac.leading_zeros()) as i32;
                    msb + $min_denorm
                }
            }
        }
    };
}

// The f64 anchor is 1018 (not the maximal 1022) so that the ladder's bottom
// rung lands exactly on e = -1022, whose ulp is the minimal denormal
// 2^-1074: every non-zero f64 then lies on some rung's grid and even a
// single denormal input round-trips exactly. The f32 anchor 126 already has
// this property (126 - 14·18 = -126, ulp 2^-149).
impl_repro_float!(
    f64,
    bits = u64,
    mant = 52,
    w = 40,
    lanes = 4,
    block = 1024,
    bias = 1023,
    anchor = 1018,
    min_norm = -1022,
    min_denorm = -1074
);
impl_repro_float!(
    f32,
    bits = u32,
    mant = 23,
    w = 18,
    lanes = 8,
    block = 16,
    bias = 127,
    anchor = 126,
    min_norm = -126,
    min_denorm = -149
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_constants() {
        // f64: bins every 40 exponents from 1018 down to exactly -1022.
        assert_eq!(f64::NUM_BINS, 52);
        assert_eq!(f64::bin_exp(0), 1018);
        assert_eq!(f64::bin_exp(51), -1022);
        // The bottom rung's grid is the minimal denormal: nothing is ever
        // below the ladder.
        assert_eq!(f64::exp2i(f64::bin_exp(51) - 52), f64::from_bits(1));
        assert_eq!(f32::exp2i(f32::bin_exp(14) - 23), f32::from_bits(1));
        // f32
        assert_eq!(f32::NUM_BINS, 15);
        assert_eq!(f32::bin_exp(14), 126 - 14 * 18);
        assert!(f32::bin_exp(f32::NUM_BINS - 1) >= -126);
        // NB respects the paper's bound 2^(m - W - 1):
        // f64: 2^(52-40-1) = 2048, f32: 2^(23-18-1) = 16.
        let f64_limit = 1usize << (f64::MANTISSA_BITS - f64::W - 1);
        let f32_limit = 1usize << (f32::MANTISSA_BITS - f32::W - 1);
        assert!(f64::BLOCK <= f64_limit);
        assert!(f32::BLOCK <= f32_limit);
    }

    #[test]
    fn exp2i_covers_full_range() {
        assert_eq!(f64::exp2i(0), 1.0);
        assert_eq!(f64::exp2i(10), 1024.0);
        assert_eq!(f64::exp2i(-1), 0.5);
        assert_eq!(f64::exp2i(1023), f64::from_bits(2046u64 << 52)); // 2^1023
        assert_eq!(f64::exp2i(-1022), f64::MIN_POSITIVE);
        assert_eq!(f64::exp2i(-1074), 5e-324);
        assert_eq!(f64::exp2i(-1075), 0.0);
        assert_eq!(f64::exp2i(1024), f64::INFINITY);
        assert_eq!(f32::exp2i(-149), f32::from_bits(1));
        assert_eq!(f32::exp2i(-150), 0.0);
        assert_eq!(f32::exp2i(128), f32::INFINITY);
    }

    #[test]
    fn exponent_handles_denormals() {
        assert_eq!(1.0f64.exponent(), 0);
        assert_eq!(1.5f64.exponent(), 0);
        assert_eq!(2.0f64.exponent(), 1);
        assert_eq!(0.75f64.exponent(), -1);
        assert_eq!((-8.0f64).exponent(), 3);
        assert_eq!(5e-324f64.exponent(), -1074);
        assert_eq!((5e-324f64 * 4.0).exponent(), -1072);
        assert_eq!(f32::from_bits(1).exponent(), -149);
        assert_eq!(f64::MAX.exponent(), 1023);
    }

    #[test]
    fn extractor_and_units_are_exact_powers() {
        for bin in 0..f64::NUM_BINS {
            let e = f64::bin_exp(bin);
            let m = f64::extractor(bin);
            assert_eq!(m, 1.5 * f64::exp2i(e), "bin {bin}");
            assert!(m.is_finite());
            assert_eq!(f64::carry_unit(bin), f64::exp2i(e - 2));
        }
        for bin in 0..f32::NUM_BINS {
            let m = f32::extractor(bin);
            assert!(m.is_finite() && m > 0.0, "bin {bin}: {m}");
        }
    }

    #[test]
    fn bin_for_places_values_within_limits() {
        for v in [1.0f64, 3.5, 1e-300, 1e300, f64::from_bits(1), 123456.789] {
            let bin = f64::bin_for(v).unwrap();
            assert!(v.abs() < f64::deposit_limit(bin), "value {v} bin {bin}");
            // Deepest valid: one rung deeper must be invalid (unless clamped
            // at the ladder bottom).
            if bin + 1 < f64::NUM_BINS {
                assert!(
                    v.abs() >= f64::deposit_limit(bin + 1),
                    "value {v} should not fit one rung deeper"
                );
            }
        }
        // Huge values cannot be binned.
        assert!(f64::bin_for(f64::MAX).is_none());
        assert!(f64::bin_for(f64::exp2i(f64::HUGE_EXP)).is_none());
        assert!(f64::bin_for(f64::exp2i(f64::HUGE_EXP - 1)).is_some());
    }

    #[test]
    fn deposit_limit_equals_half_ulp_of_previous_rung() {
        // This identity is what makes streaming ladder promotion
        // order-independent: a value below its natural rung's limit
        // contributes exactly zero to every shallower rung.
        for bin in 1..f64::NUM_BINS {
            let half_ulp_prev = f64::exp2i(f64::bin_exp(bin - 1) - 52 - 1);
            assert_eq!(f64::deposit_limit(bin), half_ulp_prev, "bin {bin}");
        }
    }
}

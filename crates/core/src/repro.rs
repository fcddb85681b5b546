//! The reproducible, associative floating-point accumulator
//! `repro<ScalarT, L>` (paper §III-C and §IV, Algorithm 2).
//!
//! [`ReproSum<T, L>`] holds `L` levels of running sums and carry-bit
//! counters. Each level `l` owns a rung of the format's global bin ladder
//! (see [`crate::float`]) with extractor `M_l = 1.5 · 2^{e_l}`,
//! `e_l = e_top - l·W`. Adding a value performs the extraction cascade of
//! Algorithm 2 lines 8–13:
//!
//! ```text
//! r⁰ = b;   qˡ = (Mˡ ⊕ rˡ⁻¹) ⊖ Mˡ;   Aˡ += qˡ;   rˡ = rˡ⁻¹ ⊖ qˡ
//! ```
//!
//! Every operation is exact: `qˡ` is a multiple of `ulp(Mˡ)` and the
//! accumulated `Aˡ` stays far below `2^{m+1} · ulp(Mˡ)` thanks to carry-bit
//! propagation every `NB` deposits (lines 14–18). The paper's running sum
//! `S(l)` is exactly `Mˡ + Aˡ`; keeping the extractor constant and the
//! accumulation separate is the *binned* formulation (ReproBLAS), which
//! strengthens the running-sum formulation: round-to-nearest-even
//! tie-breaking then never depends on previously accumulated bits, so the
//! final state is a pure function of the input *multiset* — bit-identical
//! for any permutation, chunking, thread schedule or merge tree.
//!
//! ## Accuracy
//!
//! With `L` levels the result carries roughly `L·W` significant bits
//! below `max |input|` (error bound Eq. 6): `L = 2` is comparable to
//! conventional summation, `L = 3` is far more accurate (Table II).
//!
//! ## Special values and limits
//!
//! NaN and ±∞ inputs follow IEEE addition semantics via a sticky state.
//! Finite inputs with `|b| ≥ 2^HUGE_EXP` (`2^1005` for f64, `2^120` for
//! f32) cannot be binned and are deterministically treated as overflow
//! (sticky ±∞) — documented domain limit, far outside realistic data.

use crate::float::ReproFloat;

/// Sticky special-value state (IEEE addition semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Special {
    /// All inputs so far are finite and in range.
    Finite = 0,
    /// Positive overflow / +∞ seen.
    PosInf = 1,
    /// Negative overflow / −∞ seen.
    NegInf = 2,
    /// NaN seen, or both infinities.
    Nan = 3,
}

impl Special {
    #[inline]
    fn combine(self, other: Special) -> Special {
        use Special::*;
        match (self, other) {
            (Finite, s) | (s, Finite) => s,
            (Nan, _) | (_, Nan) => Nan,
            (PosInf, PosInf) => PosInf,
            (NegInf, NegInf) => NegInf,
            (PosInf, NegInf) | (NegInf, PosInf) => Nan,
        }
    }
}

/// A bit-reproducible, associative floating-point accumulator with `L`
/// levels of accuracy (the paper's `repro<ScalarT, L>` data type).
///
/// `ReproSum` supports only addition — in a real system it is an internal
/// type of the execution layer (paper footnote 7). It is a drop-in
/// aggregate state: `+=` a scalar, `+=` another accumulator (exact,
/// associative merge), and [`value`](Self::value)/[`finalize`](Self::finalize)
/// to round to the scalar type.
///
/// ```
/// use rfa_core::ReproSum;
/// let mut a: ReproSum<f64, 2> = ReproSum::new();
/// a += 2.5e-16;
/// a += 0.999999999999999;
/// a += 2.5e-16;
/// let mut b: ReproSum<f64, 2> = ReproSum::new();
/// b += 0.999999999999999; // any other order ...
/// b += 2.5e-16;
/// b += 2.5e-16;
/// assert_eq!(a.value().to_bits(), b.value().to_bits()); // ... same bits
/// ```
///
/// The state is the sums, the carries, the rung, a deposit count and the
/// special state — `16 + 16·L` bytes for `f64`. Level `l`'s extractor
/// `M_l = extractor(top + l)` and the deposit limit of rung `top` are
/// functions of `top`, read from the format's tables
/// ([`ReproFloat::EXTRACTORS`], [`ReproFloat::DEPOSIT_LIMITS`]) instead of
/// stored.
#[derive(Clone, Debug)]
pub struct ReproSum<T: ReproFloat, const L: usize> {
    /// Per-level accumulated contributions `A_l` (exact multiples of the
    /// level's ulp; the paper's `S(l)` is `extractor(top + l) + sums[l]`).
    sums: [T; L],
    /// Per-level carry-bit counters `C(l)`.
    carries: [i64; L],
    /// Ladder rung owned by level 0 (decreases as larger values arrive).
    top: u32,
    /// Deposits since the last carry propagation (Algorithm 3's `NB` tile).
    pending: u32,
    special: Special,
}

impl<T: ReproFloat, const L: usize> Default for ReproSum<T, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ReproFloat, const L: usize> ReproSum<T, L> {
    /// Creates an empty accumulator (sums to `+0.0`).
    ///
    /// The ladder starts at the bottom rung; the first large-enough input
    /// promotes it, so an empty accumulator is the exact identity element
    /// of [`merge`](Self::merge).
    pub fn new() -> Self {
        const { assert!(L >= 1 && L <= 8, "supported level counts are 1..=8") };
        ReproSum {
            sums: [T::ZERO; L],
            carries: [0; L],
            top: (T::NUM_BINS - 1) as u32,
            pending: 0,
            special: Special::Finite,
        }
    }

    /// The deposit limit of the top rung (Algorithm 2 line 4): values with
    /// a smaller magnitude deposit without a promotion.
    #[inline(always)]
    fn threshold(&self) -> T {
        T::DEPOSIT_LIMITS[self.top as usize]
    }

    /// Adds one value (Algorithm 2 body).
    #[inline]
    pub fn add(&mut self, b: T) {
        self.add_levels::<L>(b);
    }

    /// [`add`](Self::add) with the extraction cascade cut to the first `N`
    /// levels (all `L` when `N ≥ L`), for a caller that knows how deep its
    /// values reach: bit-identical to `add` whenever `N` is at least
    /// [`crate::simd::depth`] of the top rung and `|b|`, because every
    /// deeper level would receive exactly `+0.0` (DESIGN.md S3). The
    /// threshold test, the cold path — specials, overflow and promotion,
    /// which runs all `L` levels — the deposit count and carry propagation
    /// are `add`'s. A debug build asserts the bound.
    #[inline]
    pub fn add_levels<const N: usize>(&mut self, b: T) {
        // NaN/∞ fail this comparison and take the cold path, as do values
        // needing a ladder promotion (Algorithm 2 line 4).
        if b.abs() < self.threshold() {
            debug_assert!(
                b == T::ZERO || N >= crate::simd::depth(self.top as usize, b.abs(), L),
                "{N} levels cannot hold every bit of a value under rung {}",
                self.top
            );
            self.deposit::<N>(b);
        } else {
            self.add_cold(b);
        }
    }

    /// The extraction cascade (Algorithm 2 lines 8–13) over the first `N`
    /// levels. Caller guarantees `|b| < threshold` (so `b` is finite and
    /// fits the top rung).
    #[inline]
    fn deposit<const N: usize>(&mut self, b: T) {
        // Levels whose rung falls off the bottom of the ladder read the
        // sentinel top extractor: the remainder reaching them is below
        // half its ulp, extracts to zero, and the level stays empty.
        let ext = T::extractor_row::<L>(self.top as usize);
        let mut r = b;
        for (l, &m) in ext.iter().enumerate().take(N) {
            let s = m + r;
            let q = s - m;
            self.sums[l] += q;
            r -= q;
        }
        self.pending += 1;
        if self.pending as usize >= T::BLOCK {
            self.propagate_carries();
        }
    }

    /// Cold path: special values, overflow-magnitude values, and ladder
    /// promotion for values exceeding the top rung's deposit limit.
    #[cold]
    fn add_cold(&mut self, b: T) {
        if self.admit(b) {
            self.deposit::<L>(b);
        }
    }

    /// Admits a value at or past the top rung's deposit limit (or NaN),
    /// returning whether it deposits: NaN, ±∞ and values too large to bin
    /// (documented overflow) fold into the sticky special state (`false`);
    /// any other value promotes the ladder to its rung (Algorithm 2 lines
    /// 4–7; `true`).
    #[cold]
    fn admit(&mut self, b: T) -> bool {
        if b.is_nan() {
            self.special = self.special.combine(Special::Nan);
            return false;
        }
        let Some(new_top) = (if b.is_infinite() { None } else { T::bin_for(b) }) else {
            let s = if b.is_sign_negative() {
                Special::NegInf
            } else {
                Special::PosInf
            };
            self.special = self.special.combine(s);
            return false;
        };
        self.promote(new_top as u32);
        true
    }

    /// Shifts the level window up to `new_top` (Algorithm 2 lines 5–7:
    /// each level demotes by `k` positions, the deepest `k` are discarded —
    /// their content is provably below the deepest surviving rung's
    /// round-off and cannot affect surviving levels in any input order).
    fn promote(&mut self, new_top: u32) {
        debug_assert!(new_top < self.top);
        let k = (self.top - new_top) as usize;
        for l in (0..L).rev() {
            if l >= k {
                self.sums[l] = self.sums[l - k];
                self.carries[l] = self.carries[l - k];
            } else {
                self.sums[l] = T::ZERO;
                self.carries[l] = 0;
            }
        }
        self.top = new_top;
    }

    /// Carry-bit propagation (Algorithm 2 lines 14–18): renormalizes each
    /// level's accumulation into `[-⅛, ⅛] · 2^{e_l}` by moving multiples of
    /// the carry unit `0.25 · 2^{e_l}` into the integer counter `C(l)`.
    /// All arithmetic is exact.
    pub(crate) fn propagate_carries(&mut self) {
        for l in 0..L {
            let bin = self.top as usize + l;
            if bin >= T::NUM_BINS {
                break;
            }
            let unit = T::carry_unit(bin);
            let d = (self.sums[l] / unit).round_ties_even_();
            if d != T::ZERO {
                self.sums[l] -= d * unit;
                self.carries[l] += d.to_i64();
            }
        }
        self.pending = 0;
    }

    /// Adds every element of a slice through the scalar path. See
    /// [`crate::simd::add_slice`] for the vectorized equivalent
    /// (bit-identical result).
    pub fn add_all(&mut self, values: &[T]) {
        for &v in values {
            self.add(v);
        }
    }

    /// Adds `k` copies of `b` in O(L) — **bit-identical** to calling
    /// [`add`](Self::add) `k` times, at any level count.
    ///
    /// Why the rewrite is invisible: the extraction cascade uses *fixed*
    /// extractors, so the per-level contribution `q_l` is a pure function
    /// of `(b, top)` — each of the `k` per-row deposits would add the very
    /// same `q_l` to level `l`, for a per-level total of exactly `k·q_l`.
    /// The scaled deposit reproduces that total in one step: `k·q_l`
    /// splits error-free into `(hi, lo)` via [`crate::eft::two_product`]
    /// (both halves integer multiples of the level's ulp grid), `hi` is
    /// decomposed against the carry unit into an integer carry count plus
    /// a small on-grid remainder — every operation exact — and the level
    /// total `A_l + unit·C_l` lands on precisely the value `k` per-row
    /// deposits reach. The (sums, carries) *split* may differ from the
    /// per-row path (carry propagation timing), but the rounded
    /// [`value`](Self::value) and all [`merge`](Self::merge)s are pure
    /// functions of the per-level totals, so no downstream bit can differ
    /// (see DESIGN.md §26 for the full argument).
    ///
    /// Window evolution and special values match per-row behaviour by
    /// construction: promotion is keyed on `|b|` — exactly what the first
    /// of the `k` adds would do — and the sticky NaN/±∞ states are
    /// idempotent under repetition.
    pub fn add_scaled(&mut self, b: T, k: u64) {
        if k == 0 {
            return;
        }
        if k == 1 {
            self.add(b);
            return;
        }
        // Specials and ladder promotion: what the first per-row add does
        // (the remaining k-1 adds see the already-promoted window).
        // `!(|b| < t)` rather than `|b| >= t`: NaN fails both ordered
        // comparisons and must take this branch.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(b.abs() < self.threshold()) && !self.admit(b) {
            return;
        }
        // k must be exactly representable in T for the error-free product
        // (2^(m-1) keeps a bit of slack); larger multiplicities split into
        // exact chunks — per-level totals add exactly, so chunking is as
        // invisible as the scaled deposit itself. Should k·q still
        // overflow (|b| within a factor ~2^m of the binnable limit,
        // ≳ 2^950 for f64), halving the chunk until the product fits
        // keeps the cost logarithmic; a chunk of 1 is a plain add.
        let mut chunk = 1u64 << (T::MANTISSA_BITS - 1);
        let mut remaining = k;
        while remaining > 0 {
            let c = remaining.min(chunk);
            if c > 1 && !self.deposit_scaled(b, c) {
                chunk = c / 2;
                continue;
            }
            if c == 1 {
                self.add(b);
            }
            remaining -= c;
        }
    }

    /// One scaled deposit of `k·b` (caller guarantees `|b| < threshold`
    /// and `k ≤ 2^(m-1)`). Returns `false` — leaving the state untouched
    /// — if any per-level product `k·q_l` would overflow.
    fn deposit_scaled(&mut self, b: T, k: u64) -> bool {
        debug_assert!(b.abs() < self.threshold());
        // Extract once: the q_l each of the k per-row deposits would add.
        let ext = T::extractor_row::<L>(self.top as usize);
        let kf = T::from_i64(k as i64); // exact: k ≤ 2^(m-1)
        let mut q = [T::ZERO; L];
        let mut r = b;
        for (qs, &m) in q.iter_mut().zip(ext) {
            let s = m + r;
            *qs = s - m;
            r -= *qs;
        }
        // Overflow check before mutating anything (level 0 dominates, but
        // checking all L is cheap and obviously right).
        if q.iter().any(|&ql| !(kf * ql).is_finite()) {
            return false;
        }
        for (l, &ql) in q.iter().enumerate() {
            let bin = self.top as usize + l;
            if bin >= T::NUM_BINS {
                // Sentinel levels extract exactly zero; nothing to scale.
                break;
            }
            // k·q_l = hi + lo exactly; both are multiples of the level's
            // ulp grid g_l (q_l = j·g_l, so hi = fl(k·j)·g_l and
            // lo = (k·j − fl(k·j))·g_l, with |k·j| ≤ 2^(m−1)·2^(W−1) well
            // below the 2·m-bit exact-integer range of the FMA residual).
            let (hi, lo) = crate::eft::two_product(kf, ql);
            // Decompose hi against the carry unit 2^(m−2)·g_l: the
            // quotient is an exact small ratio of powers of two times an
            // integer, the rounded count d an exact integer, d·unit and
            // the on-grid remainder exact, |remainder| ≤ unit/2.
            let unit = T::carry_unit(bin);
            let d = (hi / unit).round_ties_even_();
            self.carries[l] += d.to_i64();
            self.sums[l] += hi - d * unit;
            self.sums[l] += lo;
        }
        // Renormalize so later per-row deposits keep their exactness
        // invariant (|A_l| stays below the carry unit).
        self.propagate_carries();
        true
    }

    /// Merges another accumulator into this one. Exact, associative and
    /// commutative: any merge tree over any partitioning of the input
    /// produces bit-identical state.
    pub fn merge(&mut self, other: &Self) {
        self.special = self.special.combine(other.special);
        if other.top < self.top {
            self.promote(other.top);
        }
        let offset = (other.top - self.top) as usize;
        for l in 0..L {
            let target = l + offset;
            if target >= L {
                break;
            }
            // Same absolute rung => same ulp grid => exact addition.
            self.sums[target] += other.sums[l];
            self.carries[target] += other.carries[l];
        }
        self.propagate_carries();
    }

    /// Rounds the accumulated sum to the scalar type without consuming the
    /// accumulator (finalization sum of Eq. 1, evaluated from the deepest
    /// level upward to avoid cancellation).
    pub fn value(&self) -> T {
        match self.special {
            Special::Nan => return T::nan(),
            Special::PosInf => return T::infinity(),
            Special::NegInf => return T::neg_infinity(),
            Special::Finite => {}
        }
        let mut canon = self.clone();
        canon.propagate_carries();
        let mut acc = T::ZERO;
        for l in (0..L).rev() {
            let bin = canon.top as usize + l;
            if bin >= T::NUM_BINS {
                continue;
            }
            let term = canon.sums[l] + T::carry_unit(bin) * T::from_i64(canon.carries[l]);
            acc += term;
        }
        acc
    }

    /// Consumes the accumulator and returns the rounded sum.
    pub fn finalize(self) -> T {
        self.value()
    }

    /// The sticky special-value state.
    pub fn special(&self) -> Special {
        self.special
    }

    /// Canonicalizes and exposes the raw state `(top rung, A_l, C_l)` —
    /// the complete summation state of the paper (§III-C). Two accumulators
    /// fed the same multiset of values expose identical state.
    pub fn canonical_state(&self) -> (u32, [u64; L], [i64; L]) {
        let mut canon = self.clone();
        canon.propagate_carries();
        let mut bits = [0u64; L];
        for (b, s) in bits.iter_mut().zip(canon.sums.iter()) {
            // +0.0 and -0.0 canonicalize to the same bits for comparison.
            let v = if *s == T::ZERO { T::ZERO } else { *s };
            *b = v.to_f64().to_bits();
        }
        (canon.top, bits, canon.carries)
    }

    /// The ladder rung level 0 sits on: the index into the format's bin
    /// ladder ([`crate::float`]), which falls as larger values promote the
    /// window (the empty accumulator sits on the bottom rung,
    /// `NUM_BINS − 1`).
    pub fn top_rung(&self) -> u32 {
        self.top
    }

    pub(crate) fn raw_parts_mut(&mut self) -> (&mut [T; L], &mut [i64; L]) {
        // Used by the vectorized path to fold lane state in exactly.
        let Self { sums, carries, .. } = self;
        (sums, carries)
    }

    /// Rebuilds an accumulator from decoded state (see [`crate::wire`]).
    pub(crate) fn from_raw_state(
        top: u32,
        sums: [T; L],
        carries: [i64; L],
        special: Special,
    ) -> Self {
        let mut acc = Self::new();
        if top < acc.top {
            acc.promote(top);
        }
        acc.sums = sums;
        acc.carries = carries;
        acc.special = special;
        acc
    }

    pub(crate) fn promote_for(&mut self, max_abs: T) -> bool {
        // Ensures the window admits `max_abs`; returns false if it is
        // unbinnable (caller falls back to the scalar cold path).
        match T::bin_for(max_abs) {
            Some(bin) => {
                let bin = bin as u32;
                if bin < self.top {
                    self.promote(bin);
                }
                true
            }
            None => false,
        }
    }
}

impl<T: ReproFloat, const L: usize> core::ops::AddAssign<T> for ReproSum<T, L> {
    #[inline]
    fn add_assign(&mut self, rhs: T) {
        self.add(rhs);
    }
}

impl<T: ReproFloat, const L: usize> core::ops::AddAssign<&ReproSum<T, L>> for ReproSum<T, L> {
    #[inline]
    fn add_assign(&mut self, rhs: &ReproSum<T, L>) {
        self.merge(rhs);
    }
}

impl<T: ReproFloat, const L: usize> core::iter::Sum<T> for ReproSum<T, L> {
    fn sum<I: Iterator<Item = T>>(iter: I) -> Self {
        let mut acc = Self::new();
        for v in iter {
            acc.add(v);
        }
        acc
    }
}

impl<T: ReproFloat, const L: usize> Extend<T> for ReproSum<T, L> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// Convenience: reproducible sum of a slice using the vectorized kernel.
pub fn reproducible_sum<T: ReproFloat, const L: usize>(values: &[T]) -> T {
    let mut acc = ReproSum::<T, L>::new();
    crate::simd::add_slice(&mut acc, values);
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repro_sum2(values: &[f64]) -> f64 {
        let mut acc = ReproSum::<f64, 2>::new();
        acc.add_all(values);
        acc.finalize()
    }

    #[test]
    fn empty_is_positive_zero() {
        let acc = ReproSum::<f64, 3>::new();
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn single_value_roundtrips() {
        for v in [1.0, -2.5, 1e-300, 3.5e300, f64::from_bits(1), -0.1] {
            let mut acc = ReproSum::<f64, 2>::new();
            acc.add(v);
            assert_eq!(acc.value(), v, "value {v}");
        }
        // Note: f32 values beyond 2^HUGE_EXP = 2^120 are a documented domain
        // limit (treated as overflow), so stay below it here. With L = 2 a
        // single f32 value carries only ~W = 18 bits below the top rung's
        // grid (Eq. 6), so exact round-trip needs L = 3; L = 2 must be
        // within the bound.
        for v in [1.0f32, -2.5, 1e-40, 1.0e35, -0.1] {
            let mut acc = ReproSum::<f32, 3>::new();
            acc.add(v);
            assert_eq!(acc.value(), v, "value {v} (L=3)");

            let mut acc = ReproSum::<f32, 2>::new();
            acc.add(v);
            let err = (acc.value() - v).abs() as f64;
            let bound = crate::analysis::reproducible_bound_anchored::<f32>(1, 2, v.abs() as f64);
            assert!(err <= bound, "value {v}: err {err:e} > bound {bound:e}");
        }
    }

    #[test]
    fn permutations_are_bit_identical() {
        let values = [2.5e-16, 0.999_999_999_999_999, 2.5e-16, -1e10, 1e10, 0.25];
        let forward = repro_sum2(&values);
        let mut rev = values;
        rev.reverse();
        assert_eq!(forward.to_bits(), repro_sum2(&rev).to_bits());
        // A rotation mixing large/small arrival order.
        let rotated = [0.25, 2.5e-16, 0.999_999_999_999_999, 2.5e-16, -1e10, 1e10];
        assert_eq!(forward.to_bits(), repro_sum2(&rotated).to_bits());
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 101) as f64 * 0.01 - 0.5)
            .collect();
        let mut whole = ReproSum::<f64, 3>::new();
        whole.add_all(&values);
        let mut left = ReproSum::<f64, 3>::new();
        let mut right = ReproSum::<f64, 3>::new();
        left.add_all(&values[..321]);
        right.add_all(&values[321..]);
        left.merge(&right);
        assert_eq!(whole.value().to_bits(), left.value().to_bits());
        assert_eq!(whole.canonical_state(), left.canonical_state());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = ReproSum::<f64, 2>::new();
        a.add_all(&[1.5, -0.25, 3e-7]);
        let before = a.canonical_state();
        a.merge(&ReproSum::new());
        assert_eq!(before, a.canonical_state());
        let mut b = ReproSum::<f64, 2>::new();
        b.merge(&a);
        assert_eq!(before, b.canonical_state());
    }

    #[test]
    fn ladder_promotion_is_order_independent() {
        // Tiny value first vs. huge value first: the tiny value's natural
        // rung falls outside the surviving window either way.
        let tiny = 2f64.powi(-300);
        let huge = 2f64.powi(300);
        let a = repro_sum2(&[tiny, huge]);
        let b = repro_sum2(&[huge, tiny]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a, huge);
        // Partially overlapping windows (value within W·L of the max).
        let mid = 2f64.powi(300 - 45);
        let c = repro_sum2(&[mid, huge]);
        let d = repro_sum2(&[huge, mid]);
        assert_eq!(c.to_bits(), d.to_bits());
    }

    #[test]
    fn half_ulp_tie_values_are_reproducible() {
        // Values sitting exactly on half-ulp boundaries of the bin grid are
        // the adversarial case for running-sum extractors; the fixed
        // extractor handles them order-independently.
        let base = 2f64.powi(10);
        let tie = 2f64.powi(10 - 53); // half ulp of numbers near 2^10
        let values = [base, tie, tie, -base, tie];
        // a handful of distinct permutations
        let perms: Vec<Vec<f64>> = vec![
            values.to_vec(),
            vec![tie, tie, tie, base, -base],
            vec![tie, base, tie, -base, tie],
            vec![-base, base, tie, tie, tie],
        ];
        let first = repro_sum2(&perms[0]);
        for p in &perms[1..] {
            assert_eq!(first.to_bits(), repro_sum2(p).to_bits(), "perm {p:?}");
        }
    }

    #[test]
    fn carry_propagation_keeps_sums_small() {
        // 1.0 lands on rung e = 22 (carry unit 2^20), so ~2M additions push
        // the level sum well past half a carry unit and carries must fire.
        let mut acc = ReproSum::<f64, 2>::new();
        const N: usize = 2_000_000;
        for _ in 0..N {
            acc.add(1.0);
        }
        assert_eq!(acc.value(), N as f64);
        let (_, _, carries) = acc.canonical_state();
        assert!(carries[0] != 0, "expected carry activity, got {carries:?}");
    }

    #[test]
    fn f64_domain_limit_is_generous() {
        // The documented overflow threshold for f64 is 2^1005 ≈ 3.4e302:
        // everything below sums normally.
        let v = 1e302;
        let mut acc = ReproSum::<f64, 2>::new();
        acc.add(v);
        acc.add(v);
        assert_eq!(acc.value(), 2e302);
        assert_eq!(acc.special(), Special::Finite);
    }

    #[test]
    fn minimal_denormal_roundtrips() {
        // The bottom rung's grid equals the minimal denormal, so even the
        // smallest f64/f32 survive exactly.
        let mut acc = ReproSum::<f64, 1>::new();
        acc.add(f64::from_bits(1));
        assert_eq!(acc.value().to_bits(), 1);
        let mut acc = ReproSum::<f32, 1>::new();
        acc.add(f32::from_bits(1));
        assert_eq!(acc.value().to_bits(), 1);
    }

    #[test]
    fn signed_cancellation_is_exactish() {
        let mut acc = ReproSum::<f64, 2>::new();
        for _ in 0..1000 {
            acc.add(0.1);
            acc.add(-0.1);
        }
        // 0.1 + (-0.1) cancels exactly in every level.
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn specials_follow_ieee() {
        let mut acc = ReproSum::<f64, 2>::new();
        acc.add(f64::INFINITY);
        acc.add(1.0);
        assert_eq!(acc.value(), f64::INFINITY);
        acc.add(f64::NEG_INFINITY);
        assert!(acc.value().is_nan());

        let mut acc = ReproSum::<f64, 2>::new();
        acc.add(f64::NAN);
        assert!(acc.value().is_nan());

        // Huge-but-finite values overflow deterministically.
        let mut acc = ReproSum::<f64, 2>::new();
        acc.add(f64::MAX);
        assert_eq!(acc.value(), f64::INFINITY);
        assert_eq!(acc.special(), Special::PosInf);
    }

    #[test]
    fn denormal_inputs_are_handled() {
        let d = 2f64.powi(-1074);
        let mut acc = ReproSum::<f64, 2>::new();
        for _ in 0..1024 {
            acc.add(d);
        }
        assert_eq!(acc.value(), d * 1024.0);
    }

    #[test]
    fn f32_accumulator_matches_f32_semantics() {
        let values = [1.5f32, -0.25, 1e-20, 3.0e10, -3.0e10];
        let mut acc = ReproSum::<f32, 3>::new();
        acc.add_all(&values);
        let mut rev = values;
        rev.reverse();
        let mut acc2 = ReproSum::<f32, 3>::new();
        acc2.add_all(&rev);
        assert_eq!(acc.value().to_bits(), acc2.value().to_bits());
    }

    #[test]
    fn accuracy_l2_close_to_exact() {
        // Sum of n copies of 0.1 — conventional summation drifts, L=2 stays
        // within the Eq. 6 bound.
        let n = 100_000;
        let values = vec![0.1f64; n];
        let repro = repro_sum2(&values);
        let exact = n as f64 * 0.1; // representable product within 1 ulp
        let rel = ((repro - exact) / exact).abs();
        assert!(rel < 1e-12, "rel err {rel}");
    }

    #[test]
    fn add_scaled_is_bit_identical_to_per_row_adds() {
        // Every (value, multiplicity) pair: one scaled deposit must land
        // on the bits k per-row adds produce — including values that
        // promote the ladder, denormals, and k crossing carry blocks.
        let values = [
            0.1f64,
            -3.25,
            2.5e-16,
            1e300,
            5e-324,
            0.999_999_999_999_999,
            -0.0,
        ];
        let ks = [0u64, 1, 2, 3, 7, 100, 1023, 1024, 1025, 5000];
        for &v in &values {
            for &k in &ks {
                let mut scaled = ReproSum::<f64, 3>::new();
                scaled.add(0.5); // non-trivial starting state
                scaled.add_scaled(v, k);
                scaled.add(-0.125); // later per-row adds still exact
                let mut per_row = ReproSum::<f64, 3>::new();
                per_row.add(0.5);
                for _ in 0..k {
                    per_row.add(v);
                }
                per_row.add(-0.125);
                assert_eq!(
                    scaled.value().to_bits(),
                    per_row.value().to_bits(),
                    "v={v} k={k}"
                );
            }
        }
        // All level counts, f32 included.
        let mut s1 = ReproSum::<f64, 1>::new();
        let mut p1 = ReproSum::<f64, 1>::new();
        s1.add_scaled(0.3, 977);
        (0..977).for_each(|_| p1.add(0.3));
        assert_eq!(s1.value().to_bits(), p1.value().to_bits());
        let mut s32 = ReproSum::<f32, 2>::new();
        let mut p32 = ReproSum::<f32, 2>::new();
        s32.add_scaled(0.7f32, 12_345);
        (0..12_345).for_each(|_| p32.add(0.7f32));
        assert_eq!(s32.value().to_bits(), p32.value().to_bits());
    }

    #[test]
    fn add_scaled_specials_and_overflow_match_per_row() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, 1e305] {
            let mut scaled = ReproSum::<f64, 2>::new();
            scaled.add(1.0);
            scaled.add_scaled(v, 4);
            let mut per_row = ReproSum::<f64, 2>::new();
            per_row.add(1.0);
            (0..4).for_each(|_| per_row.add(v));
            assert_eq!(scaled.special(), per_row.special(), "v={v}");
            assert_eq!(scaled.value().to_bits(), per_row.value().to_bits());
        }
        // Near the binnable limit the k·q product overflows f64 and the
        // chunk-halving fallback engages — still bit-identical.
        let huge = 2.0f64.powi(1000);
        let mut scaled = ReproSum::<f64, 2>::new();
        scaled.add_scaled(huge, 100);
        let mut per_row = ReproSum::<f64, 2>::new();
        (0..100).for_each(|_| per_row.add(huge));
        assert_eq!(scaled.value().to_bits(), per_row.value().to_bits());
        assert_eq!(scaled.value(), 100.0 * huge);
    }

    #[test]
    fn add_scaled_chunking_is_exact_and_merges_cleanly() {
        // Multiplicities beyond one chunk (> 2^51) can't be checked
        // against a literal loop; instead check the algebra the chunk
        // loop relies on — k1 + k2 splits arbitrarily — plus merge
        // interchangeability with per-row state.
        let k = (1u64 << 51) + 12_345;
        let mut whole = ReproSum::<f64, 2>::new();
        whole.add_scaled(0.1, k);
        for split in [1u64, 1 << 20, (1 << 51) - 1] {
            let mut parts = ReproSum::<f64, 2>::new();
            parts.add_scaled(0.1, split);
            parts.add_scaled(0.1, k - split);
            assert_eq!(whole.value().to_bits(), parts.value().to_bits());
        }
        // Merging a scaled state into a per-row state behaves like the
        // all-per-row merge.
        let mut scaled_half = ReproSum::<f64, 3>::new();
        scaled_half.add_scaled(0.25, 1000);
        let mut row_half = ReproSum::<f64, 3>::new();
        (0..500).for_each(|_| row_half.add(-1.5e-8));
        let mut merged = row_half.clone();
        merged.merge(&scaled_half);
        let mut all_rows = ReproSum::<f64, 3>::new();
        (0..500).for_each(|_| all_rows.add(-1.5e-8));
        (0..1000).for_each(|_| all_rows.add(0.25));
        assert_eq!(merged.value().to_bits(), all_rows.value().to_bits());
    }

    /// Multiplicities of one chunk and beyond (k ≥ 2^51) against the
    /// truth: `k·v` is the two-product `hi + lo`, summed exactly, and the
    /// scaled deposit lies within the anchored bound of `k` deposits of
    /// `|v|` plus the half ulp of rounding that exact product to f64.
    #[test]
    fn add_scaled_beyond_one_chunk_is_within_the_bound_of_the_exact_product() {
        fn check<const L: usize>() {
            for k in [1u64 << 51, (1 << 51) + 1, 1 << 53] {
                for v in [0.1, 0.75, -3.0e-300, 1.0e280] {
                    let mut acc = ReproSum::<f64, L>::new();
                    acc.add_scaled(v, k);
                    let got = acc.value();
                    // Exact: k ≤ 2^53 is an f64.
                    let (hi, lo) = crate::eft::two_product(k as f64, v);
                    let mut err = rfa_exact::ExactSum::new();
                    err.add(hi);
                    err.add(lo);
                    err.sub(got);
                    let half_ulp = (f64::from_bits(hi.abs().to_bits() + 1) - hi.abs()) / 2.0;
                    let bound =
                        crate::analysis::reproducible_bound_anchored::<f64>(k as usize, L, v.abs());
                    let err = err.round_f64().abs();
                    assert!(
                        err <= bound + half_ulp,
                        "L={L} k={k} v={v:e}: {got:e} is {err:e} off, bound {bound:e}"
                    );
                }
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
    }

    /// The state holds sums, carries, rung, deposit count and special
    /// state and nothing derived: a field added back fails here.
    #[test]
    fn state_sizes_are_pinned() {
        use core::mem::size_of;
        assert_eq!(size_of::<ReproSum<f64, 1>>(), 32);
        assert_eq!(size_of::<ReproSum<f64, 2>>(), 48);
        assert_eq!(size_of::<ReproSum<f64, 3>>(), 64);
        assert_eq!(size_of::<ReproSum<f64, 4>>(), 80);
    }

    #[test]
    fn sum_trait_impl() {
        let s: ReproSum<f64, 2> = [1.0, 2.0, 3.0].into_iter().sum();
        assert_eq!(s.value(), 6.0);
    }
}

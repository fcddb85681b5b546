//! Vectorized reproducible summation — RSUM SIMD (paper §III-D,
//! Algorithm 3).
//!
//! The scalar cascade in [`crate::repro`] spends most of its time in a
//! serial dependency chain. Algorithm 3 breaks it by keeping `V`
//! independent per-lane running sums and carry counters per level, checking
//! extractor validity once per block of `V·NB` inputs, propagating carry
//! bits once per block, and performing a *horizontal* (exact) merge of the
//! lane states at the end (Eq. 2/3).
//!
//! ## One skeleton, three widths
//!
//! The chunk logic — validity scan, scalar cold path, promotion and lane
//! shift, level count, cascade, carry propagation, horizontal merge — is
//! written once (`kernel`) over `Reg`: one register of `V` lanes, the
//! ten operations the chunk logic needs and the indexed load of
//! [`gather`]. Three widths implement it,
//! selected at runtime through [`crate::cpu`]:
//!
//! * `Portable<T>` — the paper's `V` (4 `f64`, 8 `f32`) lanes as a fixed
//!   array whose loops LLVM autovectorizes (every target;
//!   [`add_slice_portable`]);
//! * AVX2 — `V = 4` `f64` lanes in one `__m256d`, `V = 8` `f32` lanes in
//!   one `__m256`;
//! * AVX-512 — `V = 8` `f64` lanes in one `__m512d`; its validity scan is
//!   an unsigned max / min over the magnitude bits, where NaN sorts above
//!   every number, so no separate NaN sweep runs. `f32` keeps its AVX2
//!   width at this level: no workload sums `f32`.
//!
//! Every lane operation is exact and the final merge is exact, so the
//! result is **bit-identical** to feeding the same values through the
//! scalar path (a property the test-suite asserts) *and* identical between
//! the widths: vectorization is purely a performance choice, exactly as the
//! paper requires. A chunk's last, partial group is zero-padded into one
//! more register (a zero deposits `+0.0` everywhere), so no value takes a
//! scalar tail, and the lanes' carry counts go straight into the
//! accumulator's integer counters, which promotions shift in step with the
//! lanes.
//!
//! ## Only the levels a chunk can reach
//!
//! After the chunk's promotion to rung `top`, level `l`'s grid (the ulp of
//! its extractor) is `2^(e(top+l) − m)`. Every chunk value is a multiple of
//! `2^(max(E_min, e_bottom) − m)`, with `E_min` the exponent of the
//! smallest non-zero `|v|` (found by the validity scan) and `e_bottom − m`
//! the denormal floor. A remainder that is a multiple of level `l`'s grid
//! extracts to itself there, so every deeper level would add exactly
//! `+0.0` — a no-op, lane sums being never `−0.0`. The cascade therefore
//! runs `N = 1 + ⌈(e(top) − max(E_min, e_bottom)) / W⌉` levels (clamped to
//! `L`; `0` when no value is non-zero), each `N` its own instantiation with
//! no branch in the inner loop. DESIGN.md S3 has the argument in full.
//! The argument is per value: [`scan`] runs the same validity scan over a
//! whole slice, and [`depth`] of its result bounds the levels per-value
//! deposits need ([`ReproSum::add_levels`]). For the same reason a whole
//! slice's pair serves each of its chunks: [`add_scanned`] is the chunk
//! loop with the caller's pair in place of every chunk's scan — the first
//! chunk promotes to the slice's top rung, the state of the largest value
//! arriving first, and the slice's smallest magnitude asks for at least
//! the levels each chunk needs. [`gather`] returns that pair for the
//! values it copies through an index list, so the partition gather hands
//! the kernel a segment it need not scan again.
//!
//! ## Safety boundary
//!
//! `unsafe` here is of three kinds (`#![deny(clippy::undocumented_unsafe_
//! blocks)]` holds every block to a `SAFETY:` line):
//!
//! 1. **Target features.** The AVX2 / AVX-512 `Reg` operations execute
//!    their feature's instructions, so every `Reg` method and the skeleton
//!    are `unsafe fn` whose one precondition is a CPU with that feature.
//!    The `#[target_feature]` entries in `x86` are reached only from
//!    [`add_slice`], [`add_scanned`], [`scan`] and [`gather`], after [`crate::cpu::active`] reported
//!    their level — which it does only once `is_x86_feature_detected!`
//!    succeeded.
//! 2. **Bounds.** The only raw memory accesses are `Reg::load`, which reads
//!    `V` values from a slice it requires to hold `V` (a `chunks_exact(V)`
//!    group or the `MAX_LANES`-long padded tail), `Reg::lanes`, which
//!    stores `V ≤ MAX_LANES` values into a local array, and the indexed
//!    load `Reg::gather`. It reads `V` indices from a `chunks_exact(V)`
//!    group; the AVX-512 `f64` width's `vgatherdpd` masks off every lane
//!    whose index is not below `values.len()` (so it reads nothing out of
//!    bounds, and needs `values.len() ≤ i32::MAX`, its offsets being
//!    signed — [`gather`] takes the AVX2 width past that), the default
//!    loads lane by lane through `get`. Each reports whether all lanes
//!    were in range, and [`gather`] panics after its loop if one was not.
//! 3. **Monomorphic downcast.** `add_slice` is generic over the sealed
//!    [`ReproFloat`] (only `f32`/`f64` exist); `retype` casts
//!    `ReproSum<T, L> → ReproSum<U, L>` only when `TypeId`s prove `T` *is*
//!    `U`, so the cast is an identity at runtime.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::cpu;
use crate::float::ReproFloat;
use crate::repro::ReproSum;

/// The widest register in lanes (AVX-512 `f64`, AVX2 `f32`, portable);
/// per-lane arrays are padded to it.
const MAX_LANES: usize = 8;

/// One register of `V` lanes of `F` and the operations the chunk skeleton
/// is written in. Calling any method requires a CPU with the implementing
/// width's target feature (the portable width requires nothing).
trait Reg: Copy {
    type F: ReproFloat;
    /// Lanes per register, at most `MAX_LANES`.
    const V: usize;
    /// The running state of the validity scan.
    type Scan: Copy;

    unsafe fn splat(x: Self::F) -> Self;
    /// The first `V` values of `v`, which must hold at least `V`.
    unsafe fn load(v: &[Self::F]) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    /// Lane `i` in slot `i`; slots `V..` are zero.
    unsafe fn lanes(self) -> [Self::F; MAX_LANES];
    /// The sum of the lanes, in any order. Applied to propagated lane sums
    /// it is exact: each is within half a carry unit, `2^(m−3)` steps of
    /// its level's grid, so eight of them and any partial sum stay within
    /// `2^m` steps.
    #[inline(always)]
    unsafe fn sum(self) -> Self::F {
        let s = self.lanes();
        ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    }
    /// `(d, self − d·unit)` per lane, `d = round_ties_even(self / unit)` —
    /// both exact (carry propagation, Algorithm 2 lines 14–18). `None`
    /// when every lane is within `unit / 2` of zero, where every `d` is
    /// `±0` and propagation moves nothing.
    unsafe fn carry(self, unit: Self::F) -> Option<(Self, Self)>;
    unsafe fn scan_start() -> Self::Scan;
    unsafe fn scan(s: Self::Scan, x: Self) -> Self::Scan;
    /// `(max |x|, min non-zero |x|)` over everything scanned: the max is
    /// NaN if any lane was (the portable width's also if one was ±∞), the
    /// min `+∞` if no lane was non-zero.
    unsafe fn scan_end(s: Self::Scan) -> (Self::F, Self::F);
    /// Lane `i` is `values[idx[i]]`, or zero where `idx[i]` is out of
    /// range, and whether every lane was in range; `idx` must hold at
    /// least `V`. Lane by lane here; a width with a hardware gather
    /// overrides it.
    #[inline(always)]
    unsafe fn gather(values: &[Self::F], idx: &[u32]) -> (Self, bool) {
        let mut lanes = [Self::F::ZERO; MAX_LANES];
        let mut in_range = true;
        for (lane, &i) in lanes.iter_mut().zip(&idx[..Self::V]) {
            let v = values.get(i as usize);
            in_range &= v.is_some();
            *lane = v.copied().unwrap_or(Self::F::ZERO);
        }
        (Self::load(&lanes), in_range)
    }
}

/// Adds all `values` into `acc` using the vectorized kernel at the widest
/// width [`crate::cpu`] allows: AVX-512 for `f64` at
/// [`cpu::SimdLevel::Avx512`], AVX2 otherwise on x86-64, and
/// [`add_slice_portable`] at [`cpu::SimdLevel::Scalar`] or elsewhere.
///
/// Bit-identical to `acc.add_all(values)` — verified by tests — but several
/// times faster for long slices. Small calls pay a fixed lane setup/merge
/// cost, which is precisely the start-up overhead the paper studies in
/// Figure 6.
#[inline]
pub fn add_slice<T: ReproFloat, const L: usize>(acc: &mut ReproSum<T, L>, values: &[T]) {
    if let Some((acc, values)) = retype::<T, f64, L>(acc, values) {
        return add_f64(acc, values, None);
    }
    #[cfg(target_arch = "x86_64")]
    if cpu::active() != cpu::SimdLevel::Scalar {
        if let Some((acc, values)) = retype::<T, f32, L>(acc, values) {
            // SAFETY: `cpu::active()` reports a level only on a CPU with its
            // feature; every AVX-512F CPU also has AVX2.
            unsafe { x86::f32_avx2(acc, values) };
            return;
        }
    }
    add_slice_portable(acc, values);
}

/// The `f64` block kernel at the widest width [`crate::cpu`] allows, with
/// `pair` ([`add_scanned`]) or each chunk's own scan.
#[inline]
fn add_f64<const L: usize>(acc: &mut ReproSum<f64, L>, values: &[f64], pair: Option<(f64, f64)>) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = cpu::active();
        if level != cpu::SimdLevel::Scalar {
            // SAFETY: `cpu::active()` reports a level only on a CPU with
            // its feature.
            unsafe {
                if level == cpu::SimdLevel::Avx512 {
                    x86::f64_avx512(acc, values, pair)
                } else {
                    x86::f64_avx2(acc, values, pair)
                }
            }
            return;
        }
    }
    // SAFETY: the portable width executes no target-specific instruction.
    unsafe { kernel::<Portable<f64>, L>(acc, values, pair) }
}

/// `(max |v|, min non-zero |v|)` over `f64` `values`: the block kernel's
/// validity scan run over the whole slice, at the width [`add_slice`]
/// would use. The max is NaN when any value is NaN or ±∞, and the min is
/// `+∞` when no value is non-zero — the same pair at every width. With
/// [`depth`] it gives the levels a run of per-value deposits needs
/// ([`ReproSum::add_levels`]).
pub fn scan(values: &[f64]) -> (f64, f64) {
    one_pair(scan_dispatched(values))
}

/// A width's `Reg::scan_end` pair as [`scan`] returns it: a width's max of
/// a slice holding ±∞ is `+∞` or NaN, and this makes it NaN at every width.
fn one_pair((hi, lo): (f64, f64)) -> (f64, f64) {
    (if hi.is_finite() { hi } else { f64::NAN }, lo)
}

/// Writes `values[idx[i]]` into `out[i]` and returns the pair
/// [`scan`]`(out)` would: the validity scan runs on each register as it is
/// gathered, so the values are read once. Panics — after reading nothing
/// out of bounds — when `idx` and `out` differ in length or an index is
/// not below `values.len()`. Hand the pair to [`add_scanned`] to deposit
/// `out` without scanning it again.
pub fn gather(values: &[f64], idx: &[u32], out: &mut [f64]) -> (f64, f64) {
    assert_eq!(idx.len(), out.len(), "one output slot per index");
    one_pair(gather_dispatched(values, idx, out))
}

/// [`gather`]'s dispatch, as [`scan`]'s. The AVX-512 gather takes signed
/// 32-bit offsets, so a slice past `i32::MAX` values takes the AVX2 width.
fn gather_dispatched(values: &[f64], idx: &[u32], out: &mut [f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = cpu::active();
        if level != cpu::SimdLevel::Scalar {
            // SAFETY: `cpu::active()` reports a level only on a CPU with
            // its feature; every AVX-512F CPU also has AVX2.
            return unsafe {
                if level == cpu::SimdLevel::Avx512 && values.len() <= i32::MAX as usize {
                    x86::gather_f64_avx512(values, idx, out)
                } else {
                    x86::gather_f64_avx2(values, idx, out)
                }
            };
        }
    }
    // SAFETY: the portable width executes no target-specific instruction.
    unsafe { gather_scan::<Portable<f64>>(values, idx, out) }
}

/// [`add_slice`] for `f64` with `pair` — [`scan`]`(values)`'s, as
/// [`gather`] returns it — in place of every chunk's own validity scan
/// (DESIGN.md S3, "a whole-slice pair"). Bit-identical to `add_slice`. A
/// pair holding NaN or a magnitude past the binnable limit is dropped and
/// each chunk scans itself, so special values still take the cold path.
/// Any other pair gives wrong bits, never an out-of-bounds access.
#[inline]
pub fn add_scanned<const L: usize>(acc: &mut ReproSum<f64, L>, values: &[f64], pair: (f64, f64)) {
    let pair = Some(pair).filter(|&(hi, _)| hi < f64::exp2i(f64::HUGE_EXP));
    add_f64(acc, values, pair)
}

/// [`scan`]'s dispatch, as [`add_slice`]'s.
fn scan_dispatched(values: &[f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = cpu::active();
        if level != cpu::SimdLevel::Scalar {
            // SAFETY: `cpu::active()` reports a level only on a CPU with
            // its feature.
            return unsafe {
                if level == cpu::SimdLevel::Avx512 {
                    x86::scan_f64_avx512(values)
                } else {
                    x86::scan_f64_avx2(values)
                }
            };
        }
    }
    // SAFETY: the portable width executes no target-specific instruction.
    unsafe { magnitudes::<Portable<f64>>(values) }
}

/// `acc` and `values` as `U`, when `T` is `U` (`ReproFloat` is sealed: `T`
/// is exactly `f32` or `f64`).
fn retype<'a, T: ReproFloat, U: ReproFloat, const L: usize>(
    acc: &'a mut ReproSum<T, L>,
    values: &'a [T],
) -> Option<(&'a mut ReproSum<U, L>, &'a [U])> {
    if core::any::TypeId::of::<T>() != core::any::TypeId::of::<U>() {
        return None;
    }
    let len = values.len();
    // SAFETY: `T` and `U` are one type (equal `TypeId`s of `'static`
    // types), so both casts only rename it: same layout, same lifetime.
    unsafe {
        Some((
            &mut *(acc as *mut ReproSum<T, L>).cast::<ReproSum<U, L>>(),
            core::slice::from_raw_parts(values.as_ptr().cast::<U>(), len),
        ))
    }
}

/// The portable lane-array kernel (the autovectorized fallback of
/// [`add_slice`]; public so benchmarks can measure it against the
/// dispatched path).
pub fn add_slice_portable<T: ReproFloat, const L: usize>(acc: &mut ReproSum<T, L>, values: &[T]) {
    // SAFETY: the portable width executes no target-specific instruction.
    unsafe { kernel::<Portable<T>, L>(acc, values, None) }
}

/// The chunk loop of Algorithm 3 at width `R` — the one copy of it. With
/// `pair` — the whole slice's binnable validity-scan pair ([`add_scanned`])
/// — no chunk scans itself.
///
/// # Safety
/// The CPU must support `R`'s target feature.
#[inline(always)]
// `!(hi < huge)` is the NaN-conservative form: NaN must take the cold path.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
unsafe fn kernel<R: Reg, const L: usize>(
    acc: &mut ReproSum<R::F, L>,
    values: &[R::F],
    pair: Option<(R::F, R::F)>,
) {
    const { assert!(R::V <= MAX_LANES) };
    // Lane sums start at the exact additive identity (Algorithm 3 lines
    // 1–2 load the memory-resident state instead; equivalent, because the
    // merge is exact and associative). Lane carry counts go straight into
    // `acc`'s: integers add in any order, and a promotion shifts `acc`'s
    // levels by the `k` it shifts the lanes by.
    let zero = R::splat(R::F::ZERO);
    let mut sums = [zero; L];
    let huge = R::F::exp2i(R::F::HUGE_EXP);

    for chunk in values.chunks(R::V * R::F::BLOCK) {
        // Algorithm 3 line 4: one validity check per block; the same pass
        // finds the smallest non-zero magnitude for the level count. The
        // whole slice's pair serves every chunk: the first promotes to
        // the slice's top rung, and the slice's smallest magnitude asks
        // for at least the levels each chunk needs.
        let (hi, lo) = pair.unwrap_or_else(|| magnitudes::<R>(chunk));
        let tail = padded::<R>(chunk.chunks_exact(R::V).remainder());

        // Specials or overflow-magnitude values take the scalar cold path
        // per value. Every state update being exact, interleaving it with
        // the lane state is harmless, but a promotion by a binnable value
        // in the same chunk must shift the lanes too.
        let old_top = acc.top_rung();
        let cold = !(hi < huge);
        if cold {
            acc.add_all(chunk);
        } else if hi != R::F::ZERO {
            let promoted = acc.promote_for(hi);
            debug_assert!(promoted, "in-range value must be binnable");
        }
        shift(&mut sums, (old_top - acc.top_rung()) as usize, zero);
        if cold {
            continue;
        }

        let top = acc.top_rung() as usize;
        let n = depth(top, lo, L);
        let ext = R::F::extractor_row::<L>(top);
        let full = &chunk[..chunk.len() - chunk.len() % R::V];
        match n {
            0 => {}
            1 => cascade::<R, L, 1>(full, tail, ext, &mut sums),
            2 if L >= 2 => cascade::<R, L, 2>(full, tail, ext, &mut sums),
            3 if L >= 3 => cascade::<R, L, 3>(full, tail, ext, &mut sums),
            _ => cascade::<R, L, L>(full, tail, ext, &mut sums),
        }
        // Carry propagation (Algorithm 3 line 7) of the levels this chunk
        // reached. Deeper ones are unchanged since their last propagation,
        // and propagation is idempotent.
        let levels = sums.iter_mut().zip(acc.raw_parts_mut().1).take(n);
        for (l, (s, c)) in levels.enumerate() {
            if let Some((d, rest)) = s.carry(R::F::carry_unit(top + l)) {
                *s = rest;
                *c += d.lanes().into_iter().map(|d| d.to_i64()).sum::<i64>();
            }
        }
    }

    // Horizontal merge (Eq. 2/3): an exact fold of the lanes into `acc`.
    for (a, s) in acc.raw_parts_mut().0.iter_mut().zip(&sums) {
        *a += s.sum();
    }
    acc.propagate_carries();
}

/// The validity scan of `values` at width `R` (`Reg::scan_end`'s pair),
/// the zero-padded last group included.
///
/// # Safety
/// As `kernel`.
#[inline(always)]
unsafe fn magnitudes<R: Reg>(values: &[R::F]) -> (R::F, R::F) {
    let mut scan = R::scan_start();
    let mut groups = values.chunks_exact(R::V);
    for g in &mut groups {
        scan = R::scan(scan, R::load(g));
    }
    if let Some(tail) = padded::<R>(groups.remainder()) {
        scan = R::scan(scan, tail);
    }
    R::scan_end(scan)
}

/// [`gather`] at width `R`: each register of `values[idx[..]]` is stored
/// to `out` and scanned, the last partial one lane by lane and zero-padded.
/// Panics after the loop when a lane was out of range (which `R::gather`
/// left unread); a tail index is bounds-checked as it is read.
///
/// # Safety
/// As `kernel`; `idx.len() == out.len()`.
#[inline(always)]
unsafe fn gather_scan<R: Reg<F = f64>>(values: &[f64], idx: &[u32], out: &mut [f64]) -> (f64, f64) {
    let mut scan = R::scan_start();
    let mut in_range = true;
    let (mut outs, mut idxs) = (out.chunks_exact_mut(R::V), idx.chunks_exact(R::V));
    for (o, i) in (&mut outs).zip(&mut idxs) {
        let (r, ok) = R::gather(values, i);
        in_range &= ok;
        o.copy_from_slice(&r.lanes()[..R::V]);
        scan = R::scan(scan, r);
    }
    assert!(in_range, "gather index out of range");
    let rest = outs.into_remainder();
    for (o, &i) in rest.iter_mut().zip(idxs.remainder()) {
        *o = values[i as usize];
    }
    if let Some(tail) = padded::<R>(rest) {
        scan = R::scan(scan, tail);
    }
    R::scan_end(scan)
}

/// The levels a cascade needs under ladder rung `top` (a
/// [`ReproSum::top_rung`]) for values whose smallest non-zero magnitude is
/// `lo` (`+∞`: none, giving `0`): `1 + ⌈(e(top) − max(E_min, e_bottom)) /
/// W⌉`, at most `levels`. Level `N − 1`'s grid is then no coarser than
/// the lowest bit such a value can carry, so every deeper level would
/// receive exactly `+0.0` (module docs). `top` must admit every value:
/// each lies below its deposit limit.
pub fn depth<T: ReproFloat>(top: usize, lo: T, levels: usize) -> usize {
    if !lo.is_finite() {
        return 0;
    }
    let lowest = lo.exponent().max(T::bin_exp(T::NUM_BINS - 1));
    let span = T::bin_exp(top) - lowest;
    debug_assert!(span >= 0, "every value lies below the top rung");
    (1 + ((span + T::W - 1) / T::W) as usize).min(levels)
}

/// The extraction cascade (Algorithm 2 lines 8–13, `V` lanes wide:
/// Algorithm 3 line 6) of the `V`-value groups of `full` and of the padded
/// `tail` over the first `N` levels.
///
/// # Safety
/// As `kernel`.
#[inline(always)]
unsafe fn cascade<R: Reg, const L: usize, const N: usize>(
    full: &[R::F],
    tail: Option<R>,
    ext: &[R::F; L],
    sums: &mut [R; L],
) {
    // Register copies of the extractors and of the sums: `sums` lives in
    // memory (`shift` moves it), and the loop must not store to it.
    let (mut m, mut acc) = ([sums[0]; N], [sums[0]; N]);
    for l in 0..N {
        (m[l], acc[l]) = (R::splat(ext[l]), sums[l]);
    }
    for g in full.chunks_exact(R::V) {
        deposit(&m, &mut acc, R::load(g));
    }
    if let Some(tail) = tail {
        deposit(&m, &mut acc, tail);
    }
    sums[..N].copy_from_slice(&acc);
}

/// One register of values through the first `N` levels.
///
/// # Safety
/// As `kernel`.
#[inline(always)]
unsafe fn deposit<R: Reg, const N: usize>(m: &[R; N], sums: &mut [R; N], mut r: R) {
    for l in 0..N {
        let q = m[l].add(r).sub(m[l]);
        sums[l] = sums[l].add(q);
        r = r.sub(q);
    }
}

/// A chunk's last, partial group, zero-padded to a register (`None` if
/// there is none): a zero deposits `+0.0` into every level and moves
/// neither end of the scan.
///
/// # Safety
/// As `kernel`; `rest.len() < R::V`.
#[inline(always)]
unsafe fn padded<R: Reg>(rest: &[R::F]) -> Option<R> {
    if rest.is_empty() {
        return None;
    }
    // A fixed-length fill: a `copy_from_slice` of `rest.len()` values is a
    // `memcpy` call.
    let pad: [R::F; MAX_LANES] =
        core::array::from_fn(|i| if i < rest.len() { rest[i] } else { R::F::ZERO });
    Some(R::load(&pad))
}

/// Moves the lane levels `k` rungs deeper after a promotion (Algorithm 2
/// lines 5–7, as `ReproSum::promote`): the deepest `k` are dropped, the
/// top `k` start empty.
fn shift<R: Copy, const L: usize>(sums: &mut [R; L], k: usize, zero: R) {
    let k = k.min(L);
    if k > 0 {
        sums.copy_within(..L - k, k);
        sums[..k].fill(zero);
    }
}

/// The portable width: the paper's `V = T::LANES` lanes (4 `f64`, 8
/// `f32`) in a `MAX_LANES` array whose slots `V..` stay zero.
#[derive(Clone, Copy)]
struct Portable<T>([T; MAX_LANES]);

impl<T: ReproFloat> Portable<T> {
    #[inline(always)]
    fn from_fn(f: impl Fn(usize) -> T) -> Self {
        Portable(core::array::from_fn(|v| {
            if v < T::LANES {
                f(v)
            } else {
                T::ZERO
            }
        }))
    }
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        Self::from_fn(|v| f(self.0[v], o.0[v]))
    }
}

impl<T: ReproFloat> Reg for Portable<T> {
    type F = T;
    const V: usize = T::LANES;
    /// Per lane: max |x|, min non-zero |x|, and a sum of `x − x` that is
    /// NaN once a NaN or ±∞ passed.
    type Scan = (Self, Self, Self);

    #[inline(always)]
    unsafe fn splat(x: T) -> Self {
        Self::from_fn(|_| x)
    }
    #[inline(always)]
    unsafe fn load(v: &[T]) -> Self {
        Self::from_fn(|i| v[i])
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn lanes(self) -> [T; MAX_LANES] {
        self.0
    }
    #[inline(always)]
    unsafe fn carry(self, unit: T) -> Option<(Self, Self)> {
        let half = unit * T::from_f64(0.5);
        if self.0.iter().all(|x| x.abs() <= half) {
            return None;
        }
        let d = Self::from_fn(|v| (self.0[v] / unit).round_ties_even_());
        Some((d, self.zip(d, |x, d| x - d * unit)))
    }
    #[inline(always)]
    unsafe fn scan_start() -> Self::Scan {
        let zero = Self::splat(T::ZERO);
        (zero, Self::splat(T::infinity()), zero)
    }
    #[inline(always)]
    unsafe fn scan((hi, lo, nan): Self::Scan, x: Self) -> Self::Scan {
        // Plain selects (`maxpd` / `minpd`): non-finite values are `nan`'s.
        let a = Self::from_fn(|v| x.0[v].abs());
        (
            hi.zip(a, |hi, a| if a > hi { a } else { hi }),
            lo.zip(a, |lo, a| if a != T::ZERO && a < lo { a } else { lo }),
            nan.add(x.sub(x)),
        )
    }
    #[inline(always)]
    unsafe fn scan_end((hi, lo, nan): Self::Scan) -> (T, T) {
        let lo = lo.0[..T::LANES]
            .iter()
            .fold(T::infinity(), |a, &b| if b < a { b } else { a });
        if nan.0.iter().any(|n| n.is_nan()) {
            return (T::nan(), lo);
        }
        (hi.0.into_iter().fold(T::ZERO, T::max_), lo)
    }
}

/// The AVX2 and AVX-512 widths and their `#[target_feature]` entries.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

    /// [`add_slice`] for `f64`, four lanes per `__m256d`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn f64_avx2<const L: usize>(
        acc: &mut ReproSum<f64, L>,
        values: &[f64],
        pair: Option<(f64, f64)>,
    ) {
        kernel::<Avx2F64, L>(acc, values, pair)
    }

    /// [`add_slice`] for `f32`, eight lanes per `__m256`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn f32_avx2<const L: usize>(acc: &mut ReproSum<f32, L>, values: &[f32]) {
        kernel::<Avx2F32, L>(acc, values, None)
    }

    /// [`add_slice`] for `f64`, eight lanes per `__m512d`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn f64_avx512<const L: usize>(
        acc: &mut ReproSum<f64, L>,
        values: &[f64],
        pair: Option<(f64, f64)>,
    ) {
        kernel::<Avx512F64, L>(acc, values, pair)
    }

    /// [`scan`] for `f64`, four lanes per `__m256d`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_f64_avx2(values: &[f64]) -> (f64, f64) {
        magnitudes::<Avx2F64>(values)
    }

    /// [`scan`] for `f64`, eight lanes per `__m512d`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn scan_f64_avx512(values: &[f64]) -> (f64, f64) {
        magnitudes::<Avx512F64>(values)
    }

    /// [`gather`] for `f64`, four lanes per `__m256d`, loaded lane by lane.
    ///
    /// # Safety
    /// The CPU must support AVX2; `idx.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_f64_avx2(
        values: &[f64],
        idx: &[u32],
        out: &mut [f64],
    ) -> (f64, f64) {
        gather_scan::<Avx2F64>(values, idx, out)
    }

    /// [`gather`] for `f64`, eight lanes per `vgatherdpd`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `idx.len() == out.len()` and
    /// `values.len() <= i32::MAX`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gather_f64_avx512(
        values: &[f64],
        idx: &[u32],
        out: &mut [f64],
    ) -> (f64, f64) {
        gather_scan::<Avx512F64>(values, idx, out)
    }

    #[derive(Clone, Copy)]
    struct Avx2F64(__m256d);

    impl Reg for Avx2F64 {
        type F = f64;
        const V: usize = 4;
        /// Per lane: max |x|, min non-zero |x|, NaN seen.
        type Scan = (__m256d, __m256d, __m256d);

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(v: &[f64]) -> Self {
            debug_assert!(v.len() >= Self::V);
            Self(_mm256_loadu_pd(v.as_ptr()))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm256_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm256_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f64; MAX_LANES] {
            let mut out = [0.0; MAX_LANES];
            _mm256_storeu_pd(out.as_mut_ptr(), self.0);
            out
        }
        #[inline(always)]
        unsafe fn carry(self, unit: f64) -> Option<(Self, Self)> {
            let a = _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0);
            let far = _mm256_cmp_pd::<_CMP_GT_OQ>(a, _mm256_set1_pd(0.5 * unit));
            if _mm256_movemask_pd(far) == 0 {
                return None;
            }
            let unit = _mm256_set1_pd(unit);
            let d = _mm256_round_pd::<NEAREST>(_mm256_div_pd(self.0, unit));
            Some((Self(d), Self(_mm256_sub_pd(self.0, _mm256_mul_pd(d, unit)))))
        }
        #[inline(always)]
        unsafe fn scan_start() -> Self::Scan {
            let zero = _mm256_setzero_pd();
            (zero, _mm256_set1_pd(f64::INFINITY), zero)
        }
        #[inline(always)]
        unsafe fn scan((hi, lo, nan): Self::Scan, x: Self) -> Self::Scan {
            let a = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x.0);
            // Zero lanes turn all-ones, a NaN, which `minpd` passes over: it
            // returns its second operand when either one is NaN.
            let nz = _mm256_or_pd(a, _mm256_cmp_pd::<_CMP_EQ_OQ>(a, _mm256_setzero_pd()));
            let x_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x.0, x.0);
            (
                _mm256_max_pd(hi, a),
                _mm256_min_pd(nz, lo),
                _mm256_or_pd(nan, x_nan),
            )
        }
        #[inline(always)]
        unsafe fn scan_end((hi, lo, nan): Self::Scan) -> (f64, f64) {
            let lo = Self(lo).lanes()[..Self::V]
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            if _mm256_movemask_pd(nan) != 0 {
                return (f64::NAN, lo);
            }
            (Self(hi).lanes().into_iter().fold(0.0, f64::max), lo)
        }
    }

    #[derive(Clone, Copy)]
    struct Avx2F32(__m256);

    impl Reg for Avx2F32 {
        type F = f32;
        const V: usize = 8;
        /// Per lane: max |x|, min non-zero |x|, NaN seen.
        type Scan = (__m256, __m256, __m256);

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(v: &[f32]) -> Self {
            debug_assert!(v.len() >= Self::V);
            Self(_mm256_loadu_ps(v.as_ptr()))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f32; MAX_LANES] {
            let mut out = [0.0; MAX_LANES];
            _mm256_storeu_ps(out.as_mut_ptr(), self.0);
            out
        }
        #[inline(always)]
        unsafe fn carry(self, unit: f32) -> Option<(Self, Self)> {
            let a = _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0);
            let far = _mm256_cmp_ps::<_CMP_GT_OQ>(a, _mm256_set1_ps(0.5 * unit));
            if _mm256_movemask_ps(far) == 0 {
                return None;
            }
            let unit = _mm256_set1_ps(unit);
            let d = _mm256_round_ps::<NEAREST>(_mm256_div_ps(self.0, unit));
            Some((Self(d), Self(_mm256_sub_ps(self.0, _mm256_mul_ps(d, unit)))))
        }
        #[inline(always)]
        unsafe fn scan_start() -> Self::Scan {
            let zero = _mm256_setzero_ps();
            (zero, _mm256_set1_ps(f32::INFINITY), zero)
        }
        #[inline(always)]
        unsafe fn scan((hi, lo, nan): Self::Scan, x: Self) -> Self::Scan {
            let a = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x.0);
            // As `Avx2F64::scan`.
            let nz = _mm256_or_ps(a, _mm256_cmp_ps::<_CMP_EQ_OQ>(a, _mm256_setzero_ps()));
            let x_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x.0, x.0);
            (
                _mm256_max_ps(hi, a),
                _mm256_min_ps(nz, lo),
                _mm256_or_ps(nan, x_nan),
            )
        }
        #[inline(always)]
        unsafe fn scan_end((hi, lo, nan): Self::Scan) -> (f32, f32) {
            let lo = Self(lo).lanes().into_iter().fold(f32::INFINITY, f32::min);
            if _mm256_movemask_ps(nan) != 0 {
                return (f32::NAN, lo);
            }
            (Self(hi).lanes().into_iter().fold(0.0, f32::max), lo)
        }
    }

    #[derive(Clone, Copy)]
    struct Avx512F64(__m512d);

    impl Reg for Avx512F64 {
        type F = f64;
        const V: usize = 8;
        /// Magnitude bits as `u64` lanes: their max (a NaN's exceed +∞'s,
        /// which exceed every finite value's), and their min after
        /// subtracting one (a zero wraps to the top and never wins).
        type Scan = (__m512i, __m512i);

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(v: &[f64]) -> Self {
            debug_assert!(v.len() >= Self::V);
            Self(_mm512_loadu_pd(v.as_ptr()))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm512_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm512_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f64; MAX_LANES] {
            let mut out = [0.0; MAX_LANES];
            _mm512_storeu_pd(out.as_mut_ptr(), self.0);
            out
        }
        #[inline(always)]
        unsafe fn sum(self) -> f64 {
            _mm512_reduce_add_pd(self.0)
        }
        #[inline(always)]
        unsafe fn carry(self, unit: f64) -> Option<(Self, Self)> {
            let half = _mm512_set1_pd(0.5 * unit);
            if _mm512_cmp_pd_mask::<_CMP_GT_OQ>(_mm512_abs_pd(self.0), half) == 0 {
                return None;
            }
            let unit = _mm512_set1_pd(unit);
            let d = _mm512_roundscale_pd::<NEAREST>(_mm512_div_pd(self.0, unit));
            Some((Self(d), Self(_mm512_sub_pd(self.0, _mm512_mul_pd(d, unit)))))
        }
        #[inline(always)]
        unsafe fn scan_start() -> Self::Scan {
            (_mm512_setzero_si512(), _mm512_set1_epi64(-1))
        }
        /// One `vgatherdpd` whose lanes are masked by `idx[i] <
        /// values.len()`: a masked-off lane reads nothing and stays zero.
        /// The offsets are signed, so `values` must hold at most
        /// `i32::MAX` values (`gather_f64_avx512`).
        #[inline(always)]
        unsafe fn gather(values: &[f64], idx: &[u32]) -> (Self, bool) {
            debug_assert!(idx.len() >= Self::V && values.len() <= i32::MAX as usize);
            let offsets = _mm256_loadu_si256(idx.as_ptr().cast());
            let len = _mm512_set1_epi32(values.len() as i32);
            let in_range =
                _mm512_mask_cmplt_epu32_mask(0xFF, _mm512_castsi256_si512(offsets), len) as u8;
            let zero = _mm512_setzero_pd();
            let r = _mm512_mask_i32gather_pd::<8>(zero, in_range, offsets, values.as_ptr());
            (Self(r), in_range == 0xFF)
        }
        #[inline(always)]
        unsafe fn scan((hi, lo): Self::Scan, x: Self) -> Self::Scan {
            let a = _mm512_and_si512(_mm512_castpd_si512(x.0), _mm512_set1_epi64(i64::MAX));
            let a_less_one = _mm512_sub_epi64(a, _mm512_set1_epi64(1));
            (_mm512_max_epu64(hi, a), _mm512_min_epu64(lo, a_less_one))
        }
        #[inline(always)]
        unsafe fn scan_end((hi, lo): Self::Scan) -> (f64, f64) {
            let lo = match _mm512_reduce_min_epu64(lo) {
                u64::MAX => f64::INFINITY,
                bits => f64::from_bits(bits + 1),
            };
            (f64::from_bits(_mm512_reduce_max_epu64(hi)), lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_values(n: usize, scale: f64) -> Vec<f64> {
        // Deterministic varied data spanning magnitudes and signs.
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                    / (1u64 << 53) as f64;
                (x - 0.5) * scale * (1.0 + (i % 17) as f64)
            })
            .collect()
    }

    #[test]
    fn vectorized_matches_scalar_bitwise_f64() {
        for n in [0, 1, 3, 4, 5, 63, 64, 1000, 4096, 4097, 10_000] {
            let values = pseudo_values(n, 1.0);
            let mut scalar = ReproSum::<f64, 3>::new();
            scalar.add_all(&values);
            let mut simd = ReproSum::<f64, 3>::new();
            add_slice(&mut simd, &values);
            assert_eq!(scalar.value().to_bits(), simd.value().to_bits(), "n = {n}");
            assert_eq!(scalar.canonical_state(), simd.canonical_state(), "n = {n}");
        }
    }

    #[test]
    fn vectorized_matches_scalar_bitwise_f32() {
        for n in [0, 1, 7, 8, 9, 127, 128, 129, 5000] {
            let values: Vec<f32> = pseudo_values(n, 3.0).iter().map(|&v| v as f32).collect();
            let mut scalar = ReproSum::<f32, 2>::new();
            scalar.add_all(&values);
            let mut simd = ReproSum::<f32, 2>::new();
            add_slice(&mut simd, &values);
            assert_eq!(scalar.value().to_bits(), simd.value().to_bits(), "n = {n}");
        }
    }

    #[test]
    fn chunked_calls_match_single_call() {
        // Mimics summation-buffer usage: many short calls must equal one
        // long call bit-for-bit.
        let values = pseudo_values(10_000, 2.0);
        let mut whole = ReproSum::<f64, 2>::new();
        add_slice(&mut whole, &values);
        for chunk_size in [2, 12, 48, 512, 1000] {
            let mut chunked = ReproSum::<f64, 2>::new();
            for c in values.chunks(chunk_size) {
                add_slice(&mut chunked, c);
            }
            assert_eq!(
                whole.value().to_bits(),
                chunked.value().to_bits(),
                "chunk size {chunk_size}"
            );
        }
    }

    #[test]
    fn mid_stream_ladder_promotion() {
        // A block of small values followed by a block with a huge value:
        // the lane window must shift identically to the scalar path.
        let mut values = pseudo_values(6000, 1e-6);
        values.push(1e200);
        values.extend(pseudo_values(6000, 1.0));
        let mut scalar = ReproSum::<f64, 4>::new();
        scalar.add_all(&values);
        let mut simd = ReproSum::<f64, 4>::new();
        add_slice(&mut simd, &values);
        assert_eq!(scalar.value().to_bits(), simd.value().to_bits());
    }

    #[test]
    fn specials_inside_blocks() {
        let mut values = pseudo_values(100, 1.0);
        values.push(f64::INFINITY);
        values.extend(pseudo_values(100, 1.0));
        let mut acc = ReproSum::<f64, 2>::new();
        add_slice(&mut acc, &values);
        assert_eq!(acc.value(), f64::INFINITY);

        let mut values = pseudo_values(100, 1.0);
        values.push(f64::NAN);
        let mut acc = ReproSum::<f64, 2>::new();
        add_slice(&mut acc, &values);
        assert!(acc.value().is_nan());
    }

    #[test]
    fn all_zero_blocks() {
        let values = vec![0.0f64; 5000];
        let mut acc = ReproSum::<f64, 2>::new();
        add_slice(&mut acc, &values);
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
    }

    /// A width's entry point, by name.
    type Kernel<T, const L: usize> = (&'static str, fn(&mut ReproSum<T, L>, &[T]));

    /// Every `f64` width this CPU can run.
    fn widths_f64<const L: usize>() -> Vec<Kernel<f64, L>> {
        let mut widths: Vec<Kernel<f64, L>> = vec![("portable", add_slice_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if cpu::avx2_supported() {
                // SAFETY: pushed only where AVX2 was detected.
                widths.push(("avx2", |a, v| unsafe { x86::f64_avx2(a, v, None) }));
            }
            if cpu::avx512_supported() {
                // SAFETY: pushed only where AVX-512F was detected.
                widths.push(("avx512", |a, v| unsafe { x86::f64_avx512(a, v, None) }));
            }
        }
        widths
    }

    /// Every `f32` width this CPU can run.
    fn widths_f32<const L: usize>() -> Vec<Kernel<f32, L>> {
        let mut widths: Vec<Kernel<f32, L>> = vec![("portable", add_slice_portable)];
        #[cfg(target_arch = "x86_64")]
        if cpu::avx2_supported() {
            // SAFETY: pushed only where AVX2 was detected.
            widths.push(("avx2", |a, v| unsafe { x86::f32_avx2(a, v) }));
        }
        widths
    }

    /// Every length `0..=2·lanes+1` of the widest width, at two start
    /// offsets into `pool`, through every width equals the scalar cascade
    /// — the full groups, the zero-padded last group and nothing else.
    fn check_tails<T: ReproFloat, const L: usize>(widths: &[Kernel<T, L>], pool: &[T]) {
        for &(name, kernel) in widths {
            for len in 0..=2 * MAX_LANES + 1 {
                for start in [0, 3] {
                    let values = &pool[start..start + len];
                    let mut want = ReproSum::<T, L>::new();
                    want.add_all(values);
                    let mut got = ReproSum::<T, L>::new();
                    kernel(&mut got, values);
                    let ctx = format!("{name} L={L} len={len} start={start}");
                    assert_eq!(got.canonical_state(), want.canonical_state(), "{ctx}");
                    assert_eq!(got.value(), want.value(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn tails_of_every_width_type_and_level_count() {
        let pool = pseudo_values(2 * MAX_LANES + 4, 1e3);
        let pool32: Vec<f32> = pool.iter().map(|&v| v as f32).collect();
        check_tails(&widths_f64::<1>(), &pool);
        check_tails(&widths_f64::<2>(), &pool);
        check_tails(&widths_f64::<3>(), &pool);
        check_tails(&widths_f64::<4>(), &pool);
        check_tails(&widths_f32::<1>(), &pool32);
        check_tails(&widths_f32::<2>(), &pool32);
        check_tails(&widths_f32::<3>(), &pool32);
        check_tails(&widths_f32::<4>(), &pool32);
    }

    #[test]
    fn depth_counts_levels_to_the_lowest_reachable_bit() {
        // 1.0's rung is e = 18 (f64); the smallest value decides.
        let top = f64::bin_for(1.0).unwrap();
        assert_eq!(f64::bin_exp(top), 18);
        assert_eq!(depth(top, f64::INFINITY, 4), 0);
        assert_eq!(depth(top, 1.0, 4), 2); // 18 - 0 = 18 ≤ 40
        assert_eq!(depth(top, f64::exp2i(-22), 4), 2); // exactly one rung
        assert_eq!(depth(top, f64::exp2i(-23), 4), 3); // one bit below it
        assert_eq!(depth(top, 1e-300, 4), 4); // clamped to L
        assert_eq!(depth(top, 1e-300, 2), 2);
        // The bottom rung: every value, denormals included, is on its grid.
        let bottom = f64::NUM_BINS - 1;
        assert_eq!(depth(bottom, f64::from_bits(1), 4), 1);
        assert_eq!(depth(f32::NUM_BINS - 1, f32::from_bits(1), 4), 1);
    }
}

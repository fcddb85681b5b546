//! Forced-dispatch bit-identity tests of the block kernel's widths.
//!
//! The paper's contract: vectorization is a *pure performance choice* —
//! the AVX-512 and AVX2 widths, the portable lane-array width and the
//! scalar cascade must all produce bit-identical accumulator states. These
//! tests force each dispatch level in turn (via
//! [`rfa_core::cpu::set_override`], serialized by a local mutex since the
//! override is process-global) and compare:
//!
//! * dispatched [`simd::add_slice`] vs. the scalar `add_all` cascade,
//! * forced-scalar vs. forced-AVX2 / forced-AVX-512 `add_slice` directly
//!   (each leg skipped on hardware without the feature),
//! * promotion, special values and chunk-boundary cases,
//! * chunks engineered to need exactly 1, 2, 3, 4 (and 5) cascade levels,
//!   with a value whose lowest bit sits exactly on the deepest needed
//!   level's grid or one bit below it.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_core::cpu::{self, SimdLevel};
use rfa_core::{simd, ReproFloat, ReproSum, SummationBuffer};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global dispatch override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_guard() -> MutexGuard<'static, ()> {
    // A prior panicking test poisons the mutex without invalidating the
    // override state (each user restores `None` or sets its own level).
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under a forced dispatch level, restoring auto afterwards.
fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let _guard = override_guard();
    cpu::set_override(Some(level));
    let r = f();
    cpu::set_override(None);
    r
}

/// The explicit kernel levels this CPU can force (beyond scalar). At the
/// AVX-512 level `add_slice` runs its own 8-lane width for `f64` and the
/// AVX2 width for `f32`.
fn forced_levels() -> Vec<SimdLevel> {
    let mut levels = Vec::new();
    if cpu::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    if cpu::avx512_supported() {
        levels.push(SimdLevel::Avx512);
    }
    levels
}

/// `add_slice` under every forced level; panics if any disagree. Returns
/// the (common) finalized bits. On hardware without the explicit kernels
/// only the scalar level runs.
fn both_levels_f64<const L: usize>(values: &[f64]) -> (u64, (u32, [u64; L], [i64; L])) {
    let scalar = with_level(SimdLevel::Scalar, || {
        let mut acc = ReproSum::<f64, L>::new();
        simd::add_slice(&mut acc, values);
        (acc.value().to_bits(), acc.canonical_state())
    });
    for level in forced_levels() {
        let vectored = with_level(level, || {
            let mut acc = ReproSum::<f64, L>::new();
            simd::add_slice(&mut acc, values);
            (acc.value().to_bits(), acc.canonical_state())
        });
        assert_eq!(scalar, vectored, "scalar and {level} kernels disagree");
    }
    scalar
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => -1.0e3..1.0e3f64,
        2 => (-1.0..1.0f64).prop_map(|v| v * 1e300),
        2 => (-1.0..1.0f64).prop_map(|v| v * 1e-300),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(5e-324),
        1 => (1i32..1000).prop_map(|k| k as f64 * 2f64.powi(-53)),
    ]
}

/// Finite values plus the specials (NaN/±∞) that force the cold path.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        10 => finite_f64(),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::MAX),
    ]
}

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        5 => -1.0e3..1.0e3f32,
        2 => (-1.0..1.0f32).prop_map(|v| v * 1e30),
        2 => (-1.0..1.0f32).prop_map(|v| v * 1e-30),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::from_bits(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dispatched `add_slice` equals the scalar cascade for finite data,
    /// and the forced levels equal each other.
    #[test]
    fn dispatched_matches_cascade_f64(values in vec(finite_f64(), 0..5000)) {
        let mut cascade = ReproSum::<f64, 3>::new();
        cascade.add_all(&values);
        let expected = (cascade.value().to_bits(), cascade.canonical_state());
        prop_assert_eq!(both_levels_f64::<3>(&values), expected);
    }

    /// Specials (NaN, ±∞, overflow-magnitude values) interleaved with
    /// binnable data: the cold path and the lane shift must agree across
    /// kernels.
    #[test]
    fn dispatched_matches_cascade_f64_with_specials(values in vec(any_f64(), 0..600)) {
        let mut cascade = ReproSum::<f64, 2>::new();
        cascade.add_all(&values);
        let expected = (cascade.value().to_bits(), cascade.canonical_state());
        prop_assert_eq!(both_levels_f64::<2>(&values), expected);
    }

    /// A magnitude jump mid-stream promotes the ladder; both kernels must
    /// shift their in-register lane state identically to the scalar path.
    #[test]
    fn mid_stream_promotion_is_level_independent(
        small in vec((-1.0..1.0f64).prop_map(|v| v * 1e-12), 64..2000),
        big in (0.5..1.0f64).prop_map(|v| v * 1e250),
        more in vec(finite_f64(), 0..2000),
    ) {
        let mut values = small;
        values.push(big);
        values.extend(more);
        let mut cascade = ReproSum::<f64, 4>::new();
        cascade.add_all(&values);
        let expected = (cascade.value().to_bits(), cascade.canonical_state());
        prop_assert_eq!(both_levels_f64::<4>(&values), expected);
    }

    /// Chunked calls at adversarial boundaries (including mid-block and
    /// mid-vector splits) match one whole-slice call under every level.
    #[test]
    fn chunk_boundaries_are_level_independent(
        values in vec(finite_f64(), 0..3000),
        chunk in 1usize..1100,
    ) {
        let whole = both_levels_f64::<2>(&values);
        let chunked = with_level(SimdLevel::Scalar, || {
            let mut acc = ReproSum::<f64, 2>::new();
            for c in values.chunks(chunk) {
                simd::add_slice(&mut acc, c);
            }
            (acc.value().to_bits(), acc.canonical_state())
        });
        prop_assert_eq!(whole, chunked);
        for level in forced_levels() {
            let chunked_vec = with_level(level, || {
                let mut acc = ReproSum::<f64, 2>::new();
                for c in values.chunks(chunk) {
                    simd::add_slice(&mut acc, c);
                }
                (acc.value().to_bits(), acc.canonical_state())
            });
            prop_assert_eq!(whole, chunked_vec, "level {}", level);
        }
    }

    /// The f32 kernel (8 lanes, 16-deposit blocks) under both levels.
    #[test]
    fn dispatched_matches_cascade_f32(values in vec(finite_f32(), 0..4000)) {
        let mut cascade = ReproSum::<f32, 2>::new();
        cascade.add_all(&values);
        let expected = cascade.value().to_bits();
        let scalar = with_level(SimdLevel::Scalar, || {
            let mut acc = ReproSum::<f32, 2>::new();
            simd::add_slice(&mut acc, &values);
            acc.value().to_bits()
        });
        prop_assert_eq!(scalar, expected);
        for level in forced_levels() {
            let vectored = with_level(level, || {
                let mut acc = ReproSum::<f32, 2>::new();
                simd::add_slice(&mut acc, &values);
                acc.value().to_bits()
            });
            prop_assert_eq!(vectored, expected, "level {}", level);
        }
    }

    /// `SummationBuffer::push_slice` (the agg routing path) is
    /// level-independent and matches per-value pushes.
    #[test]
    fn buffered_push_slice_is_level_independent(
        values in vec(finite_f64(), 0..3000),
        bsz in 1usize..600,
        chunk in 1usize..900,
    ) {
        let mut reference = ReproSum::<f64, 2>::new();
        reference.add_all(&values);
        let expected = reference.value().to_bits();
        for level in std::iter::once(SimdLevel::Scalar).chain(forced_levels()) {
            let got = with_level(level, || {
                let mut buf = SummationBuffer::<f64, 2>::new(bsz);
                for c in values.chunks(chunk) {
                    buf.push_slice(c);
                }
                buf.finalize().to_bits()
            });
            prop_assert_eq!(got, expected, "level {:?}", level);
        }
    }
}

/// The portable entry point stays directly callable (benchmarks use it)
/// and equals the dispatched kernel.
#[test]
fn portable_entry_point_matches_dispatch() {
    let values: Vec<f64> = (0..10_000)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / 1e15 - 4.0)
        .collect();
    let mut portable = ReproSum::<f64, 4>::new();
    simd::add_slice_portable(&mut portable, &values);
    let mut dispatched = ReproSum::<f64, 4>::new();
    simd::add_slice(&mut dispatched, &values);
    assert_eq!(portable.value().to_bits(), dispatched.value().to_bits());
    assert_eq!(portable.canonical_state(), dispatched.canonical_state());
}

/// `(1 + 2^-m) · 2^e`: exponent `e` and a full significand, so its lowest
/// set bit is `2^(e − m)` — the finest bit a value of exponent `e` can
/// carry, which is what the level count must reach.
fn full<T: ReproFloat>(e: i32) -> T {
    T::exp2i(e) + T::exp2i(e - T::MANTISSA_BITS)
}

/// Deterministic magnitudes in `[0.5, 1)`, alternating in sign.
fn unit_fill<T: ReproFloat>(n: usize, seed: u64) -> Vec<T> {
    (0..n as u64)
        .map(|i| {
            let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            let v = 0.5 + x as f64 / (1u64 << 54) as f64;
            T::from_f64(if i % 2 == 0 { v } else { -v })
        })
        .collect()
}

/// Chunks whose cascade depth is known, `len` values each, by label.
///
/// All but two live under `1.0`'s rung `e_top` and contain its largest
/// admissible magnitude, so `top` is that rung whatever else they hold;
/// the filler alone needs 2 levels. A value of exponent `e_top − k·W`
/// lies exactly on level `k`'s grid (needs `k + 1` levels), one of
/// exponent `e_top − k·W − 1` one bit below it (needs `k + 2`). Each such
/// value sits mid-slice and again as the last value (in the zero-padded
/// tail group).
fn depth_chunks<T: ReproFloat>(len: usize) -> Vec<(String, Vec<T>)> {
    let top = T::bin_for(T::ONE).expect("1.0 is binnable");
    let e_top = T::bin_exp(top);
    let e_max = e_top - T::MANTISSA_BITS + T::W - 2;
    assert_eq!(T::bin_for(T::exp2i(e_max)), Some(top), "fills the rung");
    let fill: Vec<T> = unit_fill::<T>(len, 7)
        .into_iter()
        .map(|u| u * T::exp2i(e_max + 1))
        .collect();
    let with = |v: T| {
        let mut chunk = fill.clone();
        chunk[len / 2] = v;
        chunk[len - 1] = -v;
        chunk
    };
    let mut chunks = vec![("2 levels: filler only".to_string(), fill.clone())];
    for k in 1..=3 {
        let e = e_top - k * T::W;
        chunks.push((
            format!("{} levels: on level {k}'s grid", k + 1),
            with(full(e)),
        ));
        chunks.push((
            format!("{} levels: one bit below", k + 2),
            with(full(e - 1)),
        ));
    }
    chunks.push(("tiny among large".into(), with(full(e_top - 5 * T::W))));
    // The bottom rung, whose grid is the denormal floor: one level.
    let floor = T::bin_exp(T::NUM_BINS - 1) - T::MANTISSA_BITS;
    let denormals = unit_fill::<T>(len, 9)
        .into_iter()
        .enumerate()
        .map(|(i, u)| {
            u * T::exp2i(floor + T::W - 3) + T::exp2i(floor) * T::from_f64((i % 2) as f64)
        })
        .collect();
    chunks.push(("1 level: denormals at the bottom rung".into(), denormals));
    let zeros = (0..len).map(|i| if i % 3 == 0 { -T::ZERO } else { T::ZERO });
    chunks.push(("0 levels: all ±0.0".into(), zeros.collect()));
    // Two rungs lower first, then the full rung: a promotion mid-slice.
    let mut promoted: Vec<T> = fill[..len / 2]
        .iter()
        .map(|&v| v * T::exp2i(-2 * T::W))
        .collect();
    promoted.extend(with(full(e_top - 2 * T::W))[len / 2..].iter().copied());
    chunks.push(("promotion mid-slice".into(), promoted));
    chunks
}

/// Per-row deposits of `values` into a fresh accumulator at the depth the
/// engine's per-row loop would pick: the largest magnitude sets the rung,
/// the smallest non-zero one the level count ([`simd::depth`]), and every
/// value goes through [`ReproSum::add_levels`] at that count. (The
/// engine takes the two from [`simd::scan`], which
/// `scan_is_one_pair_at_every_level` checks against this fold.)
fn per_row_at_depth<T: ReproFloat, const L: usize>(values: &[T]) -> ReproSum<T, L> {
    let mut acc = ReproSum::<T, L>::new();
    let mags = values.iter().map(|v| v.abs());
    let hi = mags.clone().fold(T::ZERO, |m, v| if v > m { v } else { m });
    let lo = mags
        .filter(|&v| v != T::ZERO)
        .fold(T::infinity(), |m, v| if v < m { v } else { m });
    let bottom = acc.top_rung() as usize;
    let top = if hi == T::ZERO {
        bottom
    } else {
        T::bin_for(hi).expect("finite inputs").min(bottom)
    };
    let add = |acc: &mut ReproSum<T, L>, f: fn(&mut ReproSum<T, L>, T)| {
        values.iter().for_each(|&v| f(acc, v))
    };
    match simd::depth(top, lo, L) {
        0 | 1 => add(&mut acc, ReproSum::add_levels::<1>),
        2 => add(&mut acc, ReproSum::add_levels::<2>),
        3 => add(&mut acc, ReproSum::add_levels::<3>),
        _ => add(&mut acc, ReproSum::add_levels::<L>),
    }
    acc
}

/// `add_slice` under every forced level equals the scalar cascade, state
/// and rounded value — and so do per-row deposits at the depth the slice
/// scan gives ([`per_row_at_depth`]).
fn assert_depths<T: ReproFloat, const L: usize>(lengths: &[usize]) {
    let levels: Vec<SimdLevel> = std::iter::once(SimdLevel::Scalar)
        .chain(forced_levels())
        .collect();
    for &len in lengths {
        for (label, values) in depth_chunks::<T>(len) {
            let mut cascade = ReproSum::<T, L>::new();
            cascade.add_all(&values);
            for &level in &levels {
                let (got, per_row) = with_level(level, || {
                    let mut acc = ReproSum::<T, L>::new();
                    simd::add_slice(&mut acc, &values);
                    (acc, per_row_at_depth::<T, L>(&values))
                });
                for (path, got) in [("add_slice", got), ("per-row", per_row)] {
                    let ctx = format!("{path}: {label}, len {len}, {level}, L = {L}");
                    assert_eq!(got.canonical_state(), cascade.canonical_state(), "{ctx}");
                    assert_eq!(
                        got.value().to_f64().to_bits(),
                        cascade.value().to_f64().to_bits(),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// `simd::scan` returns one `(max, min non-zero)` pair at every level:
/// NaN for the max of a slice holding NaN or ±∞, `+∞` for the min of one
/// without a non-zero value, at lengths around every width's tail.
#[test]
fn scan_is_one_pair_at_every_level() {
    let base: Vec<f64> = (0..37).map(|i| (i as f64 - 18.0) * 0.375).collect();
    let mut cases = vec![vec![], vec![0.0, -0.0], vec![5e-324, -0.0, 1e300]];
    for special in [f64::NAN, f64::INFINITY, -f64::INFINITY, -f64::MAX] {
        for at in [0, 16, 36] {
            let mut v = base.clone();
            v[at] = special;
            cases.push(v);
        }
    }
    for len in 0..=base.len() {
        cases.push(base[..len].to_vec());
    }
    for values in &cases {
        let max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let nonzero = values.iter().filter(|v| **v != 0.0).map(|v| v.abs());
        let min = nonzero.fold(f64::INFINITY, f64::min);
        let finite = values.iter().all(|v| v.is_finite());
        for level in std::iter::once(SimdLevel::Scalar).chain(forced_levels()) {
            let (hi, lo) = with_level(level, || simd::scan(values));
            let ctx = format!("{level}: {values:?}");
            if finite {
                assert_eq!(hi.to_bits(), max.to_bits(), "{ctx}");
            } else {
                assert!(hi.is_nan(), "{ctx}");
            }
            // The min of a NaN slice is the min of its other values.
            if values.iter().all(|v| !v.is_nan()) {
                assert_eq!(lo.to_bits(), min.to_bits(), "{ctx}");
            }
        }
    }
}

/// The level count never drops a bit: chunks needing exactly 1…5 levels,
/// boundary values on and one bit below a level's grid, zeros, denormals
/// and a mid-slice promotion, at lengths `V·NB ± 1` of every width, under
/// every forced level and `L ∈ 1..=4`.
#[test]
fn level_count_boundaries_match_the_cascade() {
    // V·NB: 4·1024 (AVX2 f64), 8·1024 (AVX-512 f64), 4·1024 (portable
    // f64); 8·16 for f32 at every width.
    let f64_lengths = [2, 4095, 4096, 4097, 8191, 8192, 8193];
    assert_depths::<f64, 1>(&f64_lengths);
    assert_depths::<f64, 2>(&f64_lengths);
    assert_depths::<f64, 3>(&f64_lengths);
    assert_depths::<f64, 4>(&f64_lengths);
    let f32_lengths = [2, 127, 128, 129, 255, 256, 257];
    assert_depths::<f32, 1>(&f32_lengths);
    assert_depths::<f32, 2>(&f32_lengths);
    assert_depths::<f32, 3>(&f32_lengths);
    assert_depths::<f32, 4>(&f32_lengths);
}

/// `n` deterministic values over many binades, both signs, with `−0.0`,
/// `+0.0` and subnormals among them; with `specials`, NaN, ±∞ and values
/// at and near `2^HUGE_EXP` too.
fn gather_pool(n: usize, specials: bool) -> Vec<f64> {
    let huge = f64::exp2i(f64::HUGE_EXP);
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            let u = 0.5 + x as f64 / (1u64 << 54) as f64;
            let v = u * 2f64.powi((x % 120) as i32 - 60);
            match i % 97 {
                3 => -0.0,
                5 => 0.0,
                7 => f64::from_bits(1 + x % 1000),
                11 => 0.75 * huge,
                13 if specials => f64::NAN,
                17 if specials => f64::INFINITY,
                19 if specials => f64::NEG_INFINITY,
                23 if specials => huge,
                _ if i % 2 == 0 => v,
                _ => -v,
            }
        })
        .collect()
}

/// `len` indices into a `span`-long slice, in a scattered order.
fn scattered(len: usize, span: usize) -> Vec<u32> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 17) as usize % span)
        .map(|i| i as u32)
        .collect()
}

/// `simd::gather` writes exactly the scalar gather and returns exactly
/// `simd::scan` of what it wrote, at every level, for lengths around
/// every width's tail and past a kernel chunk.
#[test]
fn gather_is_a_scalar_gather_and_its_scan() {
    let lengths = (0..=40).chain([4096, 8193]);
    for len in lengths {
        for specials in [false, true] {
            let values = gather_pool(len.max(1) + 7, specials);
            let idx = scattered(len, values.len());
            let want: Vec<u64> = idx.iter().map(|&i| values[i as usize].to_bits()).collect();
            for level in std::iter::once(SimdLevel::Scalar).chain(forced_levels()) {
                let (got, pair, scanned) = with_level(level, || {
                    let mut out = vec![1.0; len];
                    let pair = simd::gather(&values, &idx, &mut out);
                    let scanned = simd::scan(&out);
                    (out, pair, scanned)
                });
                let ctx = format!("{level} len={len} specials={specials}");
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{ctx}");
                assert_eq!(pair.0.to_bits(), scanned.0.to_bits(), "{ctx}");
                assert_eq!(pair.1.to_bits(), scanned.1.to_bits(), "{ctx}");
            }
        }
    }
}

/// `add_scanned` with the slice's own pair equals `add_slice`, state for
/// state, on slices of several kernel chunks (`8 · 1 024` values at the
/// widest width) — with the largest value in the last chunk, the smallest
/// in the first, specials, and the level-count boundary chunks — at every
/// level and `L ∈ 1..=4`.
#[test]
fn add_scanned_matches_add_slice_across_chunks() {
    fn check<const L: usize>(name: &str, values: &[f64]) {
        for level in std::iter::once(SimdLevel::Scalar).chain(forced_levels()) {
            let (sliced, scanned) = with_level(level, || {
                let mut sliced = ReproSum::<f64, L>::new();
                simd::add_slice(&mut sliced, values);
                let mut scanned = ReproSum::<f64, L>::new();
                simd::add_scanned(&mut scanned, values, simd::scan(values));
                (sliced, scanned)
            });
            let ctx = format!("{level} L={L} {name} len={}", values.len());
            assert_eq!(scanned.canonical_state(), sliced.canonical_state(), "{ctx}");
            assert_eq!(scanned.value().to_bits(), sliced.value().to_bits(), "{ctx}");
        }
    }
    let n = 3 * 8 * 1024 + 5;
    let fill = unit_fill::<f64>(n, 3);
    let mut cases = vec![("unit".to_string(), fill.clone())];
    let mut last_max = fill.clone();
    last_max[n - 2] = 1.5 * 2f64.powi(70);
    cases.push(("largest in the last chunk".into(), last_max));
    let mut first_min = fill.clone();
    first_min[1] = full::<f64>(-90);
    first_min[n - 1] = 2f64.powi(40);
    cases.push(("smallest first, largest last".into(), first_min));
    let mut tiny_last = fill.iter().map(|v| v * 2f64.powi(-30)).collect::<Vec<_>>();
    tiny_last[0] = 3.0;
    tiny_last[n - 3] = f64::from_bits(3);
    cases.push(("subnormal in the last chunk".into(), tiny_last));
    cases.push(("many binades".into(), gather_pool(n, false)));
    cases.push(("specials".into(), gather_pool(n, true)));
    for len in [8193, 2 * 8192 + 1] {
        cases.extend(depth_chunks::<f64>(len));
    }
    for (name, values) in &cases {
        check::<1>(name, values);
        check::<2>(name, values);
        check::<3>(name, values);
        check::<4>(name, values);
    }
}

/// An index past the end panics at every level — in a full register and
/// in the tail, before anything out of bounds is read.
#[test]
fn gather_panics_on_an_out_of_range_index() {
    let values = gather_pool(64, false);
    for level in std::iter::once(SimdLevel::Scalar).chain(forced_levels()) {
        for (len, at) in [(16, 3), (16, 15), (19, 17), (1, 0)] {
            for bad in [64u32, 65, u32::MAX, i32::MAX as u32 + 1] {
                let mut idx = scattered(len, values.len());
                idx[at] = bad;
                let _guard = override_guard();
                cpu::set_override(Some(level));
                let caught = std::panic::catch_unwind(|| {
                    let mut out = vec![0.0; len];
                    simd::gather(&values, &idx, &mut out)
                });
                cpu::set_override(None);
                assert!(caught.is_err(), "{level} len={len} idx[{at}]={bad}");
            }
        }
    }
}

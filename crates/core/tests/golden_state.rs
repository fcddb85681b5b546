//! Pinned bits of the state layer.
//!
//! Every other bit-identity test compares one deposit path with another,
//! so a change that moves every path together passes them all. This file
//! holds the bits themselves: the hex `value()`, `special()` and
//! `canonical_state()` of fixed streams for `f64` at `L` 1..=4 and `f32` at
//! `L` 1..=3. Each stream goes through every deposit path:
//!
//! * `add`, value by value;
//! * `add_levels` at the depth the stream's own scan gives;
//! * `simd::add_slice` at every dispatch level the CPU has;
//! * for `f64`, `simd::gather` out of a wider slice and `simd::add_scanned`
//!   with the pair the gather returns, at every dispatch level;
//! * a two-way `merge` of the stream's halves.
//!
//! All five must land on the stream's one `multiset` line. `add_scaled`
//! deposits every value `k` times (`k` cycling through `SCALED_KS`) and
//! must land on the stream's `scaled` line.
//!
//! The streams promote the ladder mid-stream, cross carry blocks, cancel to
//! `±0.0`, mix subnormals with values just below the binnable limit
//! (`2^HUGE_EXP`), hold NaN and ±∞, and put one value in each of three
//! levels so that `value()` rounds up only when it adds the levels from the
//! deepest up. A line that moves is a change to the summation's results: it
//! must be deliberate and said so.

use rfa_core::cpu::{self, SimdLevel};
use rfa_core::{simd, ReproFloat, ReproSum};

/// Multiplicities the `scaled` path cycles through: single deposits,
/// multiples that cross a carry block of either format, and one large
/// enough to split the products near the binnable limit.
const SCALED_KS: [u64; 7] = [1, 2, 3, 17, 1025, 5000, 1 << 24];

/// `n` fixed pseudo-random values in `[-scale, scale)`, exact in `T`.
fn noise<T: ReproFloat>(n: usize, seed: u64, scale: f64) -> Vec<T> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
            T::from_f64((2.0 * unit - 1.0) * scale)
        })
        .collect()
}

/// The named streams, the same recipe for both formats.
fn streams<T: ReproFloat>() -> Vec<(&'static str, Vec<T>)> {
    let p = |e: i32| T::exp2i(e);
    let f = T::from_f64;
    let huge = T::HUGE_EXP;
    // The smallest subnormal: the bottom rung's grid.
    let tiny = p(T::bin_exp(T::NUM_BINS - 1) - T::MANTISSA_BITS);

    // Small values past a carry block, a value that promotes the ladder
    // by several rungs, and more small values past another block.
    let mut promote = noise::<T>(1100, 1, 0.125);
    promote.push(f(1.75) * p(40));
    promote.extend(noise::<T>(1100, 2, 1.0));

    // Every value meets its negation; zeros of both signs.
    let mut cancel = vec![-T::ZERO, f(1.5), p(60), T::ZERO, f(1e-5)];
    cancel.extend(noise::<T>(40, 3, 100.0));
    let negated: Vec<T> = cancel.iter().rev().map(|&v| -v).collect();
    cancel.extend(negated);

    // Subnormals beside values just under the binnable limit.
    let mut extremes = vec![tiny, f(1.5) * p(huge - 1), -tiny, f(3.0) * tiny];
    extremes.extend(noise::<T>(30, 4, 1.0));
    extremes.extend([-(p(huge - 1)), tiny, f(1.75) * p(huge - 2), p(huge - 60)]);

    // ±∞ inside finite data, and an overflow-magnitude finite value.
    let mut pos_inf = noise::<T>(50, 5, 10.0);
    pos_inf.push(T::infinity());
    pos_inf.extend(noise::<T>(50, 6, 10.0));
    pos_inf.push(p(huge));

    let mut neg_inf = noise::<T>(20, 7, 1e3);
    neg_inf.extend([T::neg_infinity(), -p(huge), f(2.5)]);

    // NaN, and +∞ meeting −∞.
    let mut nan = noise::<T>(20, 8, 1.0);
    nan.extend([T::infinity(), f(1.0), T::neg_infinity()]);
    let mut nan_seen = noise::<T>(20, 9, 1.0);
    nan_seen.extend([T::nan(), f(-3.0)]);

    // Half an ulp of the top level's value in the next level — a tie to
    // even — and a value one level deeper that breaks it: `value()` rounds
    // up only when it adds the deepest levels first. (`f32`'s half ulp of
    // `1.0` already lies two levels down, so its stream starts lower.)
    let level_order = if T::MANTISSA_BITS == 52 {
        vec![f(1.0), p(-53), p(-90)]
    } else {
        vec![p(-10), p(-34), p(-44)]
    };

    vec![
        ("promote", promote),
        ("cancel", cancel),
        ("extremes", extremes),
        ("pos_inf", pos_inf),
        ("neg_inf", neg_inf),
        ("inf_minus_inf", nan),
        ("nan", nan_seen),
        ("level_order", level_order),
    ]
}

/// One state as a line: the hex of `value()`, the special state, the top
/// rung, the level sums' bits and the carries.
fn line<T: ReproFloat, const L: usize>(acc: &ReproSum<T, L>) -> String {
    let (top, sums, carries) = acc.canonical_state();
    let sums: Vec<String> = sums.iter().map(|s| format!("{s:x}")).collect();
    format!(
        "v={:x} {:?} top={top} s=[{}] c={carries:?}",
        acc.value().to_f64().to_bits(),
        acc.special(),
        sums.join(",")
    )
}

/// `(max |v|, min non-zero |v|)`, `None` when a value cannot be binned.
fn scanned<T: ReproFloat>(values: &[T]) -> Option<(T, T)> {
    let mut hi = T::ZERO;
    let mut lo = T::infinity();
    for v in values.iter().map(|v| v.abs()) {
        if !v.is_finite() || v != T::ZERO && T::bin_for(v).is_none() {
            return None;
        }
        hi = hi.max_(v);
        if v != T::ZERO && v < lo {
            lo = v;
        }
    }
    Some((hi, lo))
}

/// `add_levels` at the depth the stream's scan gives (every level when a
/// value is special or past the binnable limit).
fn by_levels<T: ReproFloat, const L: usize>(values: &[T]) -> ReproSum<T, L> {
    let n = match scanned(values) {
        Some((hi, lo)) if hi != T::ZERO => simd::depth(T::bin_for(hi).unwrap(), lo, L),
        Some(_) => 1,
        None => L,
    };
    let mut acc = ReproSum::<T, L>::new();
    for &v in values {
        match n {
            1 => acc.add_levels::<1>(v),
            2 => acc.add_levels::<2>(v),
            3 => acc.add_levels::<3>(v),
            _ => acc.add_levels::<L>(v),
        }
    }
    acc
}

/// Every path of one stream against its two lines; the mismatches.
fn check<T: ReproFloat, const L: usize>(
    format: &str,
    name: &str,
    values: &[T],
    expected: &[(&str, &str)],
    actual: &mut Vec<String>,
) -> Vec<String> {
    let key = |kind: &str| format!("{format} L={L} {name} {kind}");
    let want = |kind: &str| {
        let key = key(kind);
        expected
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| format!("<no line for {key}>"))
    };
    let mut paths: Vec<(String, ReproSum<T, L>)> = Vec::new();

    let mut added = ReproSum::<T, L>::new();
    values.iter().for_each(|&v| added.add(v));
    paths.push(("add".into(), added.clone()));
    paths.push(("add_levels".into(), by_levels::<T, L>(values)));
    let mut levels = vec![SimdLevel::Scalar];
    if cpu::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    if cpu::avx512_supported() {
        levels.push(SimdLevel::Avx512);
    }
    for &level in &levels {
        cpu::set_override(Some(level));
        let mut acc = ReproSum::<T, L>::new();
        simd::add_slice(&mut acc, values);
        cpu::set_override(None);
        paths.push((format!("add_slice at {level}"), acc));
    }
    // `f64` only: the stream at the odd positions of a slice whose even
    // ones hold NaN, which the gather must not pick up.
    let mut lines_f64 = Vec::new();
    if T::MANTISSA_BITS == f64::MANTISSA_BITS {
        let wide: Vec<f64> = (values.iter())
            .flat_map(|v| [f64::NAN, v.to_f64()])
            .collect();
        let idx: Vec<u32> = (0..values.len() as u32).map(|i| 2 * i + 1).collect();
        for &level in &levels {
            cpu::set_override(Some(level));
            let mut out = vec![0.0; idx.len()];
            let pair = simd::gather(&wide, &idx, &mut out);
            let mut acc = ReproSum::<f64, L>::new();
            simd::add_scanned(&mut acc, &out, pair);
            cpu::set_override(None);
            lines_f64.push((format!("gather + add_scanned at {level}"), line(&acc)));
        }
    }
    let (left, right) = values.split_at(values.len() * 2 / 5);
    let mut merged = ReproSum::<T, L>::new();
    left.iter().for_each(|&v| merged.add(v));
    let mut other = ReproSum::<T, L>::new();
    right.iter().for_each(|&v| other.add(v));
    merged.merge(&other);
    paths.push(("merge".into(), merged));

    let mut failures = Vec::new();
    let multiset = want("multiset");
    actual.push(format!("{} | {}", key("multiset"), line(&added)));
    let lines = paths.iter().map(|(path, acc)| (path.clone(), line(acc)));
    for (path, got) in lines.chain(lines_f64) {
        if got != multiset {
            failures.push(format!(
                "{}: {path}\n  got  {got}\n  want {multiset}",
                key("")
            ));
        }
    }

    let mut scaled = ReproSum::<T, L>::new();
    for (i, &v) in values.iter().enumerate() {
        scaled.add_scaled(v, SCALED_KS[i % SCALED_KS.len()]);
    }
    let got = line(&scaled);
    actual.push(format!("{} | {got}", key("scaled")));
    let want = want("scaled");
    if got != want {
        failures.push(format!("{}\n  got  {got}\n  want {want}", key("scaled")));
    }
    failures
}

fn all<T: ReproFloat, const L: usize>(
    format: &str,
    expected: &[(&str, &str)],
    actual: &mut Vec<String>,
) -> Vec<String> {
    streams::<T>()
        .iter()
        .flat_map(|(name, values)| check::<T, L>(format, name, values, expected, actual))
        .collect()
}

#[test]
fn state_bits_are_pinned() {
    let expected: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_once(" | ").expect("`key | state` lines"))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect();
    let mut actual = Vec::new();
    let mut failures = Vec::new();
    failures.extend(all::<f64, 1>("f64", &expected, &mut actual));
    failures.extend(all::<f64, 2>("f64", &expected, &mut actual));
    failures.extend(all::<f64, 3>("f64", &expected, &mut actual));
    failures.extend(all::<f64, 4>("f64", &expected, &mut actual));
    failures.extend(all::<f32, 1>("f32", &expected, &mut actual));
    failures.extend(all::<f32, 2>("f32", &expected, &mut actual));
    failures.extend(all::<f32, 3>("f32", &expected, &mut actual));
    assert!(
        failures.is_empty(),
        "{} pinned state(s) moved:\n{}\n\nthe states this build computes:\n{}",
        failures.len(),
        failures.join("\n"),
        actual.join("\n")
    );
}

/// `format L=… stream kind | state`, one line per stream and kind.
const GOLDEN: &str = "
f64 L=1 promote multiset | v=427c000000000000 Finite top=24 s=[427c000000000000] c=[0]
f64 L=1 promote scaled | v=428c000000000000 Finite top=24 s=[428c000000000000] c=[0]
f64 L=1 cancel multiset | v=0 Finite top=23 s=[0] c=[0]
f64 L=1 cancel scaled | v=c3ec000000000000 Finite top=23 s=[c3ec000000000000] c=[0]
f64 L=1 extremes multiset | v=7eb6000000000000 Finite top=0 s=[7eb6000000000000] c=[0]
f64 L=1 extremes scaled | v=fff0000000000000 Finite top=0 s=[7ed3000000000000] c=[-4096]
f64 L=1 pos_inf multiset | v=7ff0000000000000 PosInf top=25 s=[403b7b2b44384000] c=[0]
f64 L=1 pos_inf scaled | v=7ff0000000000000 PosInf top=25 s=[40ca1724ddcc0d20] c=[-5133]
f64 L=1 neg_inf multiset | v=fff0000000000000 NegInf top=24 s=[c088000000000000] c=[0]
f64 L=1 neg_inf scaled | v=fff0000000000000 NegInf top=24 s=[41cfe5ca20000000] c=[0]
f64 L=1 inf_minus_inf multiset | v=7ff8000000000000 Nan top=25 s=[401322eaed7a0000] c=[0]
f64 L=1 inf_minus_inf scaled | v=7ff8000000000000 Nan top=25 s=[40d50764097a9a60] c=[375]
f64 L=1 nan multiset | v=7ff8000000000000 Nan top=25 s=[c005aab322420000] c=[0]
f64 L=1 nan scaled | v=7ff8000000000000 Nan top=25 s=[c0c12f738edadb00] c=[-293]
f64 L=2 promote multiset | v=427c00000000be61 Finite top=24 s=[427c000000000000,4027cc194c2c0000] c=[0, 0]
f64 L=2 promote scaled | v=428bfffeab5c6ed6 Finite top=24 s=[428c000000000000,40dae376afb9a320] c=[0, -43]
f64 L=2 cancel multiset | v=0 Finite top=23 s=[0,0] c=[0, 0]
f64 L=2 cancel scaled | v=c3ec000000000061 Finite top=23 s=[c3ec000000000000,c1084e0000000000] c=[0, 0]
f64 L=2 extremes multiset | v=7eb6000000000000 Finite top=0 s=[7eb6000000000000,7b00000000000000] c=[0, 0]
f64 L=2 extremes scaled | v=fff0000000000000 Finite top=0 s=[7ed3000000000000,7b18000000000000] c=[-4096, 0]
f64 L=2 pos_inf multiset | v=7ff0000000000000 PosInf top=25 s=[403b7b2b44384000,3de1c92800000000] c=[0, 0]
f64 L=2 pos_inf scaled | v=7ff0000000000000 PosInf top=25 s=[40ca1724ddcc0d20,3e5d605438000000] c=[-5133, 3394]
f64 L=2 neg_inf multiset | v=fff0000000000000 NegInf top=24 s=[c088000000000000,40478627c8378000] c=[0, 0]
f64 L=2 neg_inf scaled | v=fff0000000000000 NegInf top=24 s=[41cfe5ca20000000,40db9ad40ea68fb0] c=[0, 3275]
f64 L=2 inf_minus_inf multiset | v=7ff8000000000000 Nan top=25 s=[401322eaed7a0000,3dd6590c00000000] c=[0, 0]
f64 L=2 inf_minus_inf scaled | v=7ff8000000000000 Nan top=25 s=[40d50764097a9a60,3e442b5dd0000000] c=[375, 13684]
f64 L=2 nan multiset | v=7ff8000000000000 Nan top=25 s=[c005aab322420000,bdd3a02800000000] c=[0, 0]
f64 L=2 nan scaled | v=7ff8000000000000 Nan top=25 s=[c0c12f738edadb00,3e12417140000000] c=[-293, 4562]
f64 L=3 promote multiset | v=427c00000000be61 Finite top=24 s=[427c000000000000,4027cc194c2c0000,3de30b3240000000] c=[0, 0, 0]
f64 L=3 promote scaled | v=428bfffeab5c6ecc Finite top=24 s=[428c000000000000,40dae376afb9a320,3e511edea7800000] c=[0, -43, -83082]
f64 L=3 cancel multiset | v=0 Finite top=23 s=[0,0,0] c=[0, 0, 0]
f64 L=3 cancel scaled | v=c3ec000000000014 Finite top=23 s=[c3ec000000000000,c1084e0000000000,40da662b7ab2ae20] c=[0, 0, 2]
f64 L=3 extremes multiset | v=7eb6000000000000 Finite top=0 s=[7eb6000000000000,7b00000000000000,0] c=[0, 0, 0]
f64 L=3 extremes scaled | v=fff0000000000000 Finite top=0 s=[7ed3000000000000,7b18000000000000,0] c=[-4096, 0, 0]
f64 L=3 pos_inf multiset | v=7ff0000000000000 PosInf top=25 s=[403b7b2b44384000,3de1c92800000000,0] c=[0, 0, 0]
f64 L=3 pos_inf scaled | v=7ff0000000000000 PosInf top=25 s=[40ca1724ddcc0d20,3e5d605438000000,0] c=[-5133, 3394, 0]
f64 L=3 neg_inf multiset | v=fff0000000000000 NegInf top=24 s=[c088000000000000,40478627c8378000,3d90d60000000000] c=[0, 0, 0]
f64 L=3 neg_inf scaled | v=fff0000000000000 NegInf top=24 s=[41cfe5ca20000000,40db9ad40ea68fb0,3e4a9c4ac0000000] c=[0, 3275, 2398]
f64 L=3 inf_minus_inf multiset | v=7ff8000000000000 Nan top=25 s=[401322eaed7a0000,3dd6590c00000000,0] c=[0, 0, 0]
f64 L=3 inf_minus_inf scaled | v=7ff8000000000000 Nan top=25 s=[40d50764097a9a60,3e442b5dd0000000,0] c=[375, 13684, 0]
f64 L=3 nan multiset | v=7ff8000000000000 Nan top=25 s=[c005aab322420000,bdd3a02800000000,0] c=[0, 0, 0]
f64 L=3 nan scaled | v=7ff8000000000000 Nan top=25 s=[c0c12f738edadb00,3e12417140000000,0] c=[-293, 4562, 0]
f64 L=4 promote multiset | v=427c00000000be61 Finite top=24 s=[427c000000000000,4027cc194c2c0000,3de30b3240000000,0] c=[0, 0, 0, 0]
f64 L=4 promote scaled | v=428bfffeab5c6ecc Finite top=24 s=[428c000000000000,40dae376afb9a320,3e511edea7800000,0] c=[0, -43, -83082, 0]
f64 L=4 cancel multiset | v=0 Finite top=23 s=[0,0,0,0] c=[0, 0, 0, 0]
f64 L=4 cancel scaled | v=c3ec000000000014 Finite top=23 s=[c3ec000000000000,c1084e0000000000,40da662b7ab2ae20,3e26140085b0f000] c=[0, 0, 2, -1]
f64 L=4 extremes multiset | v=7eb6000000000000 Finite top=0 s=[7eb6000000000000,7b00000000000000,0,0] c=[0, 0, 0, 0]
f64 L=4 extremes scaled | v=fff0000000000000 Finite top=0 s=[7ed3000000000000,7b18000000000000,0,0] c=[-4096, 0, 0, 0]
f64 L=4 pos_inf multiset | v=7ff0000000000000 PosInf top=25 s=[403b7b2b44384000,3de1c92800000000,0,0] c=[0, 0, 0, 0]
f64 L=4 pos_inf scaled | v=7ff0000000000000 PosInf top=25 s=[40ca1724ddcc0d20,3e5d605438000000,0,0] c=[-5133, 3394, 0, 0]
f64 L=4 neg_inf multiset | v=fff0000000000000 NegInf top=24 s=[c088000000000000,40478627c8378000,3d90d60000000000,0] c=[0, 0, 0, 0]
f64 L=4 neg_inf scaled | v=fff0000000000000 NegInf top=24 s=[41cfe5ca20000000,40db9ad40ea68fb0,3e4a9c4ac0000000,0] c=[0, 3275, 2398, 0]
f64 L=4 inf_minus_inf multiset | v=7ff8000000000000 Nan top=25 s=[401322eaed7a0000,3dd6590c00000000,0,0] c=[0, 0, 0, 0]
f64 L=4 inf_minus_inf scaled | v=7ff8000000000000 Nan top=25 s=[40d50764097a9a60,3e442b5dd0000000,0,0] c=[375, 13684, 0, 0]
f64 L=4 nan multiset | v=7ff8000000000000 Nan top=25 s=[c005aab322420000,bdd3a02800000000,0,0] c=[0, 0, 0, 0]
f64 L=4 nan scaled | v=7ff8000000000000 Nan top=25 s=[c0c12f738edadb00,3e12417140000000,0,0] c=[-293, 4562, 0, 0]
f32 L=1 promote multiset | v=427c000000000000 Finite top=4 s=[427c000000000000] c=[0]
f32 L=1 promote scaled | v=428c000000000000 Finite top=4 s=[428c000000000000] c=[0]
f32 L=1 cancel multiset | v=0 Finite top=3 s=[0] c=[0]
f32 L=1 cancel scaled | v=c3ec000000000000 Finite top=3 s=[c3ec000000000000] c=[0]
f32 L=1 extremes multiset | v=4766000000000000 Finite top=0 s=[4766000000000000] c=[0]
f32 L=1 extremes scaled | v=fff0000000000000 Finite top=0 s=[4783000000000000] c=[-524288]
f32 L=1 pos_inf multiset | v=7ff0000000000000 PosInf top=6 s=[403b980000000000] c=[0]
f32 L=1 pos_inf scaled | v=7ff0000000000000 PosInf top=6 s=[40d5296e00000000] c=[-5128]
f32 L=1 neg_inf multiset | v=fff0000000000000 NegInf top=6 s=[c086878000000000] c=[0]
f32 L=1 neg_inf scaled | v=fff0000000000000 NegInf top=6 s=[c0dede6400000000] c=[19614]
f32 L=1 inf_minus_inf multiset | v=7ff8000000000000 Nan top=6 s=[4013000000000000] c=[0]
f32 L=1 inf_minus_inf scaled | v=7ff8000000000000 Nan top=6 s=[40a9d49000000000] c=[376]
f32 L=1 nan multiset | v=7ff8000000000000 Nan top=6 s=[c005400000000000] c=[0]
f32 L=1 nan scaled | v=7ff8000000000000 Nan top=6 s=[c09f0fe000000000] c=[-288]
f32 L=2 promote multiset | v=427c000000000000 Finite top=4 s=[427c000000000000,0] c=[0, 0]
f32 L=2 promote scaled | v=428c000000000000 Finite top=4 s=[428c000000000000,0] c=[0, 0]
f32 L=2 cancel multiset | v=0 Finite top=3 s=[0,0] c=[0, 0]
f32 L=2 cancel scaled | v=c3ec000000000000 Finite top=3 s=[c3ec000000000000,0] c=[0, 0]
f32 L=2 extremes multiset | v=4766000000000000 Finite top=0 s=[4766000000000000,0] c=[0, 0]
f32 L=2 extremes scaled | v=fff0000000000000 Finite top=0 s=[4783000000000000,0] c=[-524288, 0]
f32 L=2 pos_inf multiset | v=7ff0000000000000 PosInf top=6 s=[403b980000000000,bfbcd4d800000000] c=[0, 0]
f32 L=2 pos_inf scaled | v=7ff0000000000000 PosInf top=6 s=[40d5296e00000000,bf99edf000000000] c=[-5128, -1343913]
f32 L=2 neg_inf multiset | v=fff0000000000000 NegInf top=6 s=[c086878000000000,bf8daa0000000000] c=[0, 0]
f32 L=2 neg_inf scaled | v=fff0000000000000 NegInf top=6 s=[c0dede6400000000,bfbab84000000000] c=[19614, -1704753]
f32 L=2 inf_minus_inf multiset | v=7ff8000000000000 Nan top=6 s=[4013000000000000,3fa1757800000000] c=[0, 0]
f32 L=2 inf_minus_inf scaled | v=7ff8000000000000 Nan top=6 s=[40a9d49000000000,3faefed800000000] c=[376, -189237]
f32 L=2 nan multiset | v=7ff8000000000000 Nan top=6 s=[c005400000000000,bfaaacc000000000] c=[0, 0]
f32 L=2 nan scaled | v=7ff8000000000000 Nan top=6 s=[c09f0fe000000000,3f8e0b1000000000] c=[-288, -1337970]
f32 L=3 promote multiset | v=427c000000000000 Finite top=4 s=[427c000000000000,0,4026900000000000] c=[0, 0, 0]
f32 L=3 promote scaled | v=428bfffc80000000 Finite top=4 s=[428c000000000000,0,40d51ff200000000] c=[0, 0, -112]
f32 L=3 cancel multiset | v=0 Finite top=3 s=[0,0,0] c=[0, 0, 0]
f32 L=3 cancel scaled | v=c3ec000000000000 Finite top=3 s=[c3ec000000000000,0,0] c=[0, 0, 0]
f32 L=3 extremes multiset | v=4766000000000000 Finite top=0 s=[4766000000000000,0,0] c=[0, 0, 0]
f32 L=3 extremes scaled | v=fff0000000000000 Finite top=0 s=[4783000000000000,0,0] c=[-524288, 0, 0]
f32 L=3 pos_inf multiset | v=7ff0000000000000 PosInf top=6 s=[403b980000000000,bfbcd4d800000000,be74000000000000] c=[0, 0, 0]
f32 L=3 pos_inf scaled | v=7ff0000000000000 PosInf top=6 s=[40d5296e00000000,bf99edf000000000,3e93000000000000] c=[-5128, -1343913, -2097150]
f32 L=3 neg_inf multiset | v=fff0000000000000 NegInf top=6 s=[c086878000000000,bf8daa0000000000,0] c=[0, 0, 0]
f32 L=3 neg_inf scaled | v=fff0000000000000 NegInf top=6 s=[c0dede6400000000,bfbab84000000000,0] c=[19614, -1704753, 0]
f32 L=3 inf_minus_inf multiset | v=7ff8000000000000 Nan top=6 s=[4013000000000000,3fa1757800000000,be61000000000000] c=[0, 0, 0]
f32 L=3 inf_minus_inf scaled | v=7ff8000000000000 Nan top=6 s=[40a9d49000000000,3faefed800000000,3e91e00000000000] c=[376, -189237, -402]
f32 L=3 nan multiset | v=7ff8000000000000 Nan top=6 s=[c005400000000000,bfaaacc000000000,be8c000000000000] c=[0, 0, 0]
f32 L=3 nan scaled | v=7ff8000000000000 Nan top=6 s=[c09f0fe000000000,3f8e0b1000000000,3e94000000000000] c=[-288, -1337970, 1572330]
f64 L=1 level_order multiset | v=3ff0000000000000 Finite top=25 s=[3ff0000000000000] c=[0]
f64 L=1 level_order scaled | v=3ff0000000000000 Finite top=25 s=[3ff0000000000000] c=[0]
f64 L=2 level_order multiset | v=3ff0000000000000 Finite top=25 s=[3ff0000000000000,3ca0000000000000] c=[0, 0]
f64 L=2 level_order scaled | v=3ff0000000000001 Finite top=25 s=[3ff0000000000000,3cb0000000000000] c=[0, 0]
f64 L=3 level_order multiset | v=3ff0000000000001 Finite top=25 s=[3ff0000000000000,3ca0000000000000,3a50000000000000] c=[0, 0, 0]
f64 L=3 level_order scaled | v=3ff0000000000001 Finite top=25 s=[3ff0000000000000,3cb0000000000000,3a68000000000000] c=[0, 0, 0]
f64 L=4 level_order multiset | v=3ff0000000000001 Finite top=25 s=[3ff0000000000000,3ca0000000000000,3a50000000000000,0] c=[0, 0, 0, 0]
f64 L=4 level_order scaled | v=3ff0000000000001 Finite top=25 s=[3ff0000000000000,3cb0000000000000,3a68000000000000,0] c=[0, 0, 0, 0]
f32 L=1 level_order multiset | v=3f50000000000000 Finite top=7 s=[3f50000000000000] c=[0]
f32 L=1 level_order scaled | v=3f50000000000000 Finite top=7 s=[3f50000000000000] c=[0]
f32 L=2 level_order multiset | v=3f50000000000000 Finite top=7 s=[3f50000000000000,3dd0000000000000] c=[0, 0]
f32 L=2 level_order scaled | v=3f50000020000000 Finite top=7 s=[3f50000000000000,3de0000000000000] c=[0, 0]
f32 L=3 level_order multiset | v=3f50000020000000 Finite top=7 s=[3f50000000000000,3dd0000000000000,3d30000000000000] c=[0, 0, 0]
f32 L=3 level_order scaled | v=3f50000020000000 Finite top=7 s=[3f50000000000000,3de0000000000000,3d48000000000000] c=[0, 0, 0]
";

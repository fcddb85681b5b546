//! The project step of the fused scan: one program for all of a query's
//! aggregate inputs, and near-dense batches read over their covering
//! range.
//!
//! **Dropped rows are invisible.** A batch that keeps at least
//! [`NEAR_DENSE`] of its covering range evaluates over that range, dropped
//! rows included. These tests plant what must never be looked at — NaN,
//! ±Inf, zero divisors, ±`f64::MAX`, reserved and out-of-range group keys —
//! in *filtered-out* rows only, under selection shapes on both sides of
//! the constant, and require results bit-identical to the same table with
//! those rows physically removed: every backend × 1 / 2 / 8 threads
//! × 1- / 7- / 4096-row batches × every SIMD dispatch level × ungrouped,
//! per-row and partitioned deposits × SUM / MIN / MAX.
//!
//! **Shared ≡ separate.** Random expression sets with shared subtrees,
//! repeated columns, `-0.0` / NaN constants and `a + b` beside `b + a`
//! evaluate bitwise equal through one shared program and through one
//! single-output program per expression, over plain, `Dict`, `Dict16` and
//! RLE inputs, read as a range, as a covering range and as a gather.

use proptest::prelude::*;
use rfa_core::cpu::{self, SimdLevel};
use rfa_engine::{
    run_fused, Column, CompiledExpr, EvalScratch, ExecOptions, Expr, FusedQuery, FusedRun,
    GroupKey, PlanError, Sel, SumBackend, Table, NEAR_DENSE,
};
use std::sync::{Mutex, MutexGuard};

fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// Serializes the tests that flip the process-global dispatch override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_guard() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Calls `f` under every dispatch level the host supports, scalar first.
/// The caller holds [`override_guard`].
fn each_level(mut f: impl FnMut(SimdLevel)) {
    let levels = [
        (SimdLevel::Scalar, true),
        (SimdLevel::Avx2, cpu::avx2_supported()),
        (SimdLevel::Avx512, cpu::avx512_supported()),
    ];
    for (level, _) in levels.into_iter().filter(|l| l.1) {
        cpu::set_override(Some(level));
        f(level);
    }
    cpu::set_override(None);
}

const BACKENDS: [SumBackend; 6] = [
    SumBackend::Double,
    SumBackend::SortedDouble,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::Rsum { levels: 2 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

/// Threads 1 / 2 / 8 × batches of 1 and 7 rows, plus 4096 serially and
/// 128 in parallel: the table hold at least 8 batches of every
/// parallel width, so each parallel shape splits for real.
fn shapes() -> Vec<ExecOptions> {
    let mut out = Vec::new();
    for (threads, wide) in [(1, 4096), (2, 128), (8, 128)] {
        for batch_rows in [1, 7, wide] {
            out.push(ExecOptions {
                threads,
                batch_rows,
                ..ExecOptions::default()
            });
        }
    }
    out
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which rows of an `n`-row table the filter keeps (`n` even, ≥ 8). With
/// one 4096-row batch the kept share of the covering range is the
/// table's; with 7-row batches shapes 1 and 2 drop every batch's first /
/// last row.
fn keep_pattern(shape: u8, n: usize, rng: &mut Xorshift) -> Vec<bool> {
    let random = |p: f64, rng: &mut Xorshift| (0..n).map(|_| rng.unit() < p).collect();
    match shape {
        // A single dropped row.
        0 => {
            let dropped = 1 + rng.below(n as u64 - 2) as usize;
            (0..n).map(|i| i != dropped).collect()
        }
        1 => (0..n).map(|i| i % 7 != 0).collect(),
        2 => (0..n).map(|i| i % 7 != 6 && i != n - 1).collect(),
        // Alternating rows: just above one half of `[0, n - 2]`.
        3 => (0..n).map(|i| i % 2 == 0).collect(),
        // Exactly one half of the covering range `[0, n - 1]` …
        4 | 5 => {
            let mut keep: Vec<bool> = (0..n).map(|i| i % 2 == 0 && i < n - 2).collect();
            keep[n - 1] = true;
            assert_eq!(
                keep.iter().filter(|&&k| k).count() as f64,
                NEAR_DENSE * n as f64
            );
            // … and one row short of it.
            keep[2] = shape == 4;
            keep
        }
        6 => (0..n).map(|i| i % 3 == 0).collect(),
        7 => (0..n).map(|i| i % 50 == 0).collect(),
        8 => random(0.987, rng),
        9 => random(0.75, rng),
        _ => random(0.4, rng),
    }
}

/// What a dropped row holds in its value columns `(x, y)`: every special
/// value, a zero divisor under `x / y`, and finite values whose products
/// and sums overflow.
const POISON: [(f64, f64); 8] = [
    (f64::NAN, 0.0),
    (f64::INFINITY, -0.0),
    (f64::NEG_INFINITY, f64::NAN),
    (f64::MAX, f64::MAX),
    (-f64::MAX, f64::MIN_POSITIVE),
    (0.0, 0.0),
    (1.0, f64::NEG_INFINITY),
    (f64::MAX, -1.0),
];

/// The byte a dropped row holds in both key legs (no kept row does): as a
/// pair it would be a group of its own.
const BAD_LEG: u8 = 255;

/// `col` under encoding `choice`: 0 plain, 1 `Dict`, 2 `Dict16` (the
/// `u8` codes widened), 3 RLE.
fn encoded(col: Column, choice: u8) -> Column {
    match choice {
        1 => col.dict_encode().unwrap_or(col),
        2 => match col.dict_encode() {
            Ok(Column::Dict { codes, dict }) => {
                let wide: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                Column::dict16(wide, *dict).unwrap()
            }
            _ => col,
        },
        3 => col.rle_encode().unwrap_or(col),
        _ => col,
    }
}

/// One row: whether the filter keeps it, its key legs and its values.
type Row = (bool, u8, u8, f64, f64);

/// Kept rows hold `legs.0 × legs.1` distinct key pairs in runs of random
/// length and tame values (some zeros of either sign, for the MIN / MAX
/// tie rule); dropped rows hold [`BAD_LEG`] and [`POISON`].
fn gen_rows(keep: &[bool], legs: (u8, u8), rng: &mut Xorshift) -> Vec<Row> {
    let (mut a, mut b) = (0u8, 0u8);
    keep.iter()
        .enumerate()
        .map(|(i, &keep)| {
            if rng.below(6) == 0 {
                (a, b) = (
                    rng.below(legs.0 as u64) as u8,
                    rng.below(legs.1 as u64) as u8,
                );
            }
            if !keep {
                let (x, y) = POISON[(i + rng.below(2) as usize) % POISON.len()];
                return (false, BAD_LEG, BAD_LEG, x, y);
            }
            let x = match rng.below(12) {
                0 => 0.0,
                1 => -0.0,
                _ => (rng.unit() - 0.5) * 2.0e3,
            };
            (true, a, b, x, 0.5 + rng.unit())
        })
        .collect()
}

/// The table of `rows`: the filter column, the key legs `a` / `b`, the
/// packed `I32` key `k` (`-1`, the reserved key, in dropped rows), and the
/// values `x` / `y` with encoded twins `xe` / `ye` of `x` and `y`.
fn table_of(rows: &[Row], enc: [u8; 4]) -> Table {
    let mut t = Table::new("t");
    let mut add = |name: &str, col: Column| t.add_column(name, col).unwrap();
    let i32s = |f: &dyn Fn(&Row) -> i32| Column::i32(rows.iter().map(f).collect::<Vec<_>>());
    let f64s = |f: &dyn Fn(&Row) -> f64| Column::f64(rows.iter().map(f).collect::<Vec<_>>());
    add("keep", i32s(&|r| r.0 as i32));
    let bytes = |f: &dyn Fn(&Row) -> u8| Column::u8(rows.iter().map(f).collect::<Vec<_>>());
    add("a", encoded(bytes(&|r| r.1), enc[0]));
    add("b", encoded(bytes(&|r| r.2), enc[1]));
    let key = |r: &Row| {
        if r.0 {
            (r.1 as i32) << 8 | r.2 as i32
        } else {
            -1
        }
    };
    add("k", encoded(i32s(&key), enc[2]));
    add("x", f64s(&|r| r.3));
    add("y", f64s(&|r| r.4));
    add("xe", encoded(f64s(&|r| r.3), enc[3]));
    add("ye", encoded(f64s(&|r| r.4), 3 - enc[3]));
    t
}

/// SUM / MIN / MAX inputs that share columns, subtrees and whole
/// expressions across kinds; `xe` is a bare encoded input that another
/// input reads too.
fn query(group_by: GroupKey) -> FusedQuery {
    let c = Expr::col;
    let ratio = || c("x").div(c("y"));
    FusedQuery {
        filter: vec![c("keep").ge(Expr::lit(1.0))],
        sums: vec![
            c("x"),
            ratio(),
            c("x").mul(Expr::lit(1.0).sub(c("y"))).add(c("xe")),
            c("xe"),
            c("x").mul(c("y")).mul(c("ye")),
        ],
        mins: vec![ratio(), c("x"), c("xe")],
        maxs: vec![c("x").mul(c("y")), c("x"), c("ye").neg()],
        group_by,
    }
}

fn group_keys() -> Vec<(&'static str, GroupKey)> {
    vec![
        ("none", GroupKey::None),
        (
            "pair",
            GroupKey::HashPair {
                a: "a".into(),
                b: "b".into(),
            },
        ),
        ("hash", GroupKey::Hash { col: "k".into() }),
    ]
}

fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    let bits = |s: &Vec<f64>| s.iter().map(|x| x.to_bits()).collect();
    v.iter().map(bits).collect()
}

fn assert_same(got: &FusedRun, want: &FusedRun, tag: &str) {
    assert_eq!(got.counts, want.counts, "counts {tag}");
    assert_eq!(got.keys, want.keys, "first-seen keys {tag}");
    assert_eq!(bits(&got.sums), bits(&want.sums), "sums {tag}");
    assert_eq!(bits(&got.mins), bits(&want.mins), "mins {tag}");
    assert_eq!(bits(&got.maxs), bits(&want.maxs), "maxs {tag}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Poison in filtered-out rows only ≡ those rows physically removed.
    #[test]
    fn dropped_rows_are_invisible(
        seed in any::<u64>(),
        half in 560..700usize,
        shape in 0..11u8,
        legs in prop_oneof![Just((1u8, 1u8)), Just((1, 2)), Just((3, 2)), Just((6, 5))],
        enc in (0..4u8, 0..4u8, 0..4u8, 0..4u8),
    ) {
        force_pool();
        let mut rng = Xorshift(seed | 1);
        let keep = keep_pattern(shape, 2 * half, &mut rng);
        let rows = gen_rows(&keep, legs, &mut rng);
        let kept: Vec<Row> = rows.iter().copied().filter(|r| r.0).collect();
        let enc = [enc.0, enc.1, enc.2, enc.3];
        let (poisoned, removed) = (table_of(&rows, enc), table_of(&kept, enc));
        let _guard = override_guard();
        for (name, group_by) in group_keys() {
            let q = query(group_by);
            for backend in BACKENDS {
                let want = run_fused(&removed, &q, backend, &ExecOptions::serial());
                let want = want.unwrap_or_else(|e| panic!("{name} {backend:?}: {e}"));
                for opts in shapes() {
                    each_level(|level| {
                        let tag = format!(
                            "{name} {backend:?} shape {shape} {level:?} threads {} batch {}",
                            opts.threads, opts.batch_rows
                        );
                        match run_fused(&poisoned, &q, backend, &opts) {
                            Ok(got) => assert_same(&got, &want, &tag),
                            Err(e) => panic!("{tag}: {e}"),
                        }
                    });
                }
            }
        }
    }

    /// One shared program ≡ one single-output program per expression.
    #[test]
    fn shared_program_matches_separate_programs(
        seed in any::<u64>(),
        n in 320..700usize,
        lo in 0..40usize,
    ) {
        let mut rng = Xorshift(seed | 1);
        // 300 distinct values force `u16` codes; runs of 5 keep RLE short.
        let wide: Vec<f64> = (0..n).map(|i| (i % 300) as f64 * 0.25 - 20.0).collect();
        let runs: Vec<f64> = (0..n).map(|i| ((i / 5) % 9) as f64 - 4.0).collect();
        let few: Vec<f64> = (0..n).map(|_| [0.0, -0.0, 1.5, -2.0][rng.below(4) as usize]).collect();
        let ints: Vec<i32> = (0..n).map(|_| rng.below(19) as i32 - 9).collect();
        let mut t = Table::new("t");
        let mut add = |name: &str, col: Column| t.add_column(name, col).unwrap();
        add("p", Column::f64((0..n).map(|_| (rng.unit() - 0.5) * 64.0).collect::<Vec<_>>()));
        add("w", encoded(Column::f64(wide), 1));
        add("r", encoded(Column::f64(runs), 3));
        add("d", encoded(Column::f64(few), 1));
        add("k", Column::i32(ints));
        assert_eq!(t.column("w").unwrap().storage_name(), "Dict16<F64>");

        // A pool of subtrees every expression draws from, so that columns
        // and whole subexpressions repeat across (and inside) expressions.
        const CONSTS: [f64; 6] = [0.0, -0.0, f64::NAN, 1.0, -2.5, 0.125];
        let leaf = |rng: &mut Xorshift| match rng.below(7) {
            0 => Expr::lit(CONSTS[rng.below(6) as usize]),
            c => Expr::col(["p", "w", "r", "d", "k", "p"][c as usize - 1]),
        };
        let combine = |a: Expr, b: Expr, op: u64| match op {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            3 => a.div(b),
            _ => a.neg(),
        };
        let mut pool: Vec<Expr> = (0..4).map(|_| leaf(&mut rng)).collect();
        for _ in 0..6 {
            let a = pool[rng.below(pool.len() as u64) as usize].clone();
            let b = pool[rng.below(pool.len() as u64) as usize].clone();
            pool.push(combine(a, b, rng.below(5)));
        }
        let mut exprs: Vec<Expr> = (0..5)
            .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
            .collect();
        // Addition is not commuted: both orders, side by side.
        exprs.push(pool[4].clone().add(pool[5].clone()));
        exprs.push(pool[5].clone().add(pool[4].clone()));

        let shared = CompiledExpr::compile_all(&exprs);
        let shared = shared.bind(&t).unwrap();
        let all: Vec<u32> = (lo as u32..n as u32).collect();
        let most: Vec<u32> = all.iter().copied().filter(|_| rng.below(8) != 0).collect();
        let sparse: Vec<u32> = all.iter().copied().filter(|r| r % 9 == 0).collect();
        let selections = [
            ("range", Sel::new(&all)),
            ("near-dense", Sel::near_dense(&most)),
            ("covering", Sel::covering(&sparse)),
            ("gather", Sel::new(&sparse)),
        ];
        // Bitwise, except that any NaN equals any NaN: which operand's
        // payload `NaN ⊕ NaN` keeps is the instruction's choice, and the
        // compiler is free to swap the operands of an add or a multiply.
        let same = |got: &[f64], want: &[f64]| {
            got.len() == want.len()
                && got.iter().zip(want).all(|(g, w)| {
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
                })
        };
        let (mut scratch, mut own) = (EvalScratch::new(), EvalScratch::new());
        for (name, sel) in selections {
            shared.eval(sel, &mut scratch);
            for (k, e) in exprs.iter().enumerate() {
                let alone = e.compile();
                let alone = alone.bind(&t).unwrap();
                alone.eval(sel, &mut own);
                let (got, want) = (shared.output(k, &scratch), alone.output(0, &own));
                prop_assert!(same(got, want), "{} output {}: {:?}", name, k, e);
                prop_assert_eq!(got.len(), sel.len());
            }
            // A covering range's selected rows are the rows' own values.
            let Some(rows) = sel.selection() else { continue };
            for (k, e) in exprs.iter().enumerate() {
                let all = shared.output(k, &scratch);
                let got: Vec<f64> = rows.iter().map(|&r| all[(r - rows[0]) as usize]).collect();
                prop_assert!(same(&got, &e.eval(&t, rows).unwrap()), "{} rows {}: {:?}", name, k, e);
            }
        }
    }
}

/// The mirrored case: poison in a *selected* row of a near-dense batch
/// still overflows `Double` and `SortedDouble` — whatever the deposit —
/// and only those.
#[test]
fn selected_poison_still_overflows_double() {
    let mut rng = Xorshift(0x5EED);
    let n = 1400;
    let keep = keep_pattern(1, n, &mut rng);
    for legs in [(1, 1), (6, 5)] {
        let mut rows = gen_rows(&keep, legs, &mut rng);
        // `x / y` overflows on its own.
        let hit = rows.iter().rposition(|r| r.0).unwrap();
        (rows[hit].3, rows[hit].4) = (f64::MAX, 0.25);
        for enc in [[0, 0, 0, 0], [3, 3, 3, 3]] {
            let t = table_of(&rows, enc);
            for (name, group_by) in group_keys() {
                let q = query(group_by);
                for backend in BACKENDS {
                    let run = run_fused(&t, &q, backend, &ExecOptions::serial());
                    let doubles = matches!(backend, SumBackend::Double | SumBackend::SortedDouble);
                    assert_eq!(
                        matches!(run, Err(PlanError::Overflow(_))),
                        doubles,
                        "{name} {legs:?} {enc:?} {backend:?}"
                    );
                    assert!(
                        doubles || run.is_ok(),
                        "{name} {legs:?} {enc:?} {backend:?}"
                    );
                }
            }
        }
    }
}

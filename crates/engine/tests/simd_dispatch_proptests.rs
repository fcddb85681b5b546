//! Forced-dispatch bit-identity tests at the *query* level: the whole
//! scan pipeline — the SIMD selection-vector fills and refine, the
//! general mask program (scalar at every level) and the SIMD repro
//! summation kernels — must produce results bit-identical to the scalar
//! paths, for every query, fused backend and thread shape.
//!
//! `RFA_SIMD` flips the dispatch level process-wide; these tests flip it
//! programmatically via [`rfa_core::cpu::set_override`] (serialized by a
//! local mutex — the engine's own parallel workers are fine because all
//! levels are bit-identical, which is exactly what is being asserted).
//! On hardware without AVX2 / AVX-512F the corresponding forced leg is
//! skipped and the tests reduce to scalar self-consistency.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_core::cpu::{self, SimdLevel};
use rfa_engine::{
    lineitem_table, q15_plan, q1_plan, q6_plan, AggColumn, BoolExpr, Column, EvalScratch,
    ExecOptions, Expr, GroupedSums, QueryPlan, SumBackend, Table, MIN_SEG,
};
use rfa_workloads::Lineitem;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global dispatch override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_guard() -> MutexGuard<'static, ()> {
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

/// Runs `f` under forced scalar, then forced AVX2 and AVX-512 (where
/// supported), and asserts every level equals scalar.
fn both_levels<R: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> R) -> R {
    let scalar = with_level(SimdLevel::Scalar, &mut f);
    if cpu::avx2_supported() {
        let avx2 = with_level(SimdLevel::Avx2, &mut f);
        assert_eq!(scalar, avx2, "scalar and AVX2 pipelines disagree");
    }
    if cpu::avx512_supported() {
        let avx512 = with_level(SimdLevel::Avx512, &mut f);
        assert_eq!(scalar, avx512, "scalar and AVX-512 pipelines disagree");
    }
    scalar
}

fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

const BACKENDS: [SumBackend; 5] = [
    SumBackend::Double,
    SumBackend::SortedDouble,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

fn shapes() -> [ExecOptions; 3] {
    [
        ExecOptions {
            threads: 1,
            batch_rows: 33,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 2,
            batch_rows: 64,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 8,
            batch_rows: 17,
            ..ExecOptions::default()
        },
    ]
}

/// Arbitrary lineitem rows straddling the Q1/Q6/Q15 predicate windows
/// (same shape as the fused proptests).
fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0.0..60.0f64),
        (-1.0e5..1.0e5f64),
        (0.0..0.12f64),
        (0.0..0.09f64),
        (600i32..2600),
        (0u8..3),
        (0u8..2),
        (1i32..40),
    );
    vec(row, 0..max_rows).prop_map(|rows| {
        let n = rows.len();
        let mut quantity = Vec::with_capacity(n);
        let mut extendedprice = Vec::with_capacity(n);
        let mut discount = Vec::with_capacity(n);
        let mut tax = Vec::with_capacity(n);
        let mut shipdate = Vec::with_capacity(n);
        let mut returnflag = Vec::with_capacity(n);
        let mut linestatus = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        for (q, p, d, t, s, rf, ls, sk) in rows {
            quantity.push(q);
            extendedprice.push(p);
            discount.push(d);
            tax.push(t);
            shipdate.push(s);
            returnflag.push([b'A', b'N', b'R'][rf as usize]);
            linestatus.push([b'F', b'O'][ls as usize]);
            suppkey.push(sk);
        }
        Lineitem::from_columns(
            quantity,
            extendedprice,
            discount,
            tax,
            shipdate,
            returnflag,
            linestatus,
            suppkey,
        )
    })
}

/// A plan's full result (keys, then every aggregate column as bit
/// patterns) — the comparable unit of every matrix here.
fn plan_bits(
    plan: &QueryPlan,
    t: &Table,
    backend: SumBackend,
    opts: &ExecOptions,
) -> (Vec<i64>, Vec<Vec<u64>>) {
    let r = plan.execute(t, backend, opts).unwrap();
    let cols = r
        .columns
        .iter()
        .map(|c| match c {
            AggColumn::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            AggColumn::U64(v) => v.clone(),
        })
        .collect();
    (r.keys, cols)
}

/// A hash-grouped SUM and COUNT — the probe-kernel matrix's query.
fn hash_group_bits(
    t: &Table,
    key_col: &str,
    backend: SumBackend,
    opts: &ExecOptions,
) -> (Vec<i64>, Vec<Vec<u64>>) {
    let plan = QueryPlan::scan("t")
        .group_by_key(key_col)
        .sum(Expr::col("v"))
        .count();
    plan_bits(&plan, t, backend, opts)
}

/// SUM / MIN / MAX / COUNT per key, every value as its bit pattern.
fn all_aggs_bits(t: &Table, backend: SumBackend, opts: &ExecOptions) -> (Vec<i64>, Vec<Vec<u64>>) {
    let plan = QueryPlan::scan("t")
        .group_by_key("k")
        .sum(Expr::col("v"))
        .min(Expr::col("v"))
        .max(Expr::col("v"))
        .count();
    plan_bits(&plan, t, backend, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Partition-then-aggregate: a batch the buffered backends deposit
    /// group by group through the block kernel finalizes to the bits of
    /// the per-row `ReproUnbuffered` path — for group counts on both
    /// sides of the `groups · MIN_SEG ≤ rows` threshold (and of the
    /// partition kernels' own switch at 8 groups), batch shapes from one
    /// row up, every dispatch level, and with NaN, ±∞, −0.0, subnormals
    /// and near-overflow magnitudes landing *inside* segments, where the
    /// block kernel's cold path has to agree with `add`.
    #[test]
    fn partitioned_deposits_match_per_row_bitwise(
        rows in vec(
            (
                0u32..1 << 16,
                prop_oneof![
                    600 => -1.0e6..1.0e6f64,
                    40 => -1.0e-300..1.0e-300f64,
                    8 => Just(-0.0),
                    4 => Just(f64::MIN_POSITIVE / 4.0),
                    4 => Just(-5e-324),
                    4 => Just(1.0e300),
                    1 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                ],
            ),
            0..9000,
        ),
    ) {
        for batch_rows in [1usize, 7, 64, 4096] {
            let edge = (batch_rows / MIN_SEG).max(2);
            for groups in [1, 2, 4, 8, 9, edge - 1, edge, edge + 1, 4096] {
                let keys: Vec<u32> = rows.iter().map(|&(k, _)| k % groups as u32).collect();
                let values: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
                let mut t = Table::new("t");
                t.add_column("k", Column::u32(keys.clone())).unwrap();
                t.add_column("v", Column::f64(values.clone())).unwrap();
                let opts = ExecOptions { batch_rows, ..ExecOptions::serial() };
                let per_row = with_level(SimdLevel::Scalar, || {
                    all_aggs_bits(&t, SumBackend::ReproUnbuffered, &opts)
                });
                let partitioned = both_levels(|| {
                    all_aggs_bits(&t, SumBackend::ReproBuffered { buffer_size: 0 }, &opts)
                });
                prop_assert_eq!(&per_row, &partitioned, "batch {} groups {}", batch_rows, groups);

                // The operator API chunks by the default batch itself.
                if batch_rows == 4096 {
                    let sum_bits = |backend| -> Vec<u64> {
                        let mut state = GroupedSums::new(backend, groups);
                        state.update(&keys, &values).unwrap();
                        state.finalize().iter().map(|x| x.to_bits()).collect()
                    };
                    let per_row = with_level(SimdLevel::Scalar, || sum_bits(SumBackend::Rsum { levels: 3 }));
                    let partitioned = both_levels(|| {
                        sum_bits(SumBackend::RsumBuffered { levels: 3, buffer_size: 0 })
                    });
                    prop_assert_eq!(per_row, partitioned, "operator, groups {}", groups);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SIMD batched probe behind 32-bit keys (`GroupKey::Hash` over an
    /// `I32` column): every key distribution the probe kernels
    /// specialize for — run-clustered (home-slot hits in bulk), uniform
    /// random, and hash-hostile strides (long collision chains) — produces
    /// bit-identical group keys, sums and counts at every dispatch
    /// level, backend and thread shape. The Double
    /// backend's sums are order-sensitive, so this also proves per-row
    /// deposit order is level-invariant.
    #[test]
    fn hash_grouped_probe_is_dispatch_level_independent(
        rows in vec((0u32..600, -1.0e4..1.0e4f64), 0..900),
        stride in prop_oneof![Just(1u32), Just(977), Just(1 << 16)],
        run_len in 1usize..40,
    ) {
        force_pool();
        let n = rows.len();
        // Clustered stream: keys repeat in runs of `run_len`, then strided
        // to sparse domains.
        let keys: Vec<i32> = (0..n)
            .map(|i| {
                let (base, _) = rows[i / run_len.max(1) % n.max(1)];
                (base * stride) as i32
            })
            .collect();
        let values: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(keys)).unwrap();
        t.add_column("v", Column::f64(values)).unwrap();
        for backend in [SumBackend::Double, SumBackend::ReproBuffered { buffer_size: 64 }] {
            for opts in shapes() {
                both_levels(|| hash_group_bits(&t, "k", backend, &opts));
            }
        }
    }

    /// Q1 (grouped, expression-heavy) is dispatch-level independent for
    /// every backend and thread shape.
    #[test]
    fn q1_is_dispatch_level_independent(t in lineitem_strategy(600)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            for opts in shapes() {
                both_levels(|| plan_bits(&q1_plan(), &table, backend, &opts));
            }
        }
    }

    /// Q6 (selective filter + single SUM: the selection kernels' hottest
    /// consumer) and Q15 (hash-grouped) under both levels.
    #[test]
    fn q6_and_q15_are_dispatch_level_independent(t in lineitem_strategy(800)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            for opts in shapes() {
                both_levels(|| plan_bits(&q6_plan(), &table, backend, &opts));
                both_levels(|| plan_bits(&q15_plan(), &table, backend, &opts));
            }
        }
    }

    /// The selection kernels directly: fill (first conjunct) and refine
    /// (later conjuncts) over f64 and i32 columns produce the same
    /// selection vector under both levels, for every comparison operator
    /// and a BETWEEN, including NaN-laden data.
    #[test]
    fn selection_vectors_are_dispatch_level_independent(
        f64s in vec(
            prop_oneof![
                8 => -100.0..100.0f64,
                1 => Just(f64::NAN),
                1 => Just(0.0),
                1 => Just(-0.0),
            ],
            0..700,
        ),
        i32s in vec(-1000..1000i32, 0..700),
        threshold in -50.0..50.0f64,
        ithreshold in -500..500i32,
    ) {
        let n = f64s.len().min(i32s.len());
        let mut table = Table::new("t");
        table
            .add_column("x", rfa_engine::Column::f64(f64s[..n].to_vec()))
            .unwrap();
        table
            .add_column("k", rfa_engine::Column::i32(i32s[..n].to_vec()))
            .unwrap();
        // Low-cardinality dict leg: a Cmp over a Dict column compiles to
        // the code-membership fill (`fill_u8_in_set`), which has distinct
        // AVX2 and AVX-512 kernels.
        let dicted: Vec<i32> = i32s[..n].iter().map(|v| v.rem_euclid(97)).collect();
        let dicted = rfa_engine::Column::i32(dicted).dict_encode();
        if n > 0 {
            table.add_column("d", dicted.unwrap()).unwrap();
        }

        let mut preds = vec![
            BoolExpr::Cmp(rfa_engine::CmpOp::Lt, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Ge, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Ne, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Le, Box::new(Expr::col("k")), Box::new(Expr::lit(ithreshold as f64))),
            BoolExpr::Between(
                Box::new(Expr::col("x")),
                Box::new(Expr::lit(-25.0)),
                Box::new(Expr::lit(25.0)),
            ),
            // No typed fast path (two columns): the general mask
            // program, whose compaction is one scalar loop at every level.
            BoolExpr::Cmp(rfa_engine::CmpOp::Gt, Box::new(Expr::col("x")), Box::new(Expr::col("k"))),
        ];
        if n > 0 {
            preds.push(BoolExpr::Cmp(
                rfa_engine::CmpOp::Lt,
                Box::new(Expr::col("d")),
                Box::new(Expr::lit(48.0)),
            ));
        }
        for pred in &preds {
            let compiled = pred.compile();
            let bound = compiled.bind(&table).unwrap();
            let filled = both_levels(|| {
                let mut sel = Vec::new();
                let mut scratch = EvalScratch::default();
                bound.fill(0, n, &mut sel, &mut scratch);
                sel
            });
            // Refine the filled set with a second conjunct.
            let refiner = BoolExpr::Cmp(
                rfa_engine::CmpOp::Ge,
                Box::new(Expr::col("k")),
                Box::new(Expr::lit(0.0)),
            )
            .compile();
            let refiner = refiner.bind(&table).unwrap();
            both_levels(|| {
                let mut sel = filled.clone();
                let mut scratch = EvalScratch::default();
                refiner.refine(&mut sel, &mut scratch);
                sel
            });
        }
    }
}

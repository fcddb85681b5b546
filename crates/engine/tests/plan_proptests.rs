//! Property tests of the plan layer: plans built through the *public*
//! [`QueryPlan`] builder must be bit-identical to the naive per-row
//! reference (`support`), and hash-keyed grouping must be bit-identical
//! to dense-keyed grouping on key domains small enough to run both.
//!
//! These complement `fused_proptests.rs` (which pins the thin
//! `run_q1`/`run_q6` wrappers — themselves plan-backed — to the same
//! reference): here the plans are constructed via the builder API, so the
//! lowering itself (SUM-state sharing for AVG, COUNT wiring, group-key
//! routing) is under test, not just the wrappers.

mod support;

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::plan::QueryPlan;
use rfa_engine::{
    lineitem_table, q1_plan, q6_plan, AggColumn, Column, ExecOptions, Expr, SumBackend, Table,
};
use rfa_workloads::Lineitem;
use support::{q1_reference, q6_reference};

/// Requests an 8-worker pool so the parallel paths genuinely run
/// multi-threaded even on small CI boxes.
fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// All six SUM backends.
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

fn shapes() -> [ExecOptions; 3] {
    [
        ExecOptions {
            threads: 1,
            batch_rows: 33,
            morsel_rows: 1 << 16,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 2,
            batch_rows: 64,
            morsel_rows: 192,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 8,
            batch_rows: 17,
            morsel_rows: 96,
            ..ExecOptions::default()
        },
    ]
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Builder-constructed Q1 plan == the per-row reference Q1, bitwise,
    /// for every backend × thread count × batch/morsel shape — including
    /// the engine-finalized AVG and COUNT columns.
    #[test]
    fn q1_plan_matches_legacy_bitwise(t in lineitem_strategy(600)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let legacy = q1_reference(&t, backend).unwrap();
            for opts in shapes() {
                let r = q1_plan().execute(&table, backend, &opts).unwrap();
                prop_assert_eq!(r.keys.len(), legacy.len(), "{:?} {:?}", backend, opts);
                for (i, row) in legacy.iter().enumerate() {
                    // The plan's key packs the pair as (flag << 8) | status.
                    prop_assert_eq!((r.keys[i] >> 8) as u8 as char, row.returnflag);
                    prop_assert_eq!(r.keys[i] as u8 as char, row.linestatus);
                    let f = |c: usize| r.columns[c].f64s()[i];
                    prop_assert_eq!(f(0).to_bits(), row.sum_qty.to_bits(),
                        "sum_qty {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(1).to_bits(), row.sum_base_price.to_bits(),
                        "sum_base_price {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(2).to_bits(), row.sum_disc_price.to_bits(),
                        "sum_disc_price {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(3).to_bits(), row.sum_charge.to_bits(),
                        "sum_charge {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(4).to_bits(), row.avg_qty.to_bits(),
                        "avg_qty {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(5).to_bits(), row.avg_price.to_bits(),
                        "avg_price {:?} {:?}", backend, opts);
                    prop_assert_eq!(f(6).to_bits(), row.avg_disc.to_bits(),
                        "avg_disc {:?} {:?}", backend, opts);
                    prop_assert_eq!(r.columns[7].u64s()[i], row.count);
                }
            }
        }
    }

    /// Builder-constructed Q6 plan == the per-row reference Q6, bitwise.
    #[test]
    fn q6_plan_matches_legacy_bitwise(t in lineitem_strategy(800)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let legacy = q6_reference(&t, backend).unwrap();
            for opts in shapes() {
                let r = q6_plan().execute(&table, backend, &opts).unwrap();
                prop_assert_eq!(
                    r.columns[0].f64s()[0].to_bits(),
                    legacy.to_bits(),
                    "{:?} {:?}",
                    backend,
                    opts
                );
            }
        }
    }

    /// Hash-keyed grouping == direct-mapped pair grouping, bitwise: the
    /// same rows grouped (a) by a U8 pair, whose packed key indexes the
    /// dense 65 536-entry group-id table, and (b) through the hash arm on
    /// an I32 column holding the identical packed key.
    #[test]
    fn hash_grouping_matches_dense_grouping_bitwise(
        rows in vec(((0u8..3), (0u8..4), (-1.0e4..1.0e4f64)), 0..500)
    ) {
        force_pool();
        fn encode(a: u8, b: u8) -> u32 {
            (a as u32) << 8 | b as u32
        }
        let mut table = Table::new("t");
        table
            .add_column("ka", Column::u8(rows.iter().map(|r| r.0).collect::<Vec<_>>()))
            .unwrap();
        table
            .add_column("kb", Column::u8(rows.iter().map(|r| r.1).collect::<Vec<_>>()))
            .unwrap();
        table
            .add_column(
                "key",
                Column::i32(
                    rows.iter()
                        .map(|r| encode(r.0, r.1) as i32)
                        .collect::<Vec<_>>(),
                ),
            )
            .unwrap();
        table
            .add_column("v", Column::f64(rows.iter().map(|r| r.2).collect::<Vec<_>>()))
            .unwrap();

        let aggs = |p: QueryPlan| {
            p.sum(Expr::col("v"))
                .count()
                .avg(Expr::col("v"))
                .min(Expr::col("v"))
                .max(Expr::col("v"))
        };
        let dense = aggs(QueryPlan::scan("t").group_by_u8_pair("ka", "kb"));
        let hashed = aggs(QueryPlan::scan("t").group_by_key("key"));
        for backend in BACKENDS {
            for opts in shapes() {
                let d = dense.execute(&table, backend, &opts).unwrap();
                let h = hashed.execute(&table, backend, &opts).unwrap();
                // The packed pairs equal the key values, so the sorted
                // outputs must line up row for row, column for column.
                prop_assert_eq!(&d.keys, &h.keys, "{:?} {:?}", backend, opts);
                for (c, (dc, hc)) in d.columns.iter().zip(&h.columns).enumerate() {
                    match (dc, hc) {
                        (AggColumn::F64(x), AggColumn::F64(y)) => {
                            for (a, b) in x.iter().zip(y) {
                                prop_assert_eq!(
                                    a.to_bits(), b.to_bits(),
                                    "col {} {:?} {:?}", c, backend, opts
                                );
                            }
                        }
                        (AggColumn::U64(x), AggColumn::U64(y)) => {
                            prop_assert_eq!(x, y, "col {} {:?} {:?}", c, backend, opts)
                        }
                        _ => prop_assert!(false, "column kind mismatch"),
                    }
                }
            }
        }
    }
}

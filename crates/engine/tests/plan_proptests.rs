//! Property tests of the plan layer: plans built through the *public*
//! [`QueryPlan`] builder must be bit-identical to the naive per-row
//! reference (`support`), and hash-keyed grouping must be bit-identical
//! to dense-keyed grouping on key domains small enough to run both.
//!
//! These complement `fused_proptests.rs`, which pins `q1_plan()` and
//! `q6_plan()` to the same reference across batch and thread
//! shapes: here the lowering itself is under test (SUM-state sharing for
//! AVG, COUNT wiring, group-key routing), on plans hash and dense
//! grouping build alike.

mod support;

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::plan::QueryPlan;
use rfa_engine::{
    lineitem_table, q1_plan, q6_plan, sql_query, AggColumn, Column, ExecOptions, Expr, GroupKey,
    SqlColumn, SumBackend, Table,
};
use rfa_workloads::Lineitem;
use support::{assert_bitwise, q1_reference, q6_reference};

/// Fixes the thread budget at 8 so the parallel paths genuinely fork
/// scoped threads even on small CI boxes.
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
    /// for every backend × thread count × batch width — including
    /// the engine-finalized AVG and COUNT columns.
    #[test]
    fn q1_plan_matches_legacy_bitwise(t in lineitem_strategy(600)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let legacy = q1_reference(&t, backend).unwrap();
            for opts in shapes() {
                let r = q1_plan().execute(&table, backend, &opts).unwrap();
                assert_bitwise(&legacy, &r, &format!("{backend:?} {opts:?}"));
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
                assert_bitwise(&legacy, &r, &format!("{backend:?} {opts:?}"));
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
                assert_bitwise(&d, &h, &format!("{backend:?} {opts:?}"));
            }
        }
    }
}

/// The empty-table and empty-group cells of the special-value table,
/// through the whole engine: a 0-row table, and 300 rows that a filter
/// empties — per batch (`v > 1e6`) or before any batch (`kr < 0`,
/// decided on the RLE runs) — on every backend at 1 / 2 / 8 threads, ungrouped and grouped by a byte
/// pair, a hashed `I32` key and an RLE key, through the builder plan and
/// SQL alike. An ungrouped query answers one row: SUM `+0.0` (by bits),
/// COUNT 0, AVG NaN, MIN `+∞`, MAX `−∞`. A grouped one answers no row.
#[test]
fn empty_table_and_empty_groups_answer_alike_on_every_path() {
    force_pool();
    let table = |n: i32| {
        let mut t = Table::new("t");
        let k: Vec<i32> = (0..n).map(|i| i / 40).collect();
        let v: Vec<f64> = (0..n).map(|i| f64::from(i % 7) - 3.5).collect();
        let byte = |m: i32| Column::u8((0..n).map(|i| (i % m) as u8).collect::<Vec<_>>());
        t.add_column("a", byte(3)).unwrap();
        t.add_column("b", byte(2)).unwrap();
        t.add_column("k", Column::i32(k.clone())).unwrap();
        t.add_column("kr", Column::i32(k).rle_encode().unwrap())
            .unwrap();
        t.add_column("v", Column::f64(v)).unwrap();
        t
    };
    let groupings = [
        (GroupKey::None, ""),
        (
            GroupKey::HashPair {
                a: "a".into(),
                b: "b".into(),
            },
            "a, b",
        ),
        (GroupKey::Hash { col: "k".into() }, "k"),
        (GroupKey::Hash { col: "kr".into() }, "kr"),
    ];
    let inputs = [
        (table(0), None),
        (
            table(300),
            Some(("v > 1000000", Expr::col("v").gt(Expr::lit(1e6)))),
        ),
        (
            table(300),
            Some(("kr < 0", Expr::col("kr").lt(Expr::lit(0.0)))),
        ),
    ];
    // Every value by its bits, NaN by one pattern: `0.0 / 0` is the
    // platform's NaN, whatever its sign.
    let canon = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
    let nothing = |grouped: bool| {
        let one = |x: f64| if grouped { vec![] } else { vec![canon(&x)] };
        let count = if grouped { vec![] } else { vec![0] };
        [
            one(0.0),
            count,
            one(f64::NAN),
            one(f64::INFINITY),
            one(f64::NEG_INFINITY),
        ]
    };
    for (t, filter) in &inputs {
        for (group_by, keys) in &groupings {
            let mut plan = QueryPlan::scan("t").group_by(group_by.clone());
            let select = if keys.is_empty() {
                String::new()
            } else {
                format!("{keys}, ")
            };
            let mut text =
                format!("SELECT {select}SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t");
            if let Some((cond, pred)) = filter {
                plan = plan.filter(pred.clone());
                text += &format!(" WHERE {cond}");
            }
            if !keys.is_empty() {
                text += &format!(" GROUP BY {keys}");
            }
            let v = || Expr::col("v");
            let plan = plan.sum(v()).count().avg(v()).min(v()).max(v());
            let sql = sql_query(&text, t).unwrap();
            let grouped = !matches!(group_by, GroupKey::None);
            let want = nothing(grouped);
            for backend in BACKENDS {
                for opts in shapes() {
                    let ctx = format!("{} rows, {text}, {backend:?} t{}", t.rows(), opts.threads);
                    let p = plan.execute(t, backend, &opts).unwrap();
                    assert_eq!(p.keys, if grouped { vec![] } else { vec![0] }, "{ctx}");
                    let got: Vec<Vec<u64>> = p
                        .columns
                        .iter()
                        .map(|c| match c {
                            AggColumn::F64(x) => x.iter().map(canon).collect(),
                            AggColumn::U64(x) => x.clone(),
                        })
                        .collect();
                    assert_eq!(got, want, "plan {ctx}");
                    let s = sql.execute(t, backend, &opts).unwrap();
                    let key_columns = s.columns.len() - want.len();
                    assert!(
                        s.columns[..key_columns].iter().all(|c| c.is_empty()),
                        "{ctx}"
                    );
                    let got: Vec<Vec<u64>> = s.columns[key_columns..]
                        .iter()
                        .map(|c| match c {
                            SqlColumn::F64(x) => x.iter().map(canon).collect(),
                            SqlColumn::U64(x) => x.clone(),
                            SqlColumn::I64(x) => panic!("{ctx}: an aggregate as I64 {x:?}"),
                        })
                        .collect();
                    assert_eq!(got, want, "sql {ctx}");
                }
            }
        }
    }
}

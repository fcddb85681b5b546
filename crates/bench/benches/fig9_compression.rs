//! Figure 9 (compression) — TPC-H Q1 and Q6 over dictionary/RLE-encoded
//! columns vs plain arrays, without decompressing.
//!
//! The fused executor reads `Column::Dict`/`Column::Rle` storage
//! directly: predicates are evaluated once per dictionary *entry* (a
//! 256-way code-set bitmap tested per row) or once per *run* (decided at
//! bind time into row ranges — batches outside them are never visited,
//! the "visited / pruned" column). Group keys and aggregate inputs are
//! read through their encoding (a value per run span, a code lookup)
//! and deposited like plain ones. Both arms perform the identical
//! floating-point deposit sequence, so the bench cross-asserts every
//! output bit before reporting the ratio.
//!
//! Arms (all serial, `repro<double,4>` buffered — Table IV's backend):
//!
//! * Q1 / Q6 over the dbgen-ordered table, encoded by the production
//!   policy (`lineitem_table_encoded`): small-domain columns dictionary-
//!   encode, nothing is run-clustered, so this reads as pure dictionary
//!   overhead/win;
//! * Q1 over the (returnflag, linestatus)-sorted table — the group keys
//!   RLE-encode and are read one run span at a time;
//! * Q6 over the shipdate-sorted table — the one-year shipdate band is
//!   one row range, and the scan visits only the batches it overlaps;
//! * unfiltered `SUM`+`COUNT` where the *aggregate input itself* is
//!   encoded:
//!   - `SUM(l_quantity)` over the quantity-sorted table (~50 long runs,
//!     `Rle<F64>`) — evaluated by a fill per run,
//!   - `SUM(l_quantity)` in dbgen order (`Dict<F64>`, u8 codes) and
//!     `SUM(l_suppkey)` in dbgen order (`Dict16<I32>`, u16 codes, 10 000
//!     entries) — evaluated through the code lookup,
//!
//!   each deposited like any expression, so these read as the cost of
//!   reading the encoding;
//! * `SUM(r)` under a 2 % filter (`k < 20`, `k = i % 1000`), where `r =
//!   (i / 4) · 0.5` is `Rle<F64>` with runs of 4 rows: every batch gathers
//!   its few selected rows through the runs, each batch's read starting
//!   from a binary search for its first row, so the arm reads the cost of
//!   a sparse gather through RLE — not of a walk from the column's first
//!   run.
//!
//! The two arms of a row alternate rep by rep (plain then encoded, then
//! encoded then plain), so a drift of the host lands on both. "vs plain"
//! is the median of the per-rep encoded ÷ plain ratios, with their min and
//! max; the ns/elem columns are each arm's fastest rep.

use rfa_bench::{f2, ns_per_elem, BenchConfig, ResultTable};
use rfa_core::CacheModel;
use rfa_engine::plan::QueryPlan;
use rfa_engine::{
    lineitem_table, lineitem_table_encoded, q1_plan, q6_plan, AggColumn, Column, ExecOptions, Expr,
    PlanResult, SumBackend, Table,
};
use rfa_workloads::Lineitem;

/// Both arms must produce the same group keys and the same output bits —
/// compression must be invisible to the result, not approximately so.
fn assert_bit_identical(plain: &PlanResult, encoded: &PlanResult, ctx: &str) {
    assert_eq!(plain.keys, encoded.keys, "{ctx}: group keys disagree");
    assert_eq!(plain.columns.len(), encoded.columns.len(), "{ctx}");
    for (c, cols) in plain.columns.iter().zip(&encoded.columns).enumerate() {
        match cols {
            (AggColumn::F64(a), AggColumn::F64(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: column {c} bits differ");
                }
            }
            (AggColumn::U64(a), AggColumn::U64(b)) => {
                assert_eq!(a, b, "{ctx}: column {c} counts differ")
            }
            _ => panic!("{ctx}: column {c} kind mismatch"),
        }
    }
}

/// The sparse-RLE arm's twins: `k = i % 1000` (plain `I32`) and `r = (i /
/// 4) · 0.5`, plain in the first table and `Rle<F64>` in the second.
fn sparse_rle_twins(n: usize) -> (Table, Table) {
    let k = Column::i32((0..n).map(|i| (i % 1000) as i32).collect::<Vec<_>>());
    let r = Column::f64((0..n).map(|i| (i / 4) as f64 * 0.5).collect::<Vec<_>>());
    let twin = |r: Column| {
        let mut t = Table::new("t");
        t.add_column("k", k.clone()).expect("k");
        t.add_column("r", r).expect("r");
        t
    };
    let encoded = twin(r.rle_encode().expect("rle"));
    (twin(r), encoded)
}

/// How a column is physically stored, e.g. "Rle<U8>" / "Dict<F64>" / "F64".
fn storage(table: &Table, name: &str) -> &'static str {
    table.column(name).expect("lineitem column").storage_name()
}

/// One row's timings: each arm's fastest rep in ns/elem, and the
/// (min, median, max) of the per-rep encoded ÷ plain ratios.
struct Timed {
    plain_ns: f64,
    encoded_ns: f64,
    ratio: (f64, f64, f64),
}

fn measure(
    plan: &QueryPlan,
    plain: &Table,
    encoded: &Table,
    backend: SumBackend,
    reps: usize,
    n: usize,
    ctx: &str,
) -> (Timed, PlanResult) {
    let opts = ExecOptions::serial();
    let want = plan.execute(plain, backend, &opts).expect(ctx);
    let got = plan.execute(encoded, backend, &opts).expect(ctx);
    assert_bit_identical(&want, &got, ctx);
    let time = |table: &Table| {
        let t = std::time::Instant::now();
        std::hint::black_box(plan.execute(table, backend, &opts).expect(ctx));
        t.elapsed()
    };
    let (mut best_plain, mut best_encoded) = (std::time::Duration::MAX, std::time::Duration::MAX);
    let mut ratios = Vec::with_capacity(reps.max(1));
    for rep in 0..reps.max(1) {
        let (p, e) = if rep % 2 == 0 {
            let p = time(plain);
            (p, time(encoded))
        } else {
            let e = time(encoded);
            (time(plain), e)
        };
        best_plain = best_plain.min(p);
        best_encoded = best_encoded.min(e);
        ratios.push(e.as_secs_f64() / p.as_secs_f64());
    }
    ratios.sort_by(f64::total_cmp);
    let timed = Timed {
        plain_ns: ns_per_elem(best_plain, n),
        encoded_ns: ns_per_elem(best_encoded, n),
        ratio: (
            ratios[0],
            ratios[ratios.len() / 2],
            ratios[ratios.len() - 1],
        ),
    };
    (timed, got)
}

fn main() {
    let cfg = BenchConfig::from_env();
    let n = cfg.n;
    let backend = SumBackend::ReproBuffered {
        buffer_size: CacheModel::default().buffer_size(6, 8, 0),
    };

    let lineitem = Lineitem::generate(n, 1);
    let by_group = lineitem.sorted_by_q1_group();
    let by_shipdate = lineitem.sorted_by_shipdate();
    let by_quantity = lineitem.sorted_by_quantity();

    // Encoded-input plans: no filter, no grouping — the scan cost is
    // loading the input and the deposit loop, so the ratio isolates the
    // run-span fill (RLE) and the code lookup (Dict) against plain loads.
    let sum_qty = QueryPlan::scan("lineitem")
        .sum(Expr::col("l_quantity"))
        .count();
    let sum_suppkey = QueryPlan::scan("lineitem")
        .sum(Expr::col("l_suppkey"))
        .count();

    // Plain and encoded twins share each physical row order, so the
    // ratio isolates storage, not data placement.
    let arms: [(&str, &QueryPlan, &Lineitem, &'static str); 7] = [
        ("q1 dbgen order", &q1_plan(), &lineitem, "l_returnflag"),
        ("q1 group-sorted", &q1_plan(), &by_group, "l_returnflag"),
        ("q6 dbgen order", &q6_plan(), &lineitem, "l_shipdate"),
        ("q6 shipdate-sorted", &q6_plan(), &by_shipdate, "l_shipdate"),
        ("sum(qty) dbgen order", &sum_qty, &lineitem, "l_quantity"),
        ("sum(qty) qty-sorted", &sum_qty, &by_quantity, "l_quantity"),
        (
            "sum(suppkey) dbgen order",
            &sum_suppkey,
            &lineitem,
            "l_suppkey",
        ),
    ];

    let mut table = ResultTable::new(
        format!("Figure 9 (compression): Q1/Q6 over Dict/Rle vs plain columns, serial, n = {n}"),
        &[
            "arm",
            "key storage",
            "plain ns/elem",
            "encoded ns/elem",
            "vs plain (median [min, max])",
            "visited / pruned",
        ],
    );
    for (name, plan, rows, key_col) in arms {
        let plain = lineitem_table(rows);
        let encoded = lineitem_table_encoded(rows);
        let (timed, run) = measure(plan, &plain, &encoded, backend, cfg.reps, n, name);
        let (lo, mid, hi) = timed.ratio;
        table.row(vec![
            name.into(),
            storage(&encoded, key_col).into(),
            f2(timed.plain_ns),
            f2(timed.encoded_ns),
            format!("{mid:.2}x [{lo:.2}, {hi:.2}]"),
            format!("{} / {}", run.batches_visited, run.batches_pruned),
        ]);
    }
    let (plain, encoded) = sparse_rle_twins(n);
    let sparse_sum = QueryPlan::scan("t")
        .filter(Expr::col("k").lt(Expr::lit(20.0)))
        .sum(Expr::col("r"))
        .count();
    let name = "sum(r) 2% filter, runs of 4";
    let (timed, run) = measure(&sparse_sum, &plain, &encoded, backend, cfg.reps, n, name);
    let (lo, mid, hi) = timed.ratio;
    table.row(vec![
        name.into(),
        storage(&encoded, "r").into(),
        f2(timed.plain_ns),
        f2(timed.encoded_ns),
        format!("{mid:.2}x [{lo:.2}, {hi:.2}]"),
        format!("{} / {}", run.batches_visited, run.batches_pruned),
    ]);
    table.print();
    table.write_csv("fig9_compression");
    println!(
        "  paper shape: dictionary arms sit near 1x (pushdown trades a compare for a\n  \
         byte-indexed lookup); the RLE shipdate band is a row range decided before\n  \
         the scan, so most batches are never visited. RLE group keys and the\n  \
         RLE-sorted SUM input are read by a fill per run span and deposited like\n  \
         plain ones, and the sparse RLE gather starts each batch from a binary\n  \
         search; the dictionary SUM inputs pay one code lookup per row. Identical\n  \
         bits in every arm."
    );
    assert!(
        matches!(encoded.column("r").unwrap(), Column::Rle { .. }),
        "the sparse arm's input must be RLE"
    );

    // Each arm must run on the storage it is named for: Q1's two u8 group
    // columns (RLE after sorting, Dict always), Q6's shipdate band, and
    // the Dict / Dict16 / RLE agg-pushdown inputs.
    let by_group_encoded = lineitem_table_encoded(&by_group);
    assert!(
        matches!(
            by_group_encoded.column("l_returnflag").unwrap(),
            Column::Rle { .. }
        ),
        "group-sorted returnflag must RLE-encode"
    );
    let by_shipdate_encoded = lineitem_table_encoded(&by_shipdate);
    assert!(
        matches!(
            by_shipdate_encoded.column("l_shipdate").unwrap(),
            Column::Rle { .. }
        ),
        "shipdate-sorted shipdate must RLE-encode"
    );
    let dbgen_encoded = lineitem_table_encoded(&lineitem);
    assert!(
        matches!(
            dbgen_encoded.column("l_quantity").unwrap(),
            Column::Dict { .. }
        ),
        "dbgen-order quantity must Dict-encode (u8 codes)"
    );
    assert!(
        matches!(
            dbgen_encoded.column("l_suppkey").unwrap(),
            Column::Dict16 { .. }
        ),
        "dbgen-order suppkey must Dict16-encode (u16 codes)"
    );
    let by_quantity_encoded = lineitem_table_encoded(&by_quantity);
    assert!(
        matches!(
            by_quantity_encoded.column("l_quantity").unwrap(),
            Column::Rle { .. }
        ),
        "quantity-sorted quantity must RLE-encode"
    );
}

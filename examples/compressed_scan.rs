//! Compressed columnar scans: dictionary and RLE columns the fused
//! executor reads without decompressing.
//!
//! Builds TPC-H lineitem twice — plain arrays vs `Column::Dict` /
//! `Column::Rle` storage in the same physical row order — runs Q1 and Q6
//! over both, asserts every output bit identical, and prints the timing
//! side by side. Sorting by the Q1 group key first gives RLE group keys,
//! read one value per run span; their group ids and deposits are those
//! of any other key storage. Sorting by shipdate shows range pruning:
//! Q6's date band is decided per run when the query is bound, and the
//! scan visits only the batches that overlap it (the `batches` column).
//!
//! Run with: `cargo run --release --example compressed_scan`
//! (set `RFA_ROWS` to change the row count).

use std::time::Instant;

use rfa::engine::plan::{PlanResult, QueryPlan};
use rfa::engine::{
    lineitem_table, lineitem_table_encoded, q1_plan, q6_plan, AggColumn, ExecOptions, SumBackend,
    Table,
};
use rfa::workloads::Lineitem;

/// Compression must be invisible in the result: same group keys, same
/// bits in every aggregate — not approximately equal, identical.
fn assert_bit_identical(plain: &PlanResult, encoded: &PlanResult, ctx: &str) {
    assert_eq!(plain.keys, encoded.keys, "{ctx}: keys");
    for (c, cols) in plain.columns.iter().zip(&encoded.columns).enumerate() {
        match cols {
            (AggColumn::F64(a), AggColumn::F64(b)) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: column {c}");
                }
            }
            (AggColumn::U64(a), AggColumn::U64(b)) => assert_eq!(a, b, "{ctx}: column {c}"),
            _ => panic!("{ctx}: column {c} kind mismatch"),
        }
    }
}

fn time_ns_per_elem(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / n as f64
}

fn race(name: &str, plan: &QueryPlan, plain: &Table, encoded: &Table, n: usize) {
    let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
    let opts = ExecOptions::serial();
    let want = plan.execute(plain, backend, &opts).expect("plain");
    let got = plan.execute(encoded, backend, &opts).expect("encoded");
    assert_bit_identical(&want, &got, name);
    let plain_ns = time_ns_per_elem(n, || {
        std::hint::black_box(plan.execute(plain, backend, &opts).expect("plain"));
    });
    let encoded_ns = time_ns_per_elem(n, || {
        std::hint::black_box(plan.execute(encoded, backend, &opts).expect("encoded"));
    });
    println!(
        "  {name:<22} plain {plain_ns:>7.2} ns/elem | encoded {encoded_ns:>7.2} ns/elem | \
         {:.2}x | batches {} visited, {} pruned | bits identical",
        encoded_ns / plain_ns,
        got.batches_visited,
        got.batches_pruned
    );
}

fn describe(encoded: &Table) {
    print!("  storage:");
    for (name, _) in encoded.schema() {
        let storage = encoded.column(name).expect("column").storage_name();
        if storage.contains('<') {
            print!(" {name}={storage}");
        }
    }
    println!();
}

fn main() {
    let n = rfa::core::knob::env_knob("RFA_ROWS", "an integer >= 1", |v| {
        v.parse::<usize>().ok().filter(|&n| n >= 1)
    })
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
    .unwrap_or(1 << 20);
    let lineitem = Lineitem::generate(n, 7);

    // dbgen order: the small-domain columns dictionary-encode (flags,
    // quantity, discount, tax); nothing is run-clustered yet.
    println!("dbgen order, n = {n}:");
    let encoded = lineitem_table_encoded(&lineitem);
    describe(&encoded);
    let plain = lineitem_table(&lineitem);
    race("q1 (dict keys)", &q1_plan(), &plain, &encoded, n);
    race("q6 (dict predicates)", &q6_plan(), &plain, &encoded, n);

    // Sorted by the Q1 group pair: the two u8 key columns collapse to
    // six runs, read once per run span by the key fill.
    println!("sorted by (l_returnflag, l_linestatus):");
    let by_group = lineitem.sorted_by_q1_group();
    let encoded = lineitem_table_encoded(&by_group);
    describe(&encoded);
    race(
        "q1 (rle keys)",
        &q1_plan(),
        &lineitem_table(&by_group),
        &encoded,
        n,
    );

    // Sorted by shipdate: the Q6 date band over the RLE shipdate column
    // is one row range, known before the first batch — the rest of the
    // table is never visited.
    println!("sorted by l_shipdate:");
    let by_shipdate = lineitem.sorted_by_shipdate();
    let encoded = lineitem_table_encoded(&by_shipdate);
    describe(&encoded);
    race(
        "q6 (rle shipdate)",
        &q6_plan(),
        &lineitem_table(&by_shipdate),
        &encoded,
        n,
    );

    println!("every arm read Dict/Rle storage directly — nothing was decompressed.");
}

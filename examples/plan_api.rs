//! The plan-driven query layer: build logical plans over SUM / COUNT /
//! AVG / MIN / MAX with byte-pair or hash group keys, execute them on the
//! fused zero-copy scan, and watch reproducibility survive a physical
//! reorder that flips the plain-double answer.
//!
//! Run with: `cargo run --release --example plan_api`

use rfa::engine::plan::QueryPlan;
use rfa::engine::{lineitem_table, q15_plan, Column, ExecOptions, Expr, SumBackend, Table};
use rfa::workloads::Lineitem;

fn main() {
    // --- 1. an ad-hoc plan over TPC-H lineitem ---------------------------
    let lineitem = Lineitem::generate(200_000, 7);
    let table = lineitem_table(&lineitem);

    // SELECT sum(qty), avg(qty), min(price), max(price), count(*)
    // FROM lineitem WHERE l_shipdate <= 1000 GROUP BY flag pair
    let plan = QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").le(Expr::lit(1000.0)))
        .group_by_u8_pair("l_returnflag", "l_linestatus")
        .sum(Expr::col("l_quantity"))
        .avg(Expr::col("l_quantity"))
        .min(Expr::col("l_extendedprice"))
        .max(Expr::col("l_extendedprice"))
        .count();
    let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
    let r = plan
        .execute(&table, backend, &ExecOptions::parallel())
        .expect("valid plan");
    println!("pair-grouped plan over lineitem (shipdate <= 1000):");
    println!("  rf ls |      sum_qty |  avg_qty |  min_price |  max_price | count");
    for (i, &pair) in r.keys.iter().enumerate() {
        // The key packs the two ASCII bytes as `(flag << 8) | status`.
        let (rf, ls) = ((pair >> 8) as u8 as char, pair as u8 as char);
        println!(
            "   {rf}  {ls} | {:>12.2} | {:>8.4} | {:>10.2} | {:>10.2} | {:>5}",
            r.columns[0].f64s()[i],
            r.columns[1].f64s()[i],
            r.columns[2].f64s()[i],
            r.columns[3].f64s()[i],
            r.columns[4].u64s()[i],
        );
    }

    // --- 2. high-cardinality hash grouping: Q15 revenue by supplier ------
    let q15 = q15_plan()
        .execute(&table, backend, &ExecOptions::serial())
        .expect("q15");
    let (revenue, counts) = (q15.columns[0].f64s(), q15.columns[1].u64s());
    let top = (0..q15.keys.len())
        .max_by(|&a, &b| revenue[a].total_cmp(&revenue[b]))
        .expect("suppliers exist");
    println!(
        "\nQ15 revenue view: {} suppliers with revenue in the window;",
        q15.keys.len()
    );
    println!(
        "  top supplier {} earned {:.2} over {} lineitems",
        q15.keys[top], revenue[top], counts[top]
    );

    // --- 3. validation errors, not panics --------------------------------
    let bad = QueryPlan::scan("lineitem").sum(Expr::col("l_comment"));
    println!("\nplans validate against the table:");
    println!(
        "  {}",
        bad.execute(&table, backend, &ExecOptions::serial())
            .unwrap_err()
    );

    // --- 4. reproducibility: the point of it all -------------------------
    // The same logical content in a different physical order: plain
    // doubles drift, every reproducible backend returns identical bits.
    let mut t = Table::new("m");
    let n = 100_000;
    t.add_column(
        "k",
        Column::i32((0..n).map(|i| i % 1000).collect::<Vec<_>>()),
    )
    .unwrap();
    t.add_column(
        "v",
        Column::f64(
            (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        2.5e-16
                    } else {
                        0.999_999_999_999_999 * ((i % 7) as f64 - 3.0)
                    }
                })
                .collect::<Vec<_>>(),
        ),
    )
    .unwrap();
    let by_key = QueryPlan::scan("m").group_by_key("k").sum(Expr::col("v"));
    let before_repro = by_key
        .execute(&t, SumBackend::Rsum { levels: 2 }, &ExecOptions::serial())
        .unwrap();
    let before_plain = by_key
        .execute(&t, SumBackend::Double, &ExecOptions::serial())
        .unwrap();
    // Physically reverse the table (an MVCC update or compaction would do
    // the same); the logical content is unchanged.
    let perm: Vec<u32> = (0..n as u32).rev().collect();
    t.reorder(&perm).expect("plain columns always reorder");
    let after_repro = by_key
        .execute(&t, SumBackend::Rsum { levels: 2 }, &ExecOptions::serial())
        .unwrap();
    let after_plain = by_key
        .execute(&t, SumBackend::Double, &ExecOptions::serial())
        .unwrap();
    let repro_flips = before_repro.columns[0]
        .f64s()
        .iter()
        .zip(after_repro.columns[0].f64s())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    let plain_flips = before_plain.columns[0]
        .f64s()
        .iter()
        .zip(after_plain.columns[0].f64s())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    println!("\nafter physically reversing the table (1000 hash groups):");
    println!("  RSUM(v, 2) groups with changed bits:  {repro_flips}");
    println!("  plain SUM  groups with changed bits:  {plain_flips}");
    assert_eq!(repro_flips, 0, "reproducible SUM must not move a bit");
}

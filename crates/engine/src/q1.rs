//! TPC-H Query 1 (paper §VI-E, Table IV).
//!
//! ```sql
//! SELECT l_returnflag, l_linestatus,
//!        sum(l_quantity), sum(l_extendedprice),
//!        sum(l_extendedprice * (1 - l_discount)),
//!        sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
//!        avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//! FROM lineitem
//! WHERE l_shipdate <= date '1998-12-01' - interval '90' day
//! GROUP BY l_returnflag, l_linestatus
//! ORDER BY l_returnflag, l_linestatus;
//! ```
//!
//! Q1 is expressed as a [`QueryPlan`] ([`q1_plan`]) — four SUMs, three
//! AVGs and a COUNT grouped by the flag / status byte pair — lowered onto
//! the fused zero-copy scan of [`crate::fused`]: batches are filtered,
//! projected and aggregated in one pass over a shared-storage table view,
//! with no n-sized intermediates. The AVG columns are finalized by the
//! engine from the shared reproducible SUM states and the exact COUNT
//! (not by post-hoc division here), and each AVG shares its SUM state
//! with the matching SUM column, so the plan still runs exactly five SUM
//! state arrays — on every backend, [`SumBackend::SortedDouble`]
//! included: each of its SUM states sorts its own column's values.
//!
//! CPU time is split into *scan* (selection + projection), *aggregation*
//! and *other* (finalization). The paper's Table IV reports
//! "aggregation" vs "other", where its "other" is our scan + other; the
//! table view is zero-copy and free.

use crate::column::Table;
use crate::expr::Expr;
use crate::fused::ExecOptions;
use crate::plan::{PlanError, QueryPlan};
use crate::sum_op::{OverflowError, SumBackend};
use rfa_workloads::tpch::{Lineitem, Q1_SHIPDATE_CUTOFF};
use std::time::{Duration, Instant};

/// CPU-time split of a query execution (Table IV's rows, with the scan
/// broken out of the paper's "other" bucket).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTiming {
    /// Selection, group-id computation and expression projection.
    pub scan: Duration,
    /// Deposits into the SUM states and their merges.
    pub aggregation: Duration,
    /// Everything else: finalization — for [`SumBackend::SortedDouble`],
    /// the sort of every group's values with it.
    pub other: Duration,
}

impl PhaseTiming {
    pub fn total(&self) -> Duration {
        self.scan + self.aggregation + self.other
    }
}

/// One output row of Q1.
#[derive(Clone, Debug, PartialEq)]
pub struct Q1Row {
    pub returnflag: char,
    pub linestatus: char,
    pub sum_qty: f64,
    pub sum_base_price: f64,
    pub sum_disc_price: f64,
    pub sum_charge: f64,
    pub avg_qty: f64,
    pub avg_price: f64,
    pub avg_disc: f64,
    pub count: u64,
}

/// Builds a zero-copy engine [`Table`] view of all lineitem columns the
/// TPC-H queries touch: each column is an `Arc` clone of the workload's
/// storage — a refcount bump, not a data copy.
pub fn lineitem_table(t: &Lineitem) -> Table {
    use crate::column::Column;
    let mut table = Table::new("lineitem");
    table
        .add_column("l_quantity", Column::F64(t.quantity.clone()))
        .expect("fresh table");
    table
        .add_column("l_extendedprice", Column::F64(t.extendedprice.clone()))
        .expect("fresh table");
    table
        .add_column("l_discount", Column::F64(t.discount.clone()))
        .expect("fresh table");
    table
        .add_column("l_tax", Column::F64(t.tax.clone()))
        .expect("fresh table");
    table
        .add_column("l_shipdate", Column::I32(t.shipdate.clone()))
        .expect("fresh table");
    table
        .add_column("l_returnflag", Column::U8(t.returnflag.clone()))
        .expect("fresh table");
    table
        .add_column("l_linestatus", Column::U8(t.linestatus.clone()))
        .expect("fresh table");
    table
        .add_column("l_suppkey", Column::I32(t.suppkey.clone()))
        .expect("fresh table");
    table
}

/// The compressed twin of [`lineitem_table`]: every low-cardinality
/// column is stored encoded, and the fused executor reads the encodings
/// directly (predicates evaluate once per dictionary entry or run,
/// RLE group keys assign ids per run) — results are bit-identical to the
/// plain layout.
///
/// Per column, [`Table::encode_auto`] chooses the best encoding *for the
/// table's current physical order*: RLE when the layout gives the column
/// long runs (at most one run per 4 rows — e.g. the flag pair after
/// [`Lineitem::sorted_by_q1_group`], or `l_shipdate` after
/// [`Lineitem::sorted_by_shipdate`]), else a dictionary when it pays —
/// u8 codes for ≤256 distinct values (`l_quantity` has 50, `l_discount`
/// 11, `l_tax` 9, the flags 3 and 2), u16 codes up to 65 536
/// (`l_suppkey` spans the 10 000-supplier domain) — else plain
/// (`l_extendedprice` is near-unique: a dictionary would cost more than
/// the codes save).
pub fn lineitem_table_encoded(t: &Lineitem) -> Table {
    let mut table = lineitem_table(t);
    table.encode_auto(crate::column::EncodePolicy::default());
    table
}

/// The Q1 logical plan: one filter conjunct and the eight TPC-H output
/// aggregates in SQL order, grouped by the `(l_returnflag, l_linestatus)`
/// byte pair — the grouping [`q1_sql`] lowers to, so the two are one
/// plan. Output rows ascend by the packed pair, which is TPC-H's
/// `ORDER BY l_returnflag, l_linestatus` (`'A' < 'N' < 'R'`, `'F' < 'O'`)
/// and the order of the dense ids [`Lineitem::q1_group`]. Lowering shares
/// SUM states between the SUM and AVG calls, so exactly five SUM state
/// arrays run.
pub fn q1_plan() -> QueryPlan {
    let disc_price =
        || Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")));
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").le(Expr::lit(Q1_SHIPDATE_CUTOFF as f64)))
        .group_by_u8_pair("l_returnflag", "l_linestatus")
        .sum(Expr::col("l_quantity"))
        .sum(Expr::col("l_extendedprice"))
        .sum(disc_price())
        .sum(disc_price().mul(Expr::lit(1.0).add(Expr::col("l_tax"))))
        .avg(Expr::col("l_quantity"))
        .avg(Expr::col("l_extendedprice"))
        .avg(Expr::col("l_discount"))
        .count()
}

/// The pinned Q1 SQL text: parsing and lowering this through
/// [`crate::sql`] produces [`q1_plan`]'s plan and so its bits. The
/// date cutoff is inlined as the day number behind
/// [`Q1_SHIPDATE_CUTOFF`], since the engine stores dates as days since
/// 1992-01-01.
pub fn q1_sql() -> String {
    format!(
        "SELECT l_returnflag, l_linestatus, \
         SUM(l_quantity), SUM(l_extendedprice), \
         SUM(l_extendedprice * (1 - l_discount)), \
         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
         AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
         FROM lineitem \
         WHERE l_shipdate <= {Q1_SHIPDATE_CUTOFF} \
         GROUP BY l_returnflag, l_linestatus"
    )
}

/// Executes Q1 serially through the fused pipeline.
pub fn run_q1(
    lineitem: &Lineitem,
    backend: SumBackend,
) -> Result<(Vec<Q1Row>, PhaseTiming), OverflowError> {
    run_q1_with(lineitem, backend, &ExecOptions::serial())
}

/// Executes Q1 morsel-parallel on the work-stealing pool. Bit-identical
/// to [`run_q1`] for *every* backend: repro states and the sorted
/// baseline's value lists merge exactly, and plain doubles deliberately
/// scan serially (see [`crate::fused`]).
pub fn run_q1_par(
    lineitem: &Lineitem,
    backend: SumBackend,
) -> Result<(Vec<Q1Row>, PhaseTiming), OverflowError> {
    run_q1_with(lineitem, backend, &ExecOptions::parallel())
}

/// Executes Q1 with explicit execution options (thread budget, batch and
/// morsel sizing) by lowering [`q1_plan`] onto the fused executor. The
/// result is bit-identical for every backend and any options, and equal
/// to a naive per-row reference — asserted by the proptest suite.
pub fn run_q1_with(
    lineitem: &Lineitem,
    backend: SumBackend,
    opts: &ExecOptions,
) -> Result<(Vec<Q1Row>, PhaseTiming), OverflowError> {
    let table = lineitem_table(lineitem);
    let result = q1_plan()
        .execute(&table, backend, opts)
        .map_err(|e| match e {
            PlanError::Overflow(o) => o,
            other => unreachable!("the engine-built Q1 plan is valid: {other}"),
        })?;
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(result.keys.len());
    for (i, &pair) in result.keys.iter().enumerate() {
        rows.push(Q1Row {
            // The packed `(flag << 8) | status` key, both ASCII bytes.
            returnflag: (pair >> 8) as u8 as char,
            linestatus: pair as u8 as char,
            sum_qty: result.columns[0].f64s()[i],
            sum_base_price: result.columns[1].f64s()[i],
            sum_disc_price: result.columns[2].f64s()[i],
            sum_charge: result.columns[3].f64s()[i],
            avg_qty: result.columns[4].f64s()[i],
            avg_price: result.columns[5].f64s()[i],
            avg_disc: result.columns[6].f64s()[i],
            count: result.columns[7].u64s()[i],
        });
    }
    let mut timing = result.timing;
    timing.other += t0.elapsed();
    Ok((rows, timing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Lineitem {
        Lineitem::generate(120_000, 7)
    }

    fn assert_rows_bit_identical(a: &[Q1Row], b: &[Q1Row], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.returnflag, y.returnflag, "{ctx}");
            assert_eq!(x.linestatus, y.linestatus, "{ctx}");
            assert_eq!(x.count, y.count, "{ctx}");
            assert_eq!(x.sum_qty.to_bits(), y.sum_qty.to_bits(), "{ctx}");
            assert_eq!(
                x.sum_base_price.to_bits(),
                y.sum_base_price.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                x.sum_disc_price.to_bits(),
                y.sum_disc_price.to_bits(),
                "{ctx}"
            );
            assert_eq!(x.sum_charge.to_bits(), y.sum_charge.to_bits(), "{ctx}");
            assert_eq!(x.avg_disc.to_bits(), y.avg_disc.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn q1_produces_the_four_tpch_groups() {
        let (rows, _) = run_q1(&table(), SumBackend::Double).unwrap();
        let groups: Vec<(char, char)> = rows.iter().map(|r| (r.returnflag, r.linestatus)).collect();
        assert_eq!(groups, vec![('A', 'F'), ('N', 'F'), ('N', 'O'), ('R', 'F')]);
    }

    #[test]
    fn backends_agree_numerically() {
        let t = table();
        let (d, _) = run_q1(&t, SumBackend::Double).unwrap();
        let (u, _) = run_q1(&t, SumBackend::ReproUnbuffered).unwrap();
        let (b, _) = run_q1(&t, SumBackend::ReproBuffered { buffer_size: 1024 }).unwrap();
        let (s, _) = run_q1(&t, SumBackend::SortedDouble).unwrap();
        for (((rd, ru), rb), rs) in d.iter().zip(&u).zip(&b).zip(&s) {
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
            assert!(close(rd.sum_charge, ru.sum_charge));
            assert!(close(rd.sum_charge, rs.sum_charge));
            // Both repro variants are bit-identical to each other.
            assert_eq!(ru.sum_qty.to_bits(), rb.sum_qty.to_bits());
            assert_eq!(ru.sum_charge.to_bits(), rb.sum_charge.to_bits());
            assert_eq!(rd.count, ru.count);
        }
    }

    #[test]
    fn fused_is_bit_identical_to_materializing_for_every_backend() {
        // The reference materializes each SUM input row by row.
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 512 },
            SumBackend::Rsum { levels: 3 },
            SumBackend::RsumBuffered {
                levels: 2,
                buffer_size: 256,
            },
        ] {
            let reference = crate::test_support::q1_reference(&t, backend).unwrap();
            let (fused, _) = run_q1(&t, backend).unwrap();
            assert_rows_bit_identical(&reference, &fused, &format!("{backend:?}"));
        }
    }

    #[test]
    fn repro_backend_survives_physical_reorder() {
        let t = table();
        let (u1, _) = run_q1(&t, SumBackend::ReproUnbuffered).unwrap();
        // Reorder the table physically (reverse) and re-run.
        let n = t.len();
        let perm: Vec<usize> = (0..n).rev().collect();
        let reordered = Lineitem::from_columns(
            perm.iter().map(|&i| t.quantity[i]).collect(),
            perm.iter().map(|&i| t.extendedprice[i]).collect(),
            perm.iter().map(|&i| t.discount[i]).collect(),
            perm.iter().map(|&i| t.tax[i]).collect(),
            perm.iter().map(|&i| t.shipdate[i]).collect(),
            perm.iter().map(|&i| t.returnflag[i]).collect(),
            perm.iter().map(|&i| t.linestatus[i]).collect(),
            perm.iter().map(|&i| t.suppkey[i]).collect(),
        );
        let (u2, _) = run_q1(&reordered, SumBackend::ReproUnbuffered).unwrap();
        for (a, b) in u1.iter().zip(u2.iter()) {
            assert_eq!(a.sum_qty.to_bits(), b.sum_qty.to_bits());
            assert_eq!(a.sum_base_price.to_bits(), b.sum_base_price.to_bits());
            assert_eq!(a.sum_disc_price.to_bits(), b.sum_disc_price.to_bits());
            assert_eq!(a.sum_charge.to_bits(), b.sum_charge.to_bits());
        }
        // The sorted baseline is also reproducible.
        let (s1, _) = run_q1(&t, SumBackend::SortedDouble).unwrap();
        let (s2, _) = run_q1(&reordered, SumBackend::SortedDouble).unwrap();
        assert_rows_bit_identical(&s1, &s2, "SortedDouble");
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial_for_every_backend() {
        // The fused executor keeps even plain doubles thread-count
        // independent (they scan serially); every other backend merges
        // exactly.
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 512 },
            SumBackend::Rsum { levels: 3 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 256,
            },
            SumBackend::SortedDouble,
        ] {
            let (serial, _) = run_q1(&t, backend).unwrap();
            let (parallel, _) = run_q1_par(&t, backend).unwrap();
            assert_rows_bit_identical(&serial, &parallel, &format!("{backend:?}"));
        }
    }

    /// Tentpole: Q1 over the compressed table layouts — dictionary
    /// everywhere, and RLE group keys after clustering by the group pair
    /// — is bit-identical to the plain layout for every backend and
    /// thread count, and the encodings genuinely engage (the group
    /// columns are stored encoded, not silently decoded).
    #[test]
    fn q1_over_encoded_tables_is_bit_identical_to_plain() {
        use crate::column::Column;
        let t = table();
        let plain = lineitem_table(&t);
        let dict = lineitem_table_encoded(&t);
        let sorted = t.sorted_by_q1_group();
        let rle = lineitem_table_encoded(&sorted);

        // The unsorted twin dictionary-encodes the flags; the clustered
        // twin stores them as a handful of runs.
        assert!(matches!(
            dict.column("l_returnflag").unwrap(),
            Column::Dict { .. }
        ));
        assert!(matches!(
            rle.column("l_returnflag").unwrap(),
            Column::Rle { .. }
        ));
        assert!(matches!(
            rle.column("l_linestatus").unwrap(),
            Column::Rle { .. }
        ));
        assert!(matches!(
            dict.column("l_quantity").unwrap(),
            Column::Dict { .. }
        ));
        // The auto-encoder widens to u16 codes where 256 entries don't
        // fit (the 10 000-supplier key) and leaves near-unique columns
        // plain (a dictionary over l_extendedprice would outgrow it).
        assert_eq!(
            dict.column("l_suppkey").unwrap().storage_name(),
            "Dict16<I32>"
        );
        assert_eq!(
            dict.column("l_extendedprice").unwrap().storage_name(),
            "F64"
        );

        fn assert_bitwise(a: &crate::plan::PlanResult, b: &crate::plan::PlanResult, ctx: &str) {
            use crate::plan::AggColumn;
            assert_eq!(a.keys, b.keys, "{ctx}");
            for (c, cols) in a.columns.iter().zip(&b.columns).enumerate() {
                match cols {
                    (AggColumn::F64(x), AggColumn::F64(y)) => {
                        for (u, v) in x.iter().zip(y) {
                            assert_eq!(u.to_bits(), v.to_bits(), "{ctx} column {c}");
                        }
                    }
                    (AggColumn::U64(x), AggColumn::U64(y)) => assert_eq!(x, y, "{ctx} column {c}"),
                    _ => panic!("{ctx} column {c}: kind mismatch"),
                }
            }
        }
        let plan = q1_plan();
        let sorted_plain = lineitem_table(&sorted);
        for backend in [
            SumBackend::Double,
            SumBackend::ReproUnbuffered,
            SumBackend::Rsum { levels: 2 },
            SumBackend::SortedDouble,
        ] {
            for threads in [1usize, 4] {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let want = plan.execute(&plain, backend, &opts).unwrap();
                let got = plan.execute(&dict, backend, &opts).unwrap();
                assert_bitwise(&want, &got, &format!("{backend:?} t{threads} dict"));
                // The clustered RLE twin must match a plain table in the
                // same (sorted) physical order.
                let want = plan.execute(&sorted_plain, backend, &opts).unwrap();
                let got = plan.execute(&rle, backend, &opts).unwrap();
                assert_bitwise(&want, &got, &format!("{backend:?} t{threads} rle"));
            }
        }
    }

    #[test]
    fn averages_are_consistent() {
        let (rows, _) = run_q1(&table(), SumBackend::ReproUnbuffered).unwrap();
        for r in &rows {
            assert!((r.avg_qty - r.sum_qty / r.count as f64).abs() < 1e-12);
            assert!((1.0..=50.0).contains(&r.avg_qty));
            assert!((0.0..=0.10).contains(&r.avg_disc));
        }
    }
}

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
//! state arrays — on every backend,
//! [`SumBackend::SortedDouble`](crate::SumBackend::SortedDouble) included:
//! each of its SUM states sorts its own column's values.
//!
//! Every [`crate::PlanResult`] carries its CPU time split
//! ([`crate::PhaseTiming`]) into *scan* (selection + projection),
//! *aggregation* and *other* (finalization). The paper's Table IV reports
//! "aggregation" vs "other", where its "other" is our scan + other; the
//! table view is zero-copy and free.

use crate::column::Table;
use crate::expr::Expr;
use crate::plan::QueryPlan;
use rfa_workloads::tpch::{Lineitem, Q1_SHIPDATE_CUTOFF};

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
/// RLE group keys are read once per run span) — results are
/// bit-identical to the plain layout.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::ExecOptions;
    use crate::plan::PlanResult;
    use crate::sum_op::SumBackend;
    use crate::test_support::assert_bitwise;

    fn table() -> Lineitem {
        Lineitem::generate(120_000, 7)
    }

    fn q1(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> PlanResult {
        q1_plan()
            .execute(&lineitem_table(t), backend, opts)
            .unwrap()
    }

    fn serial(t: &Lineitem, backend: SumBackend) -> PlanResult {
        q1(t, backend, &ExecOptions::serial())
    }

    #[test]
    fn q1_produces_the_four_tpch_groups() {
        let rows = serial(&table(), SumBackend::Double);
        let pair = |f: u8, s: u8| i64::from(f) << 8 | i64::from(s);
        let want = [
            pair(b'A', b'F'),
            pair(b'N', b'F'),
            pair(b'N', b'O'),
            pair(b'R', b'F'),
        ];
        assert_eq!(rows.keys, want);
    }

    #[test]
    fn backends_agree_numerically() {
        let t = table();
        let d = serial(&t, SumBackend::Double);
        let u = serial(&t, SumBackend::ReproUnbuffered);
        let b = serial(&t, SumBackend::ReproBuffered { buffer_size: 1024 });
        let s = serial(&t, SumBackend::SortedDouble);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        for g in 0..d.keys.len() {
            let charge = |r: &PlanResult| r.columns[3].f64s()[g];
            assert!(close(charge(&d), charge(&u)));
            assert!(close(charge(&d), charge(&s)));
            // Both repro variants are bit-identical to each other.
            for c in [0, 3] {
                let bits = |r: &PlanResult| r.columns[c].f64s()[g].to_bits();
                assert_eq!(bits(&u), bits(&b));
            }
            assert_eq!(d.columns[7].u64s()[g], u.columns[7].u64s()[g]);
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
            let fused = serial(&t, backend);
            assert_bitwise(&reference, &fused, &format!("{backend:?}"));
        }
    }

    #[test]
    fn repro_backend_survives_physical_reorder() {
        let t = table();
        let u1 = serial(&t, SumBackend::ReproUnbuffered);
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
        let u2 = serial(&reordered, SumBackend::ReproUnbuffered);
        assert_bitwise(&u1, &u2, "ReproUnbuffered");
        // The sorted baseline is also reproducible.
        let s1 = serial(&t, SumBackend::SortedDouble);
        let s2 = serial(&reordered, SumBackend::SortedDouble);
        assert_bitwise(&s1, &s2, "SortedDouble");
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
            let parallel = q1(&t, backend, &ExecOptions::parallel());
            assert_bitwise(&serial(&t, backend), &parallel, &format!("{backend:?}"));
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
        let r = serial(&table(), SumBackend::ReproUnbuffered);
        let col = |c: usize| r.columns[c].f64s();
        for g in 0..r.keys.len() {
            let count = r.columns[7].u64s()[g] as f64;
            assert!((col(4)[g] - col(0)[g] / count).abs() < 1e-12);
            assert!((1.0..=50.0).contains(&col(4)[g]));
            assert!((0.0..=0.10).contains(&col(6)[g]));
        }
    }
}

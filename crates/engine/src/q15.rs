//! TPC-H Query 15's revenue view — revenue by supplier.
//!
//! ```sql
//! SELECT l_suppkey,
//!        sum(l_extendedprice * (1 - l_discount)) AS total_revenue,
//!        count(*)
//! FROM lineitem
//! WHERE l_shipdate >= date '1996-01-01'
//!   AND l_shipdate <  date '1996-01-01' + interval '3' month
//! GROUP BY l_suppkey;
//! ```
//!
//! This is the engine's high-cardinality grouped query: `l_suppkey` spans
//! 10 000 values (scale factor 1), far beyond any dense dictionary
//! encoding, so the plan takes the fused executor's **hash arm** — group
//! ids are assigned batch-at-a-time through [`AggHashTable::probe_gids`]
//! with the paper's identity hashing (suppkeys are a dense domain,
//! §VI-A), and parallel runs of batches merge their per-key states exactly. The
//! result is bit-identical at any thread count for the repro backends —
//! the paper's reproducibility claim carried to arbitrary group keys —
//! and the output ascends by supplier key regardless of scan order.
//!
//! Q15 complements Q1 (dense grouping, ~98% selectivity) and Q6
//! (un-grouped, ~2% selectivity): a mid-selectivity scan whose aggregate
//! state is thousands of times wider than either.
//!
//! [`AggHashTable::probe_gids`]: rfa_agg::AggHashTable::probe_gids

use crate::expr::Expr;
use crate::plan::QueryPlan;

/// Q15 revenue window in days since 1992-01-01: [1996-01-01, +3 months).
pub const Q15_DATE_LO: i32 = 4 * 365;
pub const Q15_DATE_HI: i32 = 4 * 365 + 90;

/// The Q15 revenue-view plan: the date range as the SQL spells it (two
/// comparisons, which the scan binds as one interval conjunct), revenue
/// SUM and COUNT grouped by `l_suppkey` through the hash arm.
pub fn q15_plan() -> QueryPlan {
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").ge(Expr::lit(Q15_DATE_LO as f64)))
        .filter(Expr::col("l_shipdate").lt(Expr::lit(Q15_DATE_HI as f64)))
        .group_by_key("l_suppkey")
        .sum(Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount"))))
        .count()
}

/// The pinned Q15 revenue-view SQL text: parsing and lowering this
/// through [`crate::sql`] produces the identical lowered query as
/// [`q15_plan`] (hash grouping on `l_suppkey` with identity hashing),
/// hence bit-identical results for every backend and thread count.
pub fn q15_sql() -> String {
    format!(
        "SELECT l_suppkey, \
         SUM(l_extendedprice * (1 - l_discount)), COUNT(*) \
         FROM lineitem \
         WHERE l_shipdate >= {Q15_DATE_LO} AND l_shipdate < {Q15_DATE_HI} \
         GROUP BY l_suppkey"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::ExecOptions;
    use crate::plan::{AggColumn, PlanResult};
    use crate::q1::lineitem_table;
    use crate::sum_op::SumBackend;
    use crate::test_support::assert_bitwise;
    use rfa_workloads::tpch::Lineitem;
    use std::collections::BTreeMap;

    fn table() -> Lineitem {
        Lineitem::generate(150_000, 23)
    }

    fn q15(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> PlanResult {
        q15_plan()
            .execute(&lineitem_table(t), backend, opts)
            .unwrap()
    }

    fn serial(t: &Lineitem, backend: SumBackend) -> PlanResult {
        q15(t, backend, &ExecOptions::serial())
    }

    /// Scalar reference: BTreeMap of per-supplier (dense-id) sums driven
    /// through the same `sum_grouped` kernel, in row order per group.
    fn reference(t: &Lineitem, backend: SumBackend) -> PlanResult {
        let sel: Vec<usize> = (0..t.len())
            .filter(|&i| (Q15_DATE_LO..Q15_DATE_HI).contains(&t.shipdate[i]))
            .collect();
        let mut rank: BTreeMap<i32, u32> = BTreeMap::new();
        for &i in &sel {
            let next = rank.len() as u32;
            rank.entry(t.suppkey[i]).or_insert(next);
        }
        let gids: Vec<u32> = sel.iter().map(|&i| rank[&t.suppkey[i]]).collect();
        let vals: Vec<f64> = sel
            .iter()
            .map(|&i| t.extendedprice[i] * (1.0 - t.discount[i]))
            .collect();
        let sums = crate::sum_op::sum_grouped(backend, &gids, &vals, rank.len()).unwrap();
        let counts = crate::sum_op::count_grouped(&gids, rank.len());
        crate::test_support::result(
            rank.keys().map(|&k| i64::from(k)).collect(),
            vec![
                AggColumn::F64(rank.values().map(|&g| sums[g as usize]).collect()),
                AggColumn::U64(rank.values().map(|&g| counts[g as usize]).collect()),
            ],
        )
    }

    #[test]
    fn q15_selects_a_plausible_supplier_slice() {
        let t = table();
        let rows = serial(&t, SumBackend::ReproUnbuffered);
        let (revenue, counts) = (rows.columns[0].f64s(), rows.columns[1].u64s());
        // ~3.4% of a 7-year window: thousands of suppliers see revenue.
        assert!(rows.keys.len() > 1_000, "{} suppliers", rows.keys.len());
        assert!(rows.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(revenue.iter().all(|&r| r > 0.0) && counts.iter().all(|&c| c > 0));
        let total_rows: u64 = counts.iter().sum();
        let frac = total_rows as f64 / t.len() as f64;
        assert!((0.01..0.08).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn q15_matches_dense_reference_bitwise_for_every_fused_backend() {
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 64 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 128,
            },
        ] {
            let ctx = format!("{backend:?}");
            assert_bitwise(&reference(&t, backend), &serial(&t, backend), &ctx);
        }
    }

    #[test]
    fn q15_is_bit_identical_across_thread_counts_for_repro_backends() {
        let t = table();
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 4,
                buffer_size: 64,
            },
            SumBackend::SortedDouble,
        ] {
            let serial = serial(&t, backend);
            for threads in [2usize, 8] {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let parallel = q15(&t, backend, &opts);
                assert_bitwise(&serial, &parallel, &format!("{backend:?} t{threads}"));
            }
        }
        // Plain doubles stay thread-independent too (serial scan).
        let parallel = q15(&t, SumBackend::Double, &ExecOptions::parallel());
        assert_bitwise(&serial(&t, SumBackend::Double), &parallel, "Double");
    }

    #[test]
    fn q15_is_physical_order_invariant_for_repro() {
        let t = table();
        let fwd = serial(&t, SumBackend::ReproUnbuffered);
        let rev = Lineitem::from_columns(
            t.quantity.iter().rev().copied().collect(),
            t.extendedprice.iter().rev().copied().collect(),
            t.discount.iter().rev().copied().collect(),
            t.tax.iter().rev().copied().collect(),
            t.shipdate.iter().rev().copied().collect(),
            t.returnflag.iter().rev().copied().collect(),
            t.linestatus.iter().rev().copied().collect(),
            t.suppkey.iter().rev().copied().collect(),
        );
        let bwd = serial(&rev, SumBackend::ReproUnbuffered);
        assert_bitwise(&fwd, &bwd, "reversed");
    }

    #[test]
    fn sorted_double_answers_q15_in_any_row_order() {
        // The sorted baseline is order-invariant by construction.
        let t = table();
        let expected = serial(&t, SumBackend::SortedDouble);
        for (order, sorted) in [
            ("shipdate", t.sorted_by_shipdate()),
            ("quantity", t.sorted_by_quantity()),
        ] {
            assert_bitwise(&expected, &serial(&sorted, SumBackend::SortedDouble), order);
        }
    }
}

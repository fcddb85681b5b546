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
//! §VI-A), and parallel morsels merge their per-key states exactly. The
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
use crate::fused::ExecOptions;
use crate::plan::{PlanError, QueryPlan};
use crate::q1::{lineitem_table, PhaseTiming};
use crate::sum_op::SumBackend;
use rfa_workloads::tpch::Lineitem;
use std::time::Instant;

/// Q15 revenue window in days since 1992-01-01: [1996-01-01, +3 months).
pub const Q15_DATE_LO: i32 = 4 * 365;
pub const Q15_DATE_HI: i32 = 4 * 365 + 90;

/// One output row of the revenue view.
#[derive(Clone, Debug, PartialEq)]
pub struct RevenueRow {
    pub suppkey: i32,
    pub total_revenue: f64,
    pub count: u64,
}

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

/// Executes the Q15 revenue view serially; returns one row per supplier
/// with revenue in the window, ascending by supplier key.
pub fn run_q15(
    lineitem: &Lineitem,
    backend: SumBackend,
) -> Result<(Vec<RevenueRow>, PhaseTiming), PlanError> {
    run_q15_with(lineitem, backend, &ExecOptions::serial())
}

/// Morsel-parallel Q15 on the work-stealing pool — bit-identical to
/// [`run_q15`] for the repro backends and the sorted baseline (exact
/// per-key state merges) and for plain doubles (which deliberately scan
/// serially; see [`crate::fused`]).
pub fn run_q15_par(
    lineitem: &Lineitem,
    backend: SumBackend,
) -> Result<(Vec<RevenueRow>, PhaseTiming), PlanError> {
    run_q15_with(lineitem, backend, &ExecOptions::parallel())
}

/// Executes Q15 with explicit execution options.
pub fn run_q15_with(
    lineitem: &Lineitem,
    backend: SumBackend,
    opts: &ExecOptions,
) -> Result<(Vec<RevenueRow>, PhaseTiming), PlanError> {
    let table = lineitem_table(lineitem);
    let result = q15_plan().execute(&table, backend, opts)?;
    let t0 = Instant::now();
    let revenue = result.columns[0].f64s();
    let counts = result.columns[1].u64s();
    let rows = result
        .keys
        .iter()
        .enumerate()
        .map(|(i, &k)| RevenueRow {
            suppkey: k as i32,
            total_revenue: revenue[i],
            count: counts[i],
        })
        .collect();
    let mut timing = result.timing;
    timing.other += t0.elapsed();
    Ok((rows, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn table() -> Lineitem {
        Lineitem::generate(150_000, 23)
    }

    /// Scalar reference: BTreeMap of per-supplier (dense-id) sums driven
    /// through the same `sum_grouped` kernel, in row order per group.
    fn reference(t: &Lineitem, backend: SumBackend) -> Vec<RevenueRow> {
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
        rank.iter()
            .map(|(&suppkey, &g)| RevenueRow {
                suppkey,
                total_revenue: sums[g as usize],
                count: counts[g as usize],
            })
            .collect()
    }

    #[test]
    fn q15_selects_a_plausible_supplier_slice() {
        let t = table();
        let (rows, _) = run_q15(&t, SumBackend::ReproUnbuffered).unwrap();
        // ~3.4% of a 7-year window: thousands of suppliers see revenue.
        assert!(rows.len() > 1_000, "{} suppliers", rows.len());
        assert!(rows.windows(2).all(|w| w[0].suppkey < w[1].suppkey));
        assert!(rows.iter().all(|r| r.total_revenue > 0.0 && r.count > 0));
        let total_rows: u64 = rows.iter().map(|r| r.count).sum();
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
            let expected = reference(&t, backend);
            let (rows, _) = run_q15(&t, backend).unwrap();
            assert_eq!(rows.len(), expected.len(), "{backend:?}");
            for (a, b) in rows.iter().zip(&expected) {
                assert_eq!(a.suppkey, b.suppkey, "{backend:?}");
                assert_eq!(a.count, b.count, "{backend:?} supp {}", a.suppkey);
                assert_eq!(
                    a.total_revenue.to_bits(),
                    b.total_revenue.to_bits(),
                    "{backend:?} supp {}",
                    a.suppkey
                );
            }
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
            let (serial, _) = run_q15(&t, backend).unwrap();
            for threads in [2usize, 8] {
                let opts = ExecOptions {
                    threads,
                    morsel_rows: 8192,
                    ..ExecOptions::default()
                };
                let (parallel, _) = run_q15_with(&t, backend, &opts).unwrap();
                assert_eq!(serial.len(), parallel.len(), "{backend:?} t{threads}");
                for (a, b) in serial.iter().zip(&parallel) {
                    assert_eq!(a.suppkey, b.suppkey);
                    assert_eq!(a.count, b.count);
                    assert_eq!(
                        a.total_revenue.to_bits(),
                        b.total_revenue.to_bits(),
                        "{backend:?} t{threads} supp {}",
                        a.suppkey
                    );
                }
            }
        }
        // Plain doubles stay thread-independent too (serial scan).
        let (serial, _) = run_q15(&t, SumBackend::Double).unwrap();
        let (parallel, _) = run_q15_par(&t, SumBackend::Double).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.total_revenue.to_bits(), b.total_revenue.to_bits());
        }
    }

    #[test]
    fn q15_is_physical_order_invariant_for_repro() {
        let t = table();
        let (fwd, _) = run_q15(&t, SumBackend::ReproUnbuffered).unwrap();
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
        let (bwd, _) = run_q15(&rev, SumBackend::ReproUnbuffered).unwrap();
        assert_eq!(fwd.len(), bwd.len());
        for (a, b) in fwd.iter().zip(&bwd) {
            assert_eq!(a.suppkey, b.suppkey);
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_revenue.to_bits(), b.total_revenue.to_bits());
        }
    }

    #[test]
    fn sorted_double_answers_q15_in_any_row_order() {
        // The sorted baseline is order-invariant by construction.
        let t = table();
        let bits = |t: &Lineitem| -> Vec<(i32, u64, u64)> {
            let (rows, _) = run_q15(t, SumBackend::SortedDouble).unwrap();
            let key = |r: &RevenueRow| (r.suppkey, r.count, r.total_revenue.to_bits());
            rows.iter().map(key).collect()
        };
        let expected = bits(&t);
        assert_eq!(bits(&t.sorted_by_shipdate()), expected);
        assert_eq!(bits(&t.sorted_by_quantity()), expected);
    }
}

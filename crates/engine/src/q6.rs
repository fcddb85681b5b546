//! TPC-H Query 6 — the forecasting-revenue-change query.
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= date '1994-01-01'
//!   AND l_shipdate <  date '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07
//!   AND l_quantity < 24;
//! ```
//!
//! Q6 is the purest aggregation query in TPC-H: one un-grouped SUM over a
//! selective predicate. It complements Q1 in the evaluation: Q1 stresses
//! grouped aggregation, Q6 stresses the single-accumulator path (the §III
//! summation kernel), and its result is a *single* float — the sharpest
//! possible demonstration of run-to-run result flips.
//!
//! Q6 is expressed as a [`QueryPlan`] ([`q6_plan`]): one un-grouped SUM
//! lowered onto the fused zero-copy scan ([`crate::fused`]). Each batch's
//! revenue terms are evaluated into a reused scratch register and fed
//! straight into the accumulator through the vectorized block kernel — no
//! selection vector or term vector of length n ever exists — except under
//! [`SumBackend::SortedDouble`](crate::SumBackend::SortedDouble), whose
//! state keeps the selected terms to sort them.

use crate::expr::Expr;
use crate::plan::QueryPlan;

/// Q6 date window in days since 1992-01-01: [1994-01-01, 1995-01-01).
pub const Q6_DATE_LO: i32 = 2 * 365;
pub const Q6_DATE_HI: i32 = 3 * 365;

/// The Q6 logical plan: the SQL's four comparisons in the SQL's order,
/// one un-grouped SUM of `l_extendedprice * l_discount`. The scan binds
/// three filter conjuncts: the two `l_shipdate` bounds are one closed
/// interval, so the first fill keeps the date window's rows only (see
/// [`crate::fused`], "one closed interval per filtered column").
pub fn q6_plan() -> QueryPlan {
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").ge(Expr::lit(Q6_DATE_LO as f64)))
        .filter(Expr::col("l_shipdate").lt(Expr::lit(Q6_DATE_HI as f64)))
        .filter(Expr::col("l_discount").between(Expr::lit(0.05), Expr::lit(0.07)))
        .filter(Expr::col("l_quantity").lt(Expr::lit(24.0)))
        .sum(Expr::col("l_extendedprice").mul(Expr::col("l_discount")))
}

/// The pinned Q6 SQL text: parsing and lowering this through
/// [`crate::sql`] produces the identical lowered query as [`q6_plan`]
/// (the dates are inlined as day numbers behind
/// [`Q6_DATE_LO`]/[`Q6_DATE_HI`]), hence bit-identical results for every
/// backend, thread count and batch shape.
pub fn q6_sql() -> String {
    format!(
        "SELECT SUM(l_extendedprice * l_discount) \
         FROM lineitem \
         WHERE l_shipdate >= {Q6_DATE_LO} AND l_shipdate < {Q6_DATE_HI} \
         AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::ExecOptions;
    use crate::q1::lineitem_table;
    use crate::sum_op::SumBackend;
    use crate::test_support::assert_bitwise;
    use rfa_workloads::tpch::Lineitem;

    fn table() -> Lineitem {
        Lineitem::generate(100_000, 11)
    }

    /// Q6's revenue on `backend` under `opts`.
    fn revenue(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> f64 {
        let result = q6_plan().execute(&lineitem_table(t), backend, opts);
        result.unwrap().columns[0].f64s()[0]
    }

    fn serial(t: &Lineitem, backend: SumBackend) -> f64 {
        revenue(t, backend, &ExecOptions::serial())
    }

    #[test]
    fn q6_selects_a_plausible_fraction() {
        let t = table();
        let sel = (0..t.len())
            .filter(|&i| {
                (Q6_DATE_LO..Q6_DATE_HI).contains(&t.shipdate[i])
                    && (0.05..=0.07).contains(&t.discount[i])
                    && t.quantity[i] < 24.0
            })
            .count();
        // Spec selectivity is ~2%; synthetic data lands in the same range.
        let frac = sel as f64 / t.len() as f64;
        assert!((0.005..0.06).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn backends_agree() {
        let t = table();
        let d = serial(&t, SumBackend::Double);
        let r = serial(&t, SumBackend::Rsum { levels: 3 });
        let b = serial(
            &t,
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 512,
            },
        );
        let s = serial(&t, SumBackend::SortedDouble);
        assert!((d - r).abs() <= 1e-9 * d.abs());
        assert!((d - s).abs() <= 1e-9 * d.abs());
        assert_eq!(r.to_bits(), b.to_bits());
        assert!(d > 0.0);
    }

    #[test]
    fn fused_is_bit_identical_to_materializing_for_every_backend() {
        // The reference materializes the revenue terms row by row.
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 4,
                buffer_size: 128,
            },
        ] {
            let reference = crate::test_support::q6_reference(&t, backend).unwrap();
            let fused = q6_plan().execute(&lineitem_table(&t), backend, &ExecOptions::serial());
            assert_bitwise(&reference, &fused.unwrap(), &format!("{backend:?}"));
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial_for_every_backend() {
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::Rsum { levels: 2 },
            SumBackend::Rsum { levels: 4 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 512,
            },
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
            SumBackend::SortedDouble,
        ] {
            let parallel = revenue(&t, backend, &ExecOptions::parallel());
            assert_eq!(
                serial(&t, backend).to_bits(),
                parallel.to_bits(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn repro_backend_is_reorder_invariant() {
        let t = table();
        let r1 = serial(&t, SumBackend::Rsum { levels: 2 });
        // Physically reverse all columns.
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
        let r2 = serial(&rev, SumBackend::Rsum { levels: 2 });
        assert_eq!(r1.to_bits(), r2.to_bits());
        // And the plain double is not (on 100k rows it virtually always
        // differs in the last bits; if equal, the test data got lucky —
        // use the sum-of-permutation check instead of a hard inequality).
        let d1 = serial(&t, SumBackend::Double);
        let d2 = serial(&rev, SumBackend::Double);
        assert!((d1 - d2).abs() <= 1e-6 * d1.abs()); // numerically equal...
                                                     // ...but generally not bitwise (not asserted: probabilistic).
    }
}

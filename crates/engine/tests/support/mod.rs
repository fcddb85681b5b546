//! A naive, materializing per-row reference for TPC-H Q1 and Q6: the
//! filter in plain Rust, the expressions evaluated row by row in the
//! engine's operation order into whole-input vectors, and the deposits
//! through `sum_grouped` / `count_grouped`.
//!
//! `SortedDouble` is defined here independently of its engine state: each
//! SUM input's `(group, bits)` pairs are sorted, then summed as `Double` —
//! per group, the values ascending by bit pattern, added from `+0.0`.

#![allow(dead_code)] // each test binary uses its own part

use rfa_engine::q6::{Q6_DATE_HI, Q6_DATE_LO};
use rfa_engine::{count_grouped, sum_grouped, OverflowError, Q1Row, SumBackend};
use rfa_workloads::tpch::{Lineitem, Q1_SHIPDATE_CUTOFF};

/// `SUM(values) GROUP BY gids` on `backend`; `SortedDouble` by its
/// definition rather than by its state.
pub fn reference_sum(
    backend: SumBackend,
    gids: &[u32],
    values: &[f64],
    groups: usize,
) -> Result<Vec<f64>, OverflowError> {
    if backend != SumBackend::SortedDouble {
        return sum_grouped(backend, gids, values, groups);
    }
    let mut pairs: Vec<(u32, u64)> = gids
        .iter()
        .zip(values)
        .map(|(&g, v)| (g, v.to_bits()))
        .collect();
    pairs.sort_unstable();
    let (gids, values): (Vec<u32>, Vec<f64>) = pairs
        .into_iter()
        .map(|(g, bits)| (g, f64::from_bits(bits)))
        .unzip();
    sum_grouped(SumBackend::Double, &gids, &values, groups)
}

/// Q1 per row: rows at or before the cutoff, grouped by the dense
/// `(returnflag, linestatus)` id, output in ascending id order — TPC-H's
/// `ORDER BY`.
pub fn q1_reference(t: &Lineitem, backend: SumBackend) -> Result<Vec<Q1Row>, OverflowError> {
    const GROUPS: usize = 6;
    let rows: Vec<usize> = (0..t.len())
        .filter(|&i| t.shipdate[i] <= Q1_SHIPDATE_CUTOFF)
        .collect();
    let gids: Vec<u32> = rows.iter().map(|&i| t.q1_group(i)).collect();
    let disc_price = |i: usize| t.extendedprice[i] * (1.0 - t.discount[i]);
    let inputs: [&dyn Fn(usize) -> f64; 5] = [
        &|i| t.quantity[i],
        &|i| t.extendedprice[i],
        &disc_price,
        &|i| disc_price(i) * (1.0 + t.tax[i]),
        &|i| t.discount[i],
    ];
    let mut sums = Vec::new();
    for input in inputs {
        let values: Vec<f64> = rows.iter().map(|&i| input(i)).collect();
        sums.push(reference_sum(backend, &gids, &values, GROUPS)?);
    }
    let counts = count_grouped(&gids, GROUPS);
    let row = |g: usize| {
        let (returnflag, linestatus) = Lineitem::decode_group(g as u32);
        let c = counts[g] as f64;
        Q1Row {
            returnflag,
            linestatus,
            sum_qty: sums[0][g],
            sum_base_price: sums[1][g],
            sum_disc_price: sums[2][g],
            sum_charge: sums[3][g],
            avg_qty: sums[0][g] / c,
            avg_price: sums[1][g] / c,
            avg_disc: sums[4][g] / c,
            count: counts[g],
        }
    };
    Ok((0..GROUPS).filter(|&g| counts[g] > 0).map(row).collect())
}

/// Q6 per row: the revenue terms of the rows every predicate keeps, in
/// row order, as one un-grouped SUM.
pub fn q6_reference(t: &Lineitem, backend: SumBackend) -> Result<f64, OverflowError> {
    let terms: Vec<f64> = (0..t.len())
        .filter(|&i| {
            (Q6_DATE_LO..Q6_DATE_HI).contains(&t.shipdate[i])
                && (0.05..=0.07).contains(&t.discount[i])
                && t.quantity[i] < 24.0
        })
        .map(|i| t.extendedprice[i] * t.discount[i])
        .collect();
    Ok(reference_sum(backend, &vec![0; terms.len()], &terms, 1)?[0])
}

//! A naive, materializing per-row reference for TPC-H Q1 and Q6: the
//! filter in plain Rust, the expressions evaluated row by row in the
//! engine's operation order into whole-input vectors, and the deposits
//! through `sum_grouped` / `count_grouped`. Each reference answers in the
//! shape of its plan's [`PlanResult`], so [`assert_bitwise`] compares the
//! two directly.
//!
//! `SortedDouble` is defined here independently of its engine state: each
//! SUM input's `(group, bits)` pairs are sorted, then summed as `Double` —
//! per group, the values ascending by bit pattern, added from `+0.0`.

#![allow(dead_code)] // each test binary uses its own part

use rfa_engine::q6::{Q6_DATE_HI, Q6_DATE_LO};
use rfa_engine::{count_grouped, sum_grouped, AggColumn, OverflowError, PlanResult, SumBackend};
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

/// Asserts that two results hold the same keys and the same columns, bit
/// for bit (timing and batch counters aside).
pub fn assert_bitwise(a: &PlanResult, b: &PlanResult, ctx: &str) {
    assert_eq!(a.keys, b.keys, "{ctx}");
    assert_eq!(a.columns.len(), b.columns.len(), "{ctx}");
    for (c, cols) in a.columns.iter().zip(&b.columns).enumerate() {
        match cols {
            (AggColumn::F64(x), AggColumn::F64(y)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{ctx} column {c}");
            }
            (AggColumn::U64(x), AggColumn::U64(y)) => assert_eq!(x, y, "{ctx} column {c}"),
            _ => panic!("{ctx} column {c}: kind mismatch"),
        }
    }
}

/// A result of `columns`, one value per entry of `keys`.
pub fn result(keys: Vec<i64>, columns: Vec<AggColumn>) -> PlanResult {
    PlanResult {
        keys,
        columns,
        timing: Default::default(),
        batches_visited: 0,
        batches_pruned: 0,
    }
}

/// Q1 per row: rows at or before the cutoff, grouped by the dense
/// `(returnflag, linestatus)` id, output in ascending id order — TPC-H's
/// `ORDER BY` — as `q1_plan()` answers: packed `(flag << 8) | status`
/// keys, four SUMs, three AVGs and the COUNT.
pub fn q1_reference(t: &Lineitem, backend: SumBackend) -> Result<PlanResult, OverflowError> {
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
    let groups: Vec<usize> = (0..GROUPS).filter(|&g| counts[g] > 0).collect();
    let sum = |s: usize| AggColumn::F64(groups.iter().map(|&g| sums[s][g]).collect());
    let avg = |s: usize| {
        AggColumn::F64(
            groups
                .iter()
                .map(|&g| sums[s][g] / counts[g] as f64)
                .collect(),
        )
    };
    let keys = groups.iter().map(|&g| {
        let (flag, status) = Lineitem::decode_group(g as u32);
        (flag as i64) << 8 | status as i64
    });
    Ok(result(
        keys.collect(),
        vec![
            sum(0),
            sum(1),
            sum(2),
            sum(3),
            avg(0),
            avg(1),
            avg(4),
            AggColumn::U64(groups.iter().map(|&g| counts[g]).collect()),
        ],
    ))
}

/// Q6 per row: the revenue terms of the rows every predicate keeps, in
/// row order, as one un-grouped SUM — `q6_plan()`'s one row.
pub fn q6_reference(t: &Lineitem, backend: SumBackend) -> Result<PlanResult, OverflowError> {
    let terms: Vec<f64> = (0..t.len())
        .filter(|&i| {
            (Q6_DATE_LO..Q6_DATE_HI).contains(&t.shipdate[i])
                && (0.05..=0.07).contains(&t.discount[i])
                && t.quantity[i] < 24.0
        })
        .map(|i| t.extendedprice[i] * t.discount[i])
        .collect();
    let revenue = reference_sum(backend, &vec![0; terms.len()], &terms, 1)?;
    Ok(result(vec![0], vec![AggColumn::F64(revenue)]))
}

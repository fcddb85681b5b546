//! Cross-crate integration tests: the full stack — workload generators,
//! operators, engine, core accumulators, exact oracle — wired together the
//! way a deployment would use it.

use rfa::engine::{lineitem_table, q1_plan, ExecOptions, PlanResult, SumBackend};
use rfa::prelude::*;
use rfa::workloads::{GroupedPairs, Lineitem, SplitMix64, ValueDist};

/// The paper's data-independence requirement, end to end: physically
/// permuting the stored data must not change any reproducible group sum,
/// across every operator and configuration.
#[test]
fn groupby_is_reproducible_across_physical_orders_and_configs() {
    let w = GroupedPairs::generate(60_000, 500, ValueDist::Exp1, 99);
    let p = w.permuted(12345);

    let f = BufferedReproAgg::<f64, 2>::new(128);
    let mut reference: Option<Vec<(u32, f64)>> = None;
    for (keys, values) in [(&w.keys, &w.values), (&p.keys, &p.values)] {
        for depth in 0..=2u32 {
            for threads in [1usize, 2, 3] {
                let cfg = GroupByConfig {
                    depth,
                    threads,
                    groups_hint: 500,
                    ..Default::default()
                };
                let out = partition_and_aggregate(&f, keys, values, &cfg);
                match &reference {
                    None => reference = Some(out),
                    Some(r) => {
                        assert_eq!(r.len(), out.len());
                        for (a, b) in r.iter().zip(out.iter()) {
                            assert_eq!(a.0, b.0);
                            assert_eq!(
                                a.1.to_bits(),
                                b.1.to_bits(),
                                "depth {depth} threads {threads} group {}",
                                a.0
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Plain float aggregation really is order-sensitive on this workload
/// (otherwise the reproducibility tests above prove nothing).
#[test]
fn plain_float_aggregation_is_order_sensitive() {
    let w = GroupedPairs::generate(60_000, 16, ValueDist::Exp1, 7);
    let p = w.permuted(999);
    let f = SumAgg::<f64>::new();
    let cfg = GroupByConfig {
        groups_hint: 16,
        threads: 1,
        ..Default::default()
    };
    let a = partition_and_aggregate(&f, &w.keys, &w.values, &cfg);
    let b = partition_and_aggregate(&f, &p.keys, &p.values, &cfg);
    let diffs = a
        .iter()
        .zip(b.iter())
        .filter(|(x, y)| x.1.to_bits() != y.1.to_bits())
        .count();
    assert!(
        diffs > 0,
        "expected at least one group to differ in the last bit"
    );
}

/// Reproducible sums agree with the exact oracle within Eq. 6 and beat
/// plain summation accuracy on mixed-magnitude data.
#[test]
fn accuracy_against_oracle_end_to_end() {
    let mut rng = SplitMix64::new(1);
    let values: Vec<f64> = (0..100_000)
        .map(|i| {
            let scale = 10f64.powi(i % 13 - 6);
            (rng.unit_f64() - 0.5) * scale
        })
        .collect();
    let exact = exact_sum_f64(&values);
    let plain: f64 = values.iter().sum();
    let repro3 = reproducible_sum::<f64, 3>(&values);
    let e_plain = (plain - exact).abs();
    let e_repro = (repro3 - exact).abs();
    assert!(
        e_repro <= e_plain.max(f64::EPSILON * exact.abs()),
        "repro L3 err {e_repro:e} vs plain err {e_plain:e}"
    );
}

/// TPC-H Q1 through the engine's plan, serially.
fn q1(t: &Lineitem, backend: SumBackend) -> PlanResult {
    let table = lineitem_table(t);
    q1_plan()
        .execute(&table, backend, &ExecOptions::serial())
        .unwrap()
}

/// The engine's Q1 is bit-stable across backends that claim reproducibility
/// and across table reorderings; the sorted baseline agrees with the repro
/// backends to within conventional float error.
#[test]
fn tpch_q1_cross_backend_consistency() {
    let t = Lineitem::generate(50_000, 3);
    let unbuf = q1(&t, SumBackend::ReproUnbuffered);
    let buf = q1(&t, SumBackend::ReproBuffered { buffer_size: 256 });
    let sorted = q1(&t, SumBackend::SortedDouble);
    let plain = q1(&t, SumBackend::Double);
    assert_eq!(unbuf.keys.len(), 4);
    // Columns 0–3: sum_qty, sum_base_price, sum_disc_price, sum_charge.
    let col = |r: &PlanResult, c: usize| r.columns[c].f64s().to_vec();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for c in [2, 3] {
        // Repro unbuffered == repro buffered, bitwise.
        assert_eq!(bits(col(&unbuf, c)), bits(col(&buf, c)));
    }
    // All four agree numerically to float accuracy.
    for (c, other) in [(0, &sorted), (3, &sorted), (3, &plain)] {
        for (x, y) in col(&unbuf, c).into_iter().zip(col(other, c)) {
            assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
    }
    assert_eq!(unbuf.columns[7], plain.columns[7]);
}

/// GROUPBY over every aggregate data type produces the same group *keys*
/// and consistent values (the paper's comparison grid in one test).
#[test]
fn every_data_type_runs_the_same_operator() {
    let w = GroupedPairs::generate(20_000, 50, ValueDist::Uniform01, 17);
    let v32 = w.values_f32();
    let d9: Vec<Decimal9<4>> = w
        .values
        .iter()
        .map(|&v| Decimal9::from_raw((v * 1e4) as i32))
        .collect();
    let cfg = GroupByConfig {
        depth: 1,
        groups_hint: 50,
        ..Default::default()
    };

    let f64_out = partition_and_aggregate(&SumAgg::<f64>::new(), &w.keys, &w.values, &cfg);
    let f32_out = partition_and_aggregate(&SumAgg::<f32>::new(), &w.keys, &v32, &cfg);
    let dec_out = partition_and_aggregate(&SumAgg::<Decimal9<4>>::new(), &w.keys, &d9, &cfg);
    let rep_out = partition_and_aggregate(&ReproAgg::<f64, 2>::new(), &w.keys, &w.values, &cfg);
    let buf_out =
        partition_and_aggregate(&BufferedReproAgg::<f32, 2>::new(64), &w.keys, &v32, &cfg);

    let keys: Vec<u32> = f64_out.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys, f32_out.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(keys, dec_out.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(keys, rep_out.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(keys, buf_out.iter().map(|&(k, _)| k).collect::<Vec<_>>());

    for i in 0..keys.len() {
        let f = f64_out[i].1;
        assert!((f32_out[i].1 as f64 - f).abs() < 1e-2 * f.abs().max(1.0));
        assert!((dec_out[i].1.to_f64() - f).abs() < 1e-2 * f.abs().max(1.0));
        assert!((rep_out[i].1 - f).abs() < 1e-6 * f.abs().max(1.0));
    }
}

/// Merging partial aggregations from "different machines" (serialization
/// boundary simulated by cloning state) stays exact.
#[test]
fn distributed_style_merge() {
    let w = GroupedPairs::generate(30_000, 1, ValueDist::Signed, 5);
    // Shard across 7 "nodes", each summing locally.
    let shards: Vec<ReproSum<f64, 2>> = w
        .values
        .chunks(w.values.len() / 7 + 1)
        .map(|chunk| {
            let mut acc = ReproSum::new();
            rfa::core::simd::add_slice(&mut acc, chunk);
            acc
        })
        .collect();
    // Reduce in two different tree shapes.
    let mut linear = ReproSum::<f64, 2>::new();
    for s in &shards {
        linear.merge(s);
    }
    let mut pairwise = shards.clone();
    while pairwise.len() > 1 {
        let mut next = Vec::new();
        for pair in pairwise.chunks(2) {
            let mut m = pair[0].clone();
            if let Some(b) = pair.get(1) {
                m.merge(b);
            }
            next.push(m);
        }
        pairwise = next;
    }
    assert_eq!(
        linear.value().to_bits(),
        pairwise[0].value().to_bits(),
        "reduction tree shape must not matter"
    );
}

/// Failure injection: specials and domain-edge values flow through the
/// whole stack deterministically.
#[test]
fn special_values_through_the_stack() {
    let keys = vec![0u32, 0, 1, 1, 2, 2];
    let values = vec![1.0, f64::NAN, f64::INFINITY, 1.0, 1e302, 1e302];
    let f = ReproAgg::<f64, 2>::new();
    let out = hash_aggregate(&f, &keys, &values, HashKind::Identity, 3);
    assert!(out[0].1.is_nan());
    assert_eq!(out[1].1, f64::INFINITY);
    assert_eq!(out[2].1, 2e302);
    // Same through the buffered and partitioned paths.
    let cfg = GroupByConfig {
        depth: 1,
        groups_hint: 3,
        ..Default::default()
    };
    let out2 = partition_and_aggregate(&BufferedReproAgg::<f64, 2>::new(16), &keys, &values, &cfg);
    assert!(out2[0].1.is_nan());
    assert_eq!(out2[1].1, f64::INFINITY);
    assert_eq!(out2[2].1, 2e302);
}

/// TPC-H Q1's five aggregates validated per group against the exact
/// oracle (recomputing the expressions independently of the engine).
#[test]
fn tpch_q1_aggregates_match_oracle() {
    use rfa::workloads::tpch::Q1_SHIPDATE_CUTOFF;
    let t = Lineitem::generate(30_000, 9);
    let rows = q1(&t, SumBackend::ReproBuffered { buffer_size: 128 });
    for (g, &key) in rows.keys.iter().enumerate() {
        // The key packs the pair as (flag << 8) | status.
        let pair = ((key >> 8) as u8 as char, key as u8 as char);
        let sum = |c: usize| rows.columns[c].f64s()[g];
        let mut qty = ExactSum::new();
        let mut price = ExactSum::new();
        let mut disc_price = ExactSum::new();
        let mut charge = ExactSum::new();
        let mut count = 0u64;
        for i in 0..t.len() {
            if t.shipdate[i] > Q1_SHIPDATE_CUTOFF {
                continue;
            }
            let (rf, ls) = Lineitem::decode_group(t.q1_group(i));
            if (rf, ls) != pair {
                continue;
            }
            count += 1;
            qty.add(t.quantity[i]);
            price.add(t.extendedprice[i]);
            // Recompute the expressions exactly as the engine rounds them
            // per row (whole-expression evaluation is deterministic), then
            // sum exactly.
            let dp = t.extendedprice[i] * (1.0 - t.discount[i]);
            disc_price.add(dp);
            charge.add(dp * (1.0 + t.tax[i]));
        }
        assert_eq!(rows.columns[7].u64s()[g], count);
        assert_eq!(sum(0), qty.round_f64()); // integral quantities: exact
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(close(sum(1), price.round_f64()));
        assert!(close(sum(2), disc_price.round_f64()));
        assert!(close(sum(3), charge.round_f64()));
    }
}

/// Empty and degenerate inputs.
#[test]
fn degenerate_inputs() {
    let f = ReproAgg::<f64, 2>::new();
    let cfg = GroupByConfig::default();
    assert!(partition_and_aggregate(&f, &[], &[], &cfg).is_empty());
    let one = partition_and_aggregate(&f, &[7], &[1.25], &cfg);
    assert_eq!(one, vec![(7, 1.25)]);
    // All rows in one group, value zero.
    let keys = vec![3u32; 1000];
    let values = vec![0.0f64; 1000];
    let out = partition_and_aggregate(&f, &keys, &values, &cfg);
    assert_eq!(out, vec![(3, 0.0)]);
}

//! Property-based tests of the GROUPBY operators: every algorithm, every
//! depth, every thread count and every physical input order must yield the
//! same groups — bit-identically so for reproducible aggregate types, and
//! matching an exact per-group oracle within the error bound.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_agg::{
    hash_aggregate, partition_and_aggregate, partition_serial, sort_aggregate, AggHashTable,
    GroupByConfig, HashKind, ReproAgg, SumAgg,
};
use rfa_core::cpu::{self, SimdLevel};
use std::sync::Mutex;

/// Serializes tests that force a dispatch level: the override is
/// process-global.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Every dispatch level this machine can force.
fn supported_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if cpu::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    if cpu::avx512_supported() {
        levels.push(SimdLevel::Avx512);
    }
    levels
}

/// Fixes this test binary's thread budget at 8, so the parallel
/// operators fork scoped threads even on small CI boxes. Every test calls
/// this before touching an operator; whichever runs first fixes the
/// budget and the rest get (and ignore) the already-fixed error. A pinned
/// `RFA_THREADS` (the CI matrix leg) still takes precedence inside the
/// builder.
fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

fn pairs(max_len: usize, max_key: u32) -> impl Strategy<Value = (Vec<u32>, Vec<f64>)> {
    vec((0..max_key, -1.0e6..1.0e6f64), 0..max_len).prop_map(|v| v.into_iter().unzip())
}

fn shuffle<T: Copy>(data: &[T], seed: u64) -> Vec<T> {
    let mut out = data.to_vec();
    let mut s = seed | 1;
    for i in (1..out.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree_bitwise_for_repro(
        (keys, values) in pairs(400, 37),
    ) {
        force_pool();
        let f = ReproAgg::<f64, 2>::new();
        let hashed = hash_aggregate(&f, &keys, &values, HashKind::Identity, 37);
        let sorted = sort_aggregate(&f, &keys, &values);
        let cfg = GroupByConfig { depth: 1, groups_hint: 37, ..Default::default() };
        let pna = partition_and_aggregate(&f, &keys, &values, &cfg);
        prop_assert_eq!(hashed.len(), sorted.len());
        prop_assert_eq!(hashed.len(), pna.len());
        for ((h, s), p) in hashed.iter().zip(&sorted).zip(&pna) {
            prop_assert_eq!(h.0, s.0);
            prop_assert_eq!(h.0, p.0);
            prop_assert_eq!(h.1.to_bits(), s.1.to_bits());
            prop_assert_eq!(h.1.to_bits(), p.1.to_bits());
        }
    }

    #[test]
    fn physical_order_invariance(
        (keys, values) in pairs(500, 16),
        seed in any::<u64>(),
    ) {
        force_pool();
        // Shuffle keys and values *together* (same row permutation).
        let idx: Vec<u32> = shuffle(&(0..keys.len() as u32).collect::<Vec<_>>(), seed);
        let skeys: Vec<u32> = idx.iter().map(|&i| keys[i as usize]).collect();
        let svalues: Vec<f64> = idx.iter().map(|&i| values[i as usize]).collect();
        let f = ReproAgg::<f64, 3>::new();
        let a = hash_aggregate(&f, &keys, &values, HashKind::Identity, 16);
        let b = hash_aggregate(&f, &skeys, &svalues, HashKind::Multiplicative, 16);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.0, y.0);
            prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn groups_match_oracle(
        (keys, values) in pairs(400, 8),
    ) {
        force_pool();
        let f = ReproAgg::<f64, 3>::new();
        let out = hash_aggregate(&f, &keys, &values, HashKind::Identity, 8);
        // Exact oracle per group.
        for &(k, sum) in &out {
            let group: Vec<f64> = keys
                .iter()
                .zip(values.iter())
                .filter(|(&kk, _)| kk == k)
                .map(|(_, &v)| v)
                .collect();
            let exact = rfa_exact::exact_sum_f64(&group);
            let max_abs = group.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let bound = rfa_core::analysis::reproducible_bound_anchored::<f64>(group.len(), 3, max_abs)
                + f64::EPSILON * exact.abs();
            prop_assert!((sum - exact).abs() <= bound.max(5e-324),
                "group {k}: {sum} vs exact {exact}");
        }
        // Every key present, none invented.
        let mut expected: Vec<u32> = keys.clone();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<u32> = out.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn partitioning_is_exhaustive_and_disjoint(
        (keys, values) in pairs(600, 1000),
        bits in 1u32..8,
        level in 0u32..3,
    ) {
        force_pool();
        let parts = partition_serial(&keys, &values, HashKind::Multiplicative, bits, level);
        prop_assert_eq!(parts.len(), 1 << bits);
        let total: usize = parts.iter().map(|(k, _)| k.len()).sum();
        prop_assert_eq!(total, keys.len());
        // Multiset equality of (key, value bits).
        let mut orig: Vec<(u32, u64)> = keys.iter().zip(values.iter())
            .map(|(&k, &v)| (k, v.to_bits())).collect();
        let mut flat: Vec<(u32, u64)> = parts.iter().flat_map(|(ks, vs)| {
            ks.iter().zip(vs.iter()).map(|(&k, &v)| (k, v.to_bits())).collect::<Vec<_>>()
        }).collect();
        orig.sort_unstable();
        flat.sort_unstable();
        prop_assert_eq!(orig, flat);
        // Keys never split across partitions.
        for key in keys.iter().take(20) {
            let homes = parts.iter().filter(|(ks, _)| ks.contains(key)).count();
            prop_assert_eq!(homes, 1);
        }
    }

    #[test]
    fn depth_and_threads_equivalence(
        (keys, values) in pairs(800, 64),
        depth in 0u32..3,
        threads in 1usize..5,
    ) {
        force_pool();
        let f = ReproAgg::<f64, 2>::new();
        let reference = hash_aggregate(&f, &keys, &values, HashKind::Identity, 64);
        let cfg = GroupByConfig { depth, threads, groups_hint: 64, ..Default::default() };
        let out = partition_and_aggregate(&f, &keys, &values, &cfg);
        prop_assert_eq!(reference.len(), out.len());
        for (a, b) in reference.iter().zip(out.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "group {}", a.0);
        }
    }

    #[test]
    fn operators_and_thread_counts_are_bit_invariant_f64(
        (keys, values) in pairs(2000, 33),
        depth in 0u32..2,
    ) {
        force_pool();
        let f = ReproAgg::<f64, 3>::new();
        let serial = partition_and_aggregate(&f, &keys, &values, &GroupByConfig {
            threads: 1, depth, groups_hint: 33, ..Default::default()
        });
        // Tiny morsels force real morsel fan-out even on proptest-sized
        // inputs; the thread budget is fixed at 8.
        for threads in [1usize, 2, 8] {
            let cfg = GroupByConfig {
                threads, depth, groups_hint: 33, morsel_rows: 64, ..Default::default()
            };
            let out = partition_and_aggregate(&f, &keys, &values, &cfg);
            prop_assert_eq!(serial.len(), out.len());
            for (a, b) in serial.iter().zip(out.iter()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(),
                    "partitioned, {} threads, group {}", threads, a.0);
            }
        }
        // Sort-based baseline (parallel merge sort underneath).
        let sorted = sort_aggregate(&f, &keys, &values);
        prop_assert_eq!(serial.len(), sorted.len());
        for (a, b) in serial.iter().zip(sorted.iter()) {
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "sorted, group {}", a.0);
        }
    }

    #[test]
    fn operators_and_thread_counts_are_bit_invariant_f32(
        (keys, values64) in pairs(1500, 17),
        depth in 0u32..2,
    ) {
        force_pool();
        let values: Vec<f32> = values64.iter().map(|&v| v as f32).collect();
        let f = ReproAgg::<f32, 2>::new();
        let serial = partition_and_aggregate(&f, &keys, &values, &GroupByConfig {
            threads: 1, depth, groups_hint: 17, ..Default::default()
        });
        for threads in [1usize, 2, 8] {
            let cfg = GroupByConfig {
                threads, depth, groups_hint: 17, morsel_rows: 64, ..Default::default()
            };
            let out = partition_and_aggregate(&f, &keys, &values, &cfg);
            prop_assert_eq!(serial.len(), out.len());
            for (a, b) in serial.iter().zip(out.iter()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(),
                    "partitioned, {} threads, group {}", threads, a.0);
            }
        }
        let sorted = sort_aggregate(&f, &keys, &values);
        prop_assert_eq!(serial.len(), sorted.len());
        for (a, b) in serial.iter().zip(sorted.iter()) {
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "sorted, group {}", a.0);
        }
    }

    #[test]
    fn probe_gids_is_dispatch_level_independent(
        (keys, _values) in pairs(1600, 500),
        batch in 1usize..300,
        hint in 0usize..64,
        multiplicative in any::<bool>(),
        spread in 0u32..3,
    ) {
        // probe_gids at every forced dispatch level must reproduce the
        // scalar slot_mut loop exactly: the same first-seen key order,
        // the same per-row group ids, and the same growth behaviour —
        // tiny capacity hints against up to 1600 inserts straddle several
        // doubling boundaries mid-stream, and batches repeat keys. An
        // identity table runs the SIMD kernels, a multiplicative one the
        // scalar fallback. `spread` turns dense keys (0) into keys that
        // alias modulo every table size (multiples of 2^16: long collision
        // chains) or mixes both.
        let hash = if multiplicative { HashKind::Multiplicative } else { HashKind::Identity };
        let keys: Vec<u32> = match spread {
            0 => keys,
            1 => keys.iter().map(|&k| k << 16).collect(),
            _ => keys.iter().map(|&k| if k % 2 == 0 { k } else { k << 16 }).collect(),
        };
        const NO_GROUP: u32 = u32::MAX;

        // Scalar reference: one key at a time through slot_mut.
        let mut rt = AggHashTable::<u32>::with_capacity(hint, hash, &NO_GROUP);
        let mut ref_order: Vec<u32> = Vec::new();
        let mut ref_gids: Vec<u32> = Vec::new();
        for &k in &keys {
            let slot = rt.slot_mut(k, &NO_GROUP);
            if *slot == NO_GROUP {
                *slot = ref_order.len() as u32;
                ref_order.push(k);
            }
            ref_gids.push(*slot);
        }

        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            cpu::set_override(Some(level));
            let mut t = AggHashTable::<u32>::with_capacity(hint, hash, &NO_GROUP);
            let mut order: Vec<u32> = Vec::new();
            let mut gids: Vec<u32> = Vec::new();
            for chunk in keys.chunks(batch) {
                t.probe_gids(chunk, &mut gids, |k| {
                    order.push(k);
                    (order.len() - 1) as u32
                });
            }
            cpu::set_override(None);
            prop_assert_eq!(&order, &ref_order, "first-seen order at {}", level);
            prop_assert_eq!(&gids, &ref_gids, "group ids at {}", level);
            prop_assert_eq!(t.len(), rt.len(), "distinct keys at {}", level);
        }
    }

    #[test]
    fn upsert_batch_sums_are_level_independent_bitwise(
        (keys, values) in pairs(1000, 120),
        batch in 1usize..200,
        hint in 0usize..64,
    ) {
        // upsert_batch, the ledger's batched probe, against hash_aggregate
        // at every forced dispatch level: plain f64 sums are
        // order-sensitive, so bit-equality proves per-key update order is
        // input order for any batch size, with growth straddling batches.
        let f = SumAgg::<f64>::new();
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            cpu::set_override(Some(level));
            let reference = hash_aggregate(&f, &keys, &values, HashKind::Identity, hint);
            let mut t = AggHashTable::with_capacity(hint, HashKind::Identity, &0.0f64);
            let mut slots = Vec::new();
            for (kc, vc) in keys.chunks(batch).zip(values.chunks(batch)) {
                t.upsert_batch(kc, &0.0, &mut slots, |s, i| *s += vc[i]);
            }
            cpu::set_override(None);
            let mut out: Vec<(u32, f64)> = t.drain().collect();
            out.sort_unstable_by_key(|&(k, _)| k);
            prop_assert_eq!(reference.len(), out.len());
            for (a, b) in reference.iter().zip(out.iter()) {
                prop_assert_eq!(a.0, b.0, "key order at {}", level);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "sum bits at {}", level);
            }
        }
    }

    #[test]
    fn plain_u64_sums_are_exact_everywhere(
        kv in vec((0u32..32, 0u64..1 << 40), 0..500),
        depth in 0u32..2,
    ) {
        force_pool();
        let (keys, values): (Vec<u32>, Vec<u64>) = kv.into_iter().unzip();
        let f = SumAgg::<u64>::new();
        let cfg = GroupByConfig { depth, groups_hint: 32, ..Default::default() };
        let out = partition_and_aggregate(&f, &keys, &values, &cfg);
        for &(k, sum) in &out {
            let expected: u64 = keys.iter().zip(values.iter())
                .filter(|(&kk, _)| kk == k).map(|(_, &v)| v).sum();
            prop_assert_eq!(sum, expected);
        }
    }
}

//! HASHAGGREGATION — the textbook hash-based GROUPBY operator (paper §IV).
//!
//! For every `⟨key, value⟩` pair, look up the group's intermediate
//! aggregate in a hash table and fold the value in. Generic over the
//! aggregate function, so the same operator runs built-in sums, DECIMALs,
//! `repro<ScalarT, L>` and summation-buffer states (that genericity is the
//! paper's "little development effort" result in §IV: swapping the data
//! type makes any aggregation algorithm reproducible).

use crate::agg_fn::AggFn;
use crate::hash_table::{AggHashTable, HashKind};

/// Aggregates `keys[i], values[i]` pairs into per-group states.
///
/// `capacity_hint` sizes the table (pass the expected group count if known;
/// the table grows as needed).
///
/// # Panics
/// If a key is `u32::MAX`, the table's reserved empty-slot key.
pub fn hash_aggregate_states<F: AggFn>(
    f: &F,
    keys: &[u32],
    values: &[F::Input],
    hash: HashKind,
    capacity_hint: usize,
) -> AggHashTable<F::State> {
    assert_eq!(keys.len(), values.len());
    let template = f.new_state();
    let mut table = AggHashTable::with_capacity(capacity_hint, hash, &template);
    for (&k, &v) in keys.iter().zip(values.iter()) {
        f.step(table.slot_mut(k, &template), v);
    }
    table
}

/// Aggregates and finalizes, returning `(key, output)` pairs sorted by key
/// (sorted so the operator output order is itself deterministic).
///
/// # Panics
/// If a key is `u32::MAX`, the table's reserved empty-slot key.
pub fn hash_aggregate<F: AggFn>(
    f: &F,
    keys: &[u32],
    values: &[F::Input],
    hash: HashKind,
    capacity_hint: usize,
) -> Vec<(u32, F::Output)> {
    let table = hash_aggregate_states(f, keys, values, hash, capacity_hint);
    let mut out: Vec<(u32, F::Output)> = table.drain().map(|(k, s)| (k, f.output(s))).collect();
    out.sort_unstable_by_key(|(k, _)| *k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg_fn::{BufferedReproAgg, ReproAgg, SumAgg};

    fn sample() -> (Vec<u32>, Vec<f64>) {
        let n = 10_000;
        let keys: Vec<u32> = (0..n).map(|i| (i * 7) % 16).collect();
        let values: Vec<f64> = (0..n).map(|i| (i as f64) * 1e-3 - 4.0).collect();
        (keys, values)
    }

    #[test]
    fn grouped_sums_match_reference() {
        let (keys, values) = sample();
        let out = hash_aggregate(
            &SumAgg::<f64>::new(),
            &keys,
            &values,
            HashKind::Identity,
            16,
        );
        assert_eq!(out.len(), 16);
        // Reference: sequential per-group sums in input order.
        let mut reference = [0.0f64; 16];
        for (&k, &v) in keys.iter().zip(values.iter()) {
            reference[k as usize] += v;
        }
        for &(k, s) in &out {
            assert_eq!(s, reference[k as usize], "group {k}");
        }
    }

    #[test]
    fn repro_hash_agg_is_permutation_invariant() {
        let (keys, values) = sample();
        let f = ReproAgg::<f64, 2>::new();
        let out1 = hash_aggregate(&f, &keys, &values, HashKind::Identity, 16);
        // Reverse the physical order (the paper's Algorithm 1 scenario).
        let rkeys: Vec<u32> = keys.iter().rev().copied().collect();
        let rvalues: Vec<f64> = values.iter().rev().copied().collect();
        let out2 = hash_aggregate(&f, &rkeys, &rvalues, HashKind::Identity, 16);
        assert_eq!(out1.len(), out2.len());
        for (a, b) in out1.iter().zip(out2.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "group {}", a.0);
        }
    }

    #[test]
    fn buffered_equals_unbuffered_bitwise() {
        let (keys, values) = sample();
        let unbuffered = hash_aggregate(
            &ReproAgg::<f64, 3>::new(),
            &keys,
            &values,
            HashKind::Identity,
            16,
        );
        for bsz in [4, 64, 1024] {
            let buffered = hash_aggregate(
                &BufferedReproAgg::<f64, 3>::new(bsz),
                &keys,
                &values,
                HashKind::Identity,
                16,
            );
            assert_eq!(unbuffered.len(), buffered.len());
            for (a, b) in unbuffered.iter().zip(buffered.iter()) {
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "bsz {bsz} group {}", a.0);
            }
        }
    }

    #[test]
    fn multiplicative_hash_same_results() {
        let (keys, values) = sample();
        let f = SumAgg::<u32>::new();
        let ivalues: Vec<u32> = (0..values.len() as u32).collect();
        let id = hash_aggregate(&f, &keys, &ivalues, HashKind::Identity, 16);
        let mu = hash_aggregate(&f, &keys, &ivalues, HashKind::Multiplicative, 16);
        assert_eq!(id, mu);
    }

    #[test]
    fn empty_input() {
        let out = hash_aggregate(&SumAgg::<f64>::new(), &[], &[], HashKind::Identity, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn single_group_many_values() {
        let keys = [5u32; 1000];
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let out = hash_aggregate(&SumAgg::<f64>::new(), &keys, &values, HashKind::Identity, 1);
        assert_eq!(out, vec![(5, 999.0 * 1000.0 / 2.0)]);
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn reserved_key_panics_instead_of_losing_its_group() {
        // The empty-slot key cannot be stored: without the check its
        // group vanishes at drain time while `sort_aggregate` keeps it.
        let keys = [1, u32::MAX, 1, u32::MAX];
        let values = [1.0, 10.0, 2.0, 20.0];
        hash_aggregate(&SumAgg::<f64>::new(), &keys, &values, HashKind::Identity, 4);
    }
}

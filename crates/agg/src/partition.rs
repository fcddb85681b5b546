//! PARALLELPARTITION — radix partitioning on key hashes (paper §V-B,
//! Algorithm 4 line 1).
//!
//! Partitioning copies every `⟨key, value⟩` pair into one of `F = 2^bits`
//! output partitions chosen by a radix of the key's hash. All pairs of a
//! group land in the same partition, so partitions can be aggregated
//! independently — and, crucially for the paper, each partition exposes
//! `groups / F` groups to the subsequent HASHAGGREGATION, shrinking its
//! cache footprint (§V-C).
//!
//! Recursion uses a different radix window per level (`level` parameter),
//! exactly like multi-pass radix sort; modern hardware sustains fan-outs up
//! to ~256 efficiently, hence the paper's `F = 256` per pass.
//!
//! Parallelization follows the paper, morsel-driven: the input is cut into
//! fixed-size morsels, idle pool workers steal morsels, each morsel is
//! partitioned into morsel-local partitions, and global partition `p` is
//! the concatenation of the morsels' local `p` partitions *in morsel
//! order* — deterministic content for a given input and morsel size, no
//! matter which worker ran which morsel.

use crate::hash_table::HashKind;
use rayon::prelude::*;

/// Rows per partitioning morsel. Large enough that the per-morsel radix
/// histogram amortizes, small enough that a handful of threads each get
/// several morsels on laptop-scale inputs.
pub(crate) const PARTITION_MORSEL_ROWS: usize = 1 << 16;

/// One output partition: parallel key/value columns.
pub type Partition<V> = (Vec<u32>, Vec<V>);

#[inline(always)]
fn bucket_of(hash: HashKind, key: u32, level: u32, bits: u32) -> usize {
    ((hash.hash(key) >> (level * bits)) & ((1u64 << bits) - 1)) as usize
}

/// Serial radix partitioning of `(keys, values)` into `2^bits` partitions
/// using radix window `level` of the key hash.
pub fn partition_serial<V: Copy>(
    keys: &[u32],
    values: &[V],
    hash: HashKind,
    bits: u32,
    level: u32,
) -> Vec<Partition<V>> {
    assert_eq!(keys.len(), values.len());
    let fanout = 1usize << bits;
    // Pass 1: histogram (lets pass 2 write into exactly-sized buffers).
    let mut hist = vec![0usize; fanout];
    for &k in keys {
        hist[bucket_of(hash, k, level, bits)] += 1;
    }
    let mut parts: Vec<Partition<V>> = hist
        .iter()
        .map(|&c| (Vec::with_capacity(c), Vec::with_capacity(c)))
        .collect();
    // Pass 2: scatter.
    for (&k, &v) in keys.iter().zip(values.iter()) {
        let b = bucket_of(hash, k, level, bits);
        parts[b].0.push(k);
        parts[b].1.push(v);
    }
    parts
}

/// Parallel radix partitioning: morsel-local partitioning (morsels split
/// across the fork-join's threads) followed by
/// per-partition concatenation in morsel order (deterministic content; and
/// aggregation over reproducible states is order-independent anyway).
pub fn partition_parallel<V: Copy + Send + Sync>(
    keys: &[u32],
    values: &[V],
    hash: HashKind,
    bits: u32,
    level: u32,
    threads: usize,
) -> Vec<Partition<V>> {
    let n = keys.len();
    let morsel = PARTITION_MORSEL_ROWS;
    if threads <= 1 || rayon::current_num_threads() <= 1 || n <= morsel {
        return partition_serial(keys, values, hash, bits, level);
    }
    let morsels = n.div_ceil(morsel);
    let locals: Vec<Vec<Partition<V>>> = (0..morsels)
        .into_par_iter()
        .with_min_len(1)
        .map(|m| {
            let lo = m * morsel;
            let hi = (lo + morsel).min(n);
            partition_serial(&keys[lo..hi], &values[lo..hi], hash, bits, level)
        })
        .collect();
    // Logical concatenation: global partition p = locals[0][p] ++ locals[1][p] ++ …
    let fanout = 1usize << bits;
    (0..fanout)
        .into_par_iter()
        .map(|p| {
            let total: usize = locals.iter().map(|l| l[p].0.len()).sum();
            let mut ks = Vec::with_capacity(total);
            let mut vs = Vec::with_capacity(total);
            for l in &locals {
                ks.extend_from_slice(&l[p].0);
                vs.extend_from_slice(&l[p].1);
            }
            (ks, vs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, groups: u32) -> (Vec<u32>, Vec<u64>) {
        let keys: Vec<u32> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9) % groups as u64) as u32)
            .collect();
        let values: Vec<u64> = (0..n as u64).collect();
        (keys, values)
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let (keys, values) = sample(10_000, 57);
        let parts = partition_serial(&keys, &values, HashKind::Identity, 8, 0);
        assert_eq!(parts.len(), 256);
        let total: usize = parts.iter().map(|(k, _)| k.len()).sum();
        assert_eq!(total, keys.len());
        // Every (key, value) pair must appear exactly once; values are
        // unique so we can track them.
        let mut seen = vec![false; values.len()];
        for (ks, vs) in &parts {
            for (&k, &v) in ks.iter().zip(vs.iter()) {
                assert_eq!(keys[v as usize], k, "pair integrity");
                assert!(!seen[v as usize], "duplicate value {v}");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn groups_stay_whole() {
        let (keys, values) = sample(10_000, 57);
        for hash in [HashKind::Identity, HashKind::Multiplicative] {
            let parts = partition_serial(&keys, &values, hash, 4, 0);
            // Each key occurs in exactly one partition.
            let mut home = vec![None; 57];
            for (p, (ks, _)) in parts.iter().enumerate() {
                for &k in ks {
                    match home[k as usize] {
                        None => home[k as usize] = Some(p),
                        Some(h) => assert_eq!(h, p, "key {k} split across partitions"),
                    }
                }
            }
        }
    }

    #[test]
    fn different_levels_use_different_radix_windows() {
        let (keys, values) = sample(50_000, 1 << 20);
        let l0 = partition_serial(&keys, &values, HashKind::Identity, 8, 0);
        let l1 = partition_serial(&keys, &values, HashKind::Identity, 8, 1);
        // With ~2^20 distinct keys, level-0 and level-1 bucketings must
        // differ (same bucketing would defeat recursion).
        let same = l0.iter().zip(l1.iter()).all(|((a, _), (b, _))| a == b);
        assert!(!same);
    }

    #[test]
    fn parallel_matches_serial_content() {
        let (keys, values) = sample(300_000, 1000);
        let ser = partition_serial(&keys, &values, HashKind::Multiplicative, 8, 0);
        let par = partition_parallel(&keys, &values, HashKind::Multiplicative, 8, 0, 4);
        for (p, ((sk, sv), (pk, pv))) in ser.iter().zip(par.iter()).enumerate() {
            // Same multiset per partition (order may differ across chunks);
            // sort to compare.
            let mut a: Vec<_> = sk.iter().zip(sv.iter()).collect();
            let mut b: Vec<_> = pk.iter().zip(pv.iter()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "partition {p}");
        }
    }

    #[test]
    fn empty_input() {
        let parts = partition_serial::<f64>(&[], &[], HashKind::Identity, 8, 0);
        assert_eq!(parts.len(), 256);
        assert!(parts.iter().all(|(k, v)| k.is_empty() && v.is_empty()));
    }
}

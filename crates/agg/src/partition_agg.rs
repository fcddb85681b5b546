//! PARTITIONANDAGGREGATE — the paper's Algorithm 4.
//!
//! ```text
//! 1: partitions ← PARALLELPARTITION(input, key, F = f^d)
//! 2: for each partition p parallel do
//! 3:     privateTables[i] ← HASHAGGREGATION(p)
//! 4..6: merge private tables into the shared result
//! ```
//!
//! The partitioning depth `d` (0 = no partitioning) and the aggregate
//! function (built-in, DECIMAL, `repro`, buffered `repro`) are pluggable;
//! with reproducible states the whole operator is bit-reproducible for any
//! input permutation, thread count, and partition assignment, because state
//! merging is exact and associative.

use crate::agg_fn::AggFn;
use crate::hash_agg::hash_aggregate_states;
use crate::hash_table::{AggHashTable, HashKind};
use crate::partition::{partition_parallel, partition_serial, Partition};
use rayon::prelude::*;

/// Configuration of the GROUPBY operator.
#[derive(Clone, Copy, Debug)]
pub struct GroupByConfig {
    /// Hash function for both partitioning and table probing.
    pub hash: HashKind,
    /// Number of partitioning passes (`d`; fan-out `F = 2^(fanout_bits·d)`).
    pub depth: u32,
    /// log2 of the per-pass fan-out (paper: 8, i.e. F = 256).
    pub fanout_bits: u32,
    /// Expected number of groups (sizes hash tables; growth handles
    /// underestimates).
    pub groups_hint: usize,
    /// Worker threads for partitioning and per-partition aggregation
    /// (`<= 1` forces the serial path; above 1 the morsels fork onto up to
    /// `rayon::current_num_threads()` threads).
    pub threads: usize,
    /// Rows per aggregation morsel; 0 picks automatically (about four
    /// morsels per pool worker, clamped to `[2^13, 2^17]`). Exposed mainly
    /// so tests can drive the parallel path with small inputs.
    pub morsel_rows: usize,
}

impl Default for GroupByConfig {
    fn default() -> Self {
        GroupByConfig {
            hash: HashKind::Identity,
            depth: 0,
            fanout_bits: 8,
            groups_hint: 1024,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            morsel_rows: 0,
        }
    }
}

impl GroupByConfig {
    /// Derives depth and buffer size from the paper's cache model for a
    /// given group count (§V-C; see [`rfa_core::tuning`]).
    pub fn tuned_for(groups: usize, value_size: usize, model: &rfa_core::CacheModel) -> Self {
        GroupByConfig {
            depth: model.partition_depth(groups, value_size),
            groups_hint: groups,
            fanout_bits: model.fanout_bits,
            ..Default::default()
        }
    }

    /// Effective rows per morsel for an `n`-row input. Auto sizing targets
    /// about four morsels per worker, clamped to `[2^13, 2^17]`, but never
    /// below a few rows per expected group: each morsel carries a private
    /// table of `groups_hint` states, and that fixed cost must amortize
    /// over the morsel's rows or parallelism costs more than it buys.
    fn morsel_len(&self, n: usize) -> usize {
        if self.morsel_rows > 0 {
            return self.morsel_rows;
        }
        let workers = rayon::current_num_threads().max(1);
        (n / (4 * workers))
            .clamp(1 << 13, 1 << 17)
            .max(32 * self.groups_hint)
    }
}

/// Runs PARTITIONANDAGGREGATE and returns `(key, output)` pairs sorted by
/// key.
///
/// # Panics
/// If a key is `u32::MAX`, the hash tables' reserved empty-slot key.
pub fn partition_and_aggregate<F>(
    f: &F,
    keys: &[u32],
    values: &[F::Input],
    cfg: &GroupByConfig,
) -> Vec<(u32, F::Output)>
where
    F: AggFn,
    F::Output: Send,
{
    assert_eq!(keys.len(), values.len());
    let mut out = if cfg.depth == 0 {
        aggregate_unpartitioned(f, keys, values, cfg)
    } else {
        let parts = partition_parallel(keys, values, cfg.hash, cfg.fanout_bits, 0, cfg.threads);
        let per_part_hint = (cfg.groups_hint >> cfg.fanout_bits).max(8);
        if cfg.threads <= 1 {
            parts
                .into_iter()
                .flat_map(|p| aggregate_partition(f, p, cfg, cfg.depth - 1, per_part_hint))
                .collect()
        } else {
            // One partition = one morsel (partitions are already
            // cache-sized units of work; stealing balances skew).
            parts
                .into_par_iter()
                .with_min_len(1)
                .map(|p| aggregate_partition(f, p, cfg, cfg.depth - 1, per_part_hint))
                .fold(Vec::new, |mut all, mut part| {
                    all.append(&mut part);
                    all
                })
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                })
        }
    };
    out.sort_unstable_by_key(|(k, _)| *k);
    out
}

/// `d = 0`: each *morsel* aggregates into a private table; tables merge
/// pairwise along the split tree of the parallel reduction (Algorithm 4
/// lines 4–6). The tree shape is a pure function of input length and
/// morsel size — and merging reproducible states is exact and associative
/// anyway — so any thread count and any stealing schedule yield identical
/// bits. With few groups this merge phase is negligible (paper §V-B).
fn aggregate_unpartitioned<F>(
    f: &F,
    keys: &[u32],
    values: &[F::Input],
    cfg: &GroupByConfig,
) -> Vec<(u32, F::Output)>
where
    F: AggFn,
    F::Output: Send,
{
    let n = keys.len();
    let morsel = cfg.morsel_len(n);
    if cfg.threads <= 1 || rayon::current_num_threads() <= 1 || n <= morsel {
        let table = hash_aggregate_states(f, keys, values, cfg.hash, cfg.groups_hint);
        return finalize(f, table);
    }
    let morsels = n.div_ceil(morsel);
    let shared = (0..morsels)
        .into_par_iter()
        .with_min_len(1)
        .map(|m| {
            let lo = m * morsel;
            let hi = (lo + morsel).min(n);
            hash_aggregate_states(f, &keys[lo..hi], &values[lo..hi], cfg.hash, cfg.groups_hint)
        })
        .reduce(
            || {
                let template = f.new_state();
                AggHashTable::with_capacity(0, cfg.hash, &template)
            },
            |a, b| {
                // Drain the smaller table into the larger — which also
                // makes the identity-seeded leaf merges free (the empty
                // identity drains into the morsel table, not vice versa).
                // Merging is commutative (exact for repro states), so the
                // accumulator choice cannot change result bits.
                let (mut into, from) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                let template = f.new_state();
                for (k, s) in from.drain() {
                    f.merge(into.slot_mut(k, &template), s);
                }
                into
            },
        );
    finalize(f, shared)
}

/// Aggregates one partition, recursing through the remaining passes.
fn aggregate_partition<F>(
    f: &F,
    (keys, values): Partition<F::Input>,
    cfg: &GroupByConfig,
    remaining_depth: u32,
    groups_hint: usize,
) -> Vec<(u32, F::Output)>
where
    F: AggFn,
    F::Output: Send,
{
    if remaining_depth == 0 {
        let table = hash_aggregate_states(f, &keys, &values, cfg.hash, groups_hint);
        return finalize(f, table);
    }
    let level = cfg.depth - remaining_depth;
    let parts = partition_serial(&keys, &values, cfg.hash, cfg.fanout_bits, level);
    drop((keys, values));
    let hint = (groups_hint >> cfg.fanout_bits).max(8);
    parts
        .into_iter()
        .flat_map(|p| aggregate_partition(f, p, cfg, remaining_depth - 1, hint))
        .collect()
}

fn finalize<F: AggFn>(f: &F, table: AggHashTable<F::State>) -> Vec<(u32, F::Output)> {
    table.drain().map(|(k, s)| (k, f.output(s))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg_fn::{BufferedReproAgg, ReproAgg, SumAgg};

    fn workload(n: usize, groups: u32) -> (Vec<u32>, Vec<f64>) {
        let mut state = 0x123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<u32> = (0..n).map(|_| (next() % groups as u64) as u32).collect();
        let values: Vec<f64> = (0..n)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            .collect();
        (keys, values)
    }

    fn reference_sums(keys: &[u32], values: &[f64], groups: u32) -> Vec<f64> {
        // Exact per-group reference via the oracle.
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); groups as usize];
        for (&k, &v) in keys.iter().zip(values.iter()) {
            buckets[k as usize].push(v);
        }
        buckets
            .iter()
            .map(|b| rfa_exact::exact_sum_f64(b))
            .collect()
    }

    #[test]
    fn depths_agree_for_repro_types_bitwise() {
        let (keys, values) = workload(200_000, 3000);
        let f = ReproAgg::<f64, 2>::new();
        let base = GroupByConfig {
            groups_hint: 3000,
            ..Default::default()
        };
        let d0 = partition_and_aggregate(&f, &keys, &values, &GroupByConfig { depth: 0, ..base });
        let d1 = partition_and_aggregate(&f, &keys, &values, &GroupByConfig { depth: 1, ..base });
        let d2 = partition_and_aggregate(&f, &keys, &values, &GroupByConfig { depth: 2, ..base });
        assert_eq!(d0.len(), d1.len());
        assert_eq!(d0.len(), d2.len());
        for ((a, b), c) in d0.iter().zip(d1.iter()).zip(d2.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "group {} d0 vs d1", a.0);
            assert_eq!(a.1.to_bits(), c.1.to_bits(), "group {} d0 vs d2", a.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (keys, values) = workload(100_000, 64);
        let f = ReproAgg::<f64, 3>::new();
        let mk = |threads| GroupByConfig {
            threads,
            groups_hint: 64,
            ..Default::default()
        };
        let t1 = partition_and_aggregate(&f, &keys, &values, &mk(1));
        let t2 = partition_and_aggregate(&f, &keys, &values, &mk(2));
        let t7 = partition_and_aggregate(&f, &keys, &values, &mk(7));
        for ((a, b), c) in t1.iter().zip(t2.iter()).zip(t7.iter()) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.1.to_bits(), c.1.to_bits());
        }
    }

    #[test]
    fn results_are_accurate_vs_oracle() {
        let groups = 100;
        let (keys, values) = workload(50_000, groups);
        let f = ReproAgg::<f64, 3>::new();
        let out = partition_and_aggregate(
            &f,
            &keys,
            &values,
            &GroupByConfig {
                depth: 1,
                groups_hint: groups as usize,
                ..Default::default()
            },
        );
        let reference = reference_sums(&keys, &values, groups);
        for &(k, s) in &out {
            let exact = reference[k as usize];
            let err = (s - exact).abs();
            assert!(
                err <= 1e-9 * exact.abs().max(1.0),
                "group {k}: {s} vs {exact}"
            );
        }
    }

    #[test]
    fn buffered_and_unbuffered_agree_across_depths() {
        let (keys, values) = workload(100_000, 500);
        let plain = ReproAgg::<f32, 2>::new();
        let fvalues: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let cfg = GroupByConfig {
            depth: 1,
            groups_hint: 500,
            ..Default::default()
        };
        let a = partition_and_aggregate(&plain, &keys, &fvalues, &cfg);
        let buffered = BufferedReproAgg::<f32, 2>::new(256);
        let b = partition_and_aggregate(&buffered, &keys, &fvalues, &cfg);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "group {}", x.0);
        }
    }

    #[test]
    fn plain_u32_sums_are_exact() {
        let n = 100_000usize;
        let keys: Vec<u32> = (0..n).map(|i| (i % 10) as u32).collect();
        let values: Vec<u32> = (0..n).map(|i| i as u32).collect();
        let out = partition_and_aggregate(
            &SumAgg::<u32>::new(),
            &keys,
            &values,
            &GroupByConfig {
                depth: 1,
                groups_hint: 10,
                ..Default::default()
            },
        );
        assert_eq!(out.len(), 10);
        let mut reference = [0u32; 10];
        for i in 0..n {
            reference[i % 10] = reference[i % 10].wrapping_add(i as u32);
        }
        for &(k, s) in &out {
            assert_eq!(s, reference[k as usize]);
        }
    }

    #[test]
    fn distinct_keys_stress() {
        // Every key unique (the paper's "almost distinct" regime).
        let n = 50_000u32;
        let keys: Vec<u32> = (0..n).collect();
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let f = ReproAgg::<f64, 2>::new();
        let out = partition_and_aggregate(
            &f,
            &keys,
            &values,
            &GroupByConfig {
                depth: 2,
                groups_hint: n as usize,
                ..Default::default()
            },
        );
        assert_eq!(out.len(), n as usize);
        for &(k, s) in out.iter().step_by(4999) {
            assert_eq!(s, k as f64 * 0.5);
        }
    }
    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn reserved_key_panics_instead_of_losing_its_group() {
        // The empty-slot key cannot be stored: without the check its
        // group vanishes at drain time while `sort_aggregate` keeps it.
        let keys = [1, u32::MAX, 1, u32::MAX];
        let values = [1.0, 10.0, 2.0, 20.0];
        let cfg = GroupByConfig {
            depth: 1,
            groups_hint: 4,
            ..Default::default()
        };
        partition_and_aggregate(&SumAgg::<f64>::new(), &keys, &values, &cfg);
    }
}

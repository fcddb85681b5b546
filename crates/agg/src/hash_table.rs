//! Open-addressing aggregation hash table (paper §IV / §VI-A).
//!
//! The table maps `u32` keys to per-group aggregate states with linear
//! probing over a power-of-two slot array. Two hash functions are offered:
//!
//! * [`HashKind::Identity`] — the paper's default: "we use IDENTITYHASHING
//!   instead of multiplicative hashing. This is not unrealistic in column
//!   stores, where dense ranges are common due to domain encoding";
//! * [`HashKind::Multiplicative`] — Fibonacci multiplicative hashing for
//!   non-dense key domains (using a real hash function slows all algorithms
//!   by the same constant, §VI-A).
//!
//! One key value (`u32::MAX`) is reserved as the empty-slot sentinel:
//! every call that inserts a key panics on it rather than lose its group.

/// Hash function selector for aggregation and partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HashKind {
    /// `h(k) = k` — the paper's choice for domain-encoded (dense) keys.
    #[default]
    Identity,
    /// Fibonacci multiplicative hashing (Knuth).
    Multiplicative,
}

impl HashKind {
    /// Hashes a key to a full-width value; callers take whatever bits they
    /// need (table mask, partition radix).
    #[inline(always)]
    pub fn hash(self, key: u32) -> u64 {
        match self {
            HashKind::Identity => key as u64,
            HashKind::Multiplicative => {
                // 64-bit Fibonacci hashing; high bits well mixed, so fold
                // them down for users that mask low bits.
                let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^ (h >> 32)
            }
        }
    }
}

/// Reserved key marking an empty slot.
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash table of per-group aggregate states.
pub struct AggHashTable<S> {
    keys: Vec<u32>,
    states: Vec<S>,
    mask: usize,
    len: usize,
    hash: HashKind,
}

impl<S: Clone> AggHashTable<S> {
    /// Creates a table able to hold `capacity_hint` groups without
    /// resizing. Every slot is initialized with a clone of `template`
    /// (mirrors the paper's layout: the intermediate aggregate, including
    /// its summation buffer, lives inline in the table).
    pub fn with_capacity(capacity_hint: usize, hash: HashKind, template: &S) -> Self {
        let slots = (capacity_hint.max(8) * 4 / 3).next_power_of_two();
        AggHashTable {
            keys: vec![EMPTY; slots],
            states: vec![template.clone(); slots],
            mask: slots - 1,
            len: 0,
            hash,
        }
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the state slot for `key`, inserting a clone of `template`
    /// on first sight. Grows (doubling + rehash) at 75% load.
    ///
    /// # Panics
    /// If `key` is `u32::MAX`, the reserved empty-slot sentinel.
    #[inline]
    pub fn slot_mut(&mut self, key: u32, template: &S) -> &mut S {
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow(template);
        }
        let slot = self.probe_insert(key);
        &mut self.states[slot]
    }

    /// Probe-or-insert without a growth check (callers guarantee a free
    /// slot exists). Returns the slot index.
    #[inline]
    fn probe_insert(&mut self, key: u32) -> usize {
        assert_ne!(
            key, EMPTY,
            "u32::MAX is the hash table's reserved empty-slot key"
        );
        let mut i = self.hash.hash(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return i;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.len += 1;
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Batched upsert: resolves the slot of every key in `keys`
    /// (inserting clones of `template` for unseen keys) into the reused
    /// `slots` scratch vector (`slots[i]` is `keys[i]`'s slot) and invokes
    /// `apply(state, i)` for each batch position `i` on that key's state,
    /// in batch index order. The growth check runs once per batch:
    /// capacity for the worst case (every key new) is ensured *up front*,
    /// so slot indices stay valid across the whole batch. Per-key update
    /// order equals input order, so results are bit-identical to the
    /// [`Self::slot_mut`] loop for any batch size. (The engine's fused scan
    /// assigns its group ids through [`Self::probe_gids`] instead.)
    ///
    /// # Panics
    /// If a key is `u32::MAX`, the reserved empty-slot sentinel.
    pub fn upsert_batch(
        &mut self,
        keys: &[u32],
        template: &S,
        slots: &mut Vec<u32>,
        mut apply: impl FnMut(&mut S, usize),
    ) {
        // Worst-case pre-growth: every key in the batch is new. Capacity
        // may overshoot by up to one doubling versus one-at-a-time
        // insertion (duplicates are unknowable up front), then converges:
        // once (len + batch) fits in 75% load, no batch ever grows again.
        while (self.len + keys.len()) * 4 > self.keys.len() * 3 {
            self.grow(template);
        }
        slots.clear();
        for (i, &k) in keys.iter().enumerate() {
            let s = self.probe_insert(k);
            slots.push(s as u32);
            apply(&mut self.states[s], i);
        }
    }

    /// Looks up a key without inserting.
    pub fn get(&self, key: u32) -> Option<&S> {
        let mut i = self.hash.hash(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(&self.states[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self, template: &S) {
        let new_slots = self.keys.len() * 2;
        let old_keys = core::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_states = core::mem::replace(&mut self.states, vec![template.clone(); new_slots]);
        self.mask = new_slots - 1;
        for (k, s) in old_keys.into_iter().zip(old_states) {
            if k != EMPTY {
                let mut i = self.hash.hash(k) as usize & self.mask;
                while self.keys[i] != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.states[i] = s;
            }
        }
    }

    /// Drains all (key, state) pairs in unspecified order.
    pub fn drain(self) -> impl Iterator<Item = (u32, S)> {
        self.keys
            .into_iter()
            .zip(self.states)
            .filter(|(k, _)| *k != EMPTY)
    }

    /// Iterates (key, &state) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &S)> {
        self.keys
            .iter()
            .zip(self.states.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, s)| (*k, s))
    }
}

impl AggHashTable<u32> {
    /// Batched key→group-id assignment for an `AggHashTable<u32>` ("gid
    /// table") whose states are group ids. Appends one gid per batch key
    /// to `out`; `new_gid(key)` is called for each first-seen key **in
    /// batch index order** and must return the id to assign (typically
    /// recording the key in a first-seen list on the side). The growth
    /// check runs once per batch, as in [`Self::upsert_batch`].
    ///
    /// The unassigned-state sentinel is `u32::MAX`, so `new_gid` must
    /// never return it (dense gids cannot: the table itself would
    /// overflow first). For an identity-hashed table under an active SIMD
    /// dispatch level (`RFA_SIMD`), this lets the `simd_probe` kernels
    /// fuse the slot→state indirection: 8 (AVX2) or 16 (AVX-512) keys per
    /// iteration gather the resident key *and* the resident gid at their
    /// home slot, so a hit lane produces its answer directly. Only miss
    /// lanes — empty home slots, collision chains, unseen keys — drain
    /// through the scalar probe, in batch index order, so gid assignment
    /// order and values are bit-identical to the scalar loop at every
    /// dispatch level. Other hash functions run the scalar loop.
    ///
    /// # Panics
    /// If a key is `u32::MAX`, the reserved empty-slot sentinel.
    pub fn probe_gids(
        &mut self,
        batch: &[u32],
        out: &mut Vec<u32>,
        mut new_gid: impl FnMut(u32) -> u32,
    ) {
        const UNASSIGNED: u32 = u32::MAX;
        while (self.len + batch.len()) * 4 > self.keys.len() * 3 {
            self.grow(&UNASSIGNED);
        }
        let base = out.len();
        out.resize(base + batch.len(), 0);
        let dst = &mut out[base..];
        let bulk = match self.hash {
            HashKind::Identity => {
                crate::simd_probe::probe_home_gids(&self.keys, &self.states, self.mask, batch, dst)
            }
            HashKind::Multiplicative => None,
        };
        match bulk {
            None => {
                // No kernel for this dispatch level or hash: the original probe loop.
                for (g, &k) in dst.iter_mut().zip(batch) {
                    let s = self.probe_insert(k);
                    if self.states[s] == UNASSIGNED {
                        self.states[s] = new_gid(k);
                    }
                    *g = self.states[s];
                }
            }
            Some(0) => {}
            Some(_) => {
                for (i, g) in dst.iter_mut().enumerate() {
                    if *g == crate::simd_probe::MISS {
                        let k = batch[i];
                        let s = self.probe_insert(k);
                        if self.states[s] == UNASSIGNED {
                            self.states[s] = new_gid(k);
                        }
                        *g = self.states[s];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut t = AggHashTable::<f64>::with_capacity(4, HashKind::Identity, &0.0);
        *t.slot_mut(7, &0.0) += 1.5;
        *t.slot_mut(3, &0.0) += 2.0;
        *t.slot_mut(7, &0.0) += 0.5;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(7), Some(&2.0));
        assert_eq!(t.get(3), Some(&2.0));
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn growth_preserves_contents() {
        let mut t = AggHashTable::<u64>::with_capacity(2, HashKind::Multiplicative, &0);
        for k in 0..10_000u32 {
            *t.slot_mut(k, &0) += k as u64;
        }
        // Second pass hits existing slots.
        for k in 0..10_000u32 {
            *t.slot_mut(k, &0) += 1;
        }
        assert_eq!(t.len(), 10_000);
        for k in (0..10_000u32).step_by(997) {
            assert_eq!(t.get(k), Some(&(k as u64 + 1)));
        }
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // With identity hashing, keys equal mod capacity collide.
        let mut t = AggHashTable::<u32>::with_capacity(8, HashKind::Identity, &0);
        let cap = 16; // 8*4/3 -> 16 slots
        *t.slot_mut(1, &0) += 10;
        *t.slot_mut(1 + cap, &0) += 20;
        *t.slot_mut(1 + 2 * cap, &0) += 30;
        assert_eq!(t.get(1), Some(&10));
        assert_eq!(t.get(1 + cap), Some(&20));
        assert_eq!(t.get(1 + 2 * cap), Some(&30));
    }

    #[test]
    fn upsert_batch_matches_scalar_inserts() {
        let mut scalar = AggHashTable::<f64>::with_capacity(8, HashKind::Identity, &0.0);
        let mut batched = AggHashTable::<f64>::with_capacity(8, HashKind::Identity, &0.0);
        let keys: Vec<u32> = (0..500u32).map(|i| (i * 7) % 91).collect();
        let values: Vec<f64> = (0..500).map(|i| i as f64 * 0.5 - 20.0).collect();
        for (&k, &v) in keys.iter().zip(&values) {
            *scalar.slot_mut(k, &0.0) += v;
        }
        let mut slots = Vec::new();
        for (kc, vc) in keys.chunks(64).zip(values.chunks(64)) {
            batched.upsert_batch(kc, &0.0, &mut slots, |s, i| *s += vc[i]);
        }
        assert_eq!(scalar.len(), batched.len());
        for k in 0..91u32 {
            assert_eq!(
                scalar.get(k).map(|v| v.to_bits()),
                batched.get(k).map(|v| v.to_bits()),
                "key {k}"
            );
        }
    }

    #[test]
    fn upsert_batch_grows_across_a_capacity_boundary() {
        // capacity_hint 8 -> 16 slots -> grows when len + batch exceeds 12.
        let mut t = AggHashTable::<u32>::with_capacity(8, HashKind::Identity, &0);
        assert_eq!(t.keys.len(), 16);
        let mut slots = Vec::new();
        // One batch of 20 distinct keys straddles the 75%-load boundary:
        // growth must happen up front and the batch's slot indices must
        // stay valid (a stale pre-growth index would corrupt states).
        let keys: Vec<u32> = (0..20).collect();
        t.upsert_batch(&keys, &0, &mut slots, |s, i| *s += i as u32 + 1);
        assert!(t.keys.len() >= 32, "table must have grown");
        assert_eq!(t.len(), 20);
        for k in 0..20u32 {
            assert_eq!(t.get(k), Some(&(k + 1)), "key {k}");
        }
        // Worst-case reservation assumes every batch key may be new, so
        // capacity converges to holding len + batch at 75% load and then
        // stays put: repeated batches over the same keys stop growing.
        t.upsert_batch(&keys, &0, &mut slots, |s, _| *s += 100);
        let cap = t.keys.len();
        assert!((t.len() + keys.len()) * 4 <= cap * 3);
        t.upsert_batch(&keys, &0, &mut slots, |s, _| *s += 1000);
        assert_eq!(t.keys.len(), cap, "converged capacity must be sticky");
        assert_eq!(t.len(), 20);
        assert_eq!(t.get(7), Some(&(7 + 1 + 100 + 1000)));
    }

    #[test]
    fn upsert_batch_handles_duplicate_keys_within_a_batch() {
        let mut t = AggHashTable::<u64>::with_capacity(4, HashKind::Multiplicative, &0);
        let keys = [5u32, 9, 5, 5, 9, 3];
        let mut slots = Vec::new();
        t.upsert_batch(&keys, &0, &mut slots, |s, i| *s += (i as u64) + 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(&(1 + 3 + 4)));
        assert_eq!(t.get(9), Some(&(2 + 5)));
        assert_eq!(t.get(3), Some(&6));
        // Slot scratch has one entry per input, duplicates resolving to
        // the same slot.
        assert_eq!(slots.len(), 6);
        assert_eq!(slots[0], slots[2]);
        assert_eq!(slots[0], slots[3]);
    }

    #[test]
    fn probe_gids_assigns_first_seen_order_across_growth() {
        // capacity_hint 8 -> 16 slots; 97 distinct keys force several
        // growths mid-stream. Gids must come out in first-seen input
        // order regardless.
        let mut t = AggHashTable::<u32>::with_capacity(8, HashKind::Identity, &u32::MAX);
        let keys: Vec<u32> = (0..300u32).map(|i| (i * 13) % 97).collect();
        let mut order: Vec<u32> = Vec::new();
        let mut gids: Vec<u32> = Vec::new();
        for chunk in keys.chunks(32) {
            t.probe_gids(chunk, &mut gids, |k| {
                order.push(k);
                (order.len() - 1) as u32
            });
        }
        let mut ref_order: Vec<u32> = Vec::new();
        let ref_gids: Vec<u32> = keys
            .iter()
            .map(|&k| match ref_order.iter().position(|&o| o == k) {
                Some(g) => g as u32,
                None => {
                    ref_order.push(k);
                    (ref_order.len() - 1) as u32
                }
            })
            .collect();
        assert_eq!(order, ref_order);
        assert_eq!(gids, ref_gids);
        assert_eq!(t.len(), 97);
    }

    #[test]
    fn drain_yields_all_groups() {
        let mut t = AggHashTable::<u32>::with_capacity(16, HashKind::Identity, &0);
        for k in 0..100u32 {
            *t.slot_mut(k, &0) = k;
        }
        let mut pairs: Vec<_> = t.drain().collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 100);
        assert_eq!(pairs[42], (42, 42));
    }
}

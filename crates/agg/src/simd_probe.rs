//! SIMD key→group-id kernels for [`AggHashTable::probe_gids`].
//!
//! The gid probe resolves a whole batch of keys to group ids through an
//! `AggHashTable<u32>` whose per-slot state is the group id. Its hot case —
//! after the table has seen every group once — is a key that sits exactly
//! at its *home slot* (`k & mask`): identity hashing over dense domains
//! places keys collision-free. The kernels here classify 8 (AVX2) or 16
//! (AVX-512) keys per iteration into home-slot **hits** and **misses**:
//!
//! 1. the home slot of every key lane is one `vpand` with the mask (the
//!    paper's identity hashing, §VI-A; other hash functions take the
//!    caller's scalar loop);
//! 2. gather the resident table keys and the resident gids at the home
//!    slots (`vpgatherdd`);
//! 3. compare: equal lanes are hits and take the resident gid, all other
//!    lanes (empty slot, collision chain, unseen key) are misses.
//!
//! Hits never touch the table, so detecting them in any lane order is
//! free of side effects; the caller drains every miss through the scalar
//! probe **in batch index order**, which makes insertion order — and
//! therefore first-seen group-id assignment and physical slot placement —
//! exactly what the all-scalar loop produces. Lane width is invisible in
//! the results.
//!
//! ## Safety boundary
//!
//! As in the engine's selection kernels, the `unsafe fn`s are
//! `#[target_feature]`-gated and reachable only through
//! [`probe_home_gids`], which consults [`cpu::active`] (the cached CPUID
//! probe, overridable via `RFA_SIMD`) and returns `None` so the caller
//! runs the scalar loop when no kernel is in effect. What the kernels' raw
//! loads, gathers and stores rely on is checked by that wrapper, not
//! assumed: the table is a power of two (`table_keys.len() == mask + 1`,
//! and the gid states as long), `mask < 2^31` so every gather offset is a
//! non-negative `i32`, and the output is as long as the keys. Gathers then
//! only read `table_keys[k & mask]` and `gid_states[k & mask]`, always in
//! bounds; loads and stores touch `keys[i..i + 8/16]` and
//! `out[i..i + 8/16]` inside the full vector groups only; tails run
//! scalar. Each kernel restates these under `# Safety` and
//! `debug_assert!`s them.
//!
//! [`AggHashTable::probe_gids`]: crate::AggHashTable::probe_gids
//! [`cpu::active`]: rfa_core::cpu::active

#![deny(clippy::undocumented_unsafe_blocks)]

/// Gid written for lanes the SIMD pass could not resolve; the caller
/// drains these through the scalar probe. Never a valid gid: the caller
/// assigns dense ids below `u32::MAX`.
pub(crate) const MISS: u32 = u32::MAX;

/// Classifies every key of an identity-hashed gid table into home-slot
/// hit (`out[i]` = the resident gid) or miss (`out[i]` = [`MISS`]),
/// returning the miss count — or `None` when no SIMD kernel is in effect
/// (scalar dispatch level, non-x86_64, or a table too large for `i32`
/// gather indices) and the caller should run its scalar loop instead.
/// `gid_states` is the table's parallel per-slot state array. Requires
/// every assigned gid `< u32::MAX` (the engine's `NO_GROUP` sentinel),
/// otherwise a hit would be indistinguishable from a miss.
#[inline]
pub(crate) fn probe_home_gids(
    table_keys: &[u32],
    gid_states: &[u32],
    mask: usize,
    keys: &[u32],
    out: &mut [u32],
) -> Option<usize> {
    assert_eq!(keys.len(), out.len(), "one gid per key");
    assert_eq!(table_keys.len(), mask + 1, "a table of mask + 1 slots");
    assert_eq!(gid_states.len(), mask + 1, "one gid per table slot");
    #[cfg(target_arch = "x86_64")]
    {
        use rfa_core::cpu::{self, SimdLevel};
        if mask >= (1 << 31) {
            return None;
        }
        match cpu::active() {
            SimdLevel::Scalar => None,
            SimdLevel::Avx2 => {
                // SAFETY: `cpu::active()` reports AVX2 only when the CPU has
                // it; the lengths are asserted above and `mask < 2^31` checked.
                Some(unsafe { x86::gids_avx2(table_keys, gid_states, mask, keys, out) })
            }
            SimdLevel::Avx512 => {
                // SAFETY: `cpu::active()` reports AVX-512F only when the CPU
                // has it; the lengths are asserted above and `mask < 2^31`
                // checked.
                Some(unsafe { x86::gids_avx512(table_keys, gid_states, mask, keys, out) })
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (table_keys, gid_states, mask, keys, out);
        None
    }
}

/// Scalar gid classification — tails and test oracle of the kernels.
#[inline(always)]
fn classify_gid_scalar(table_keys: &[u32], gid_states: &[u32], mask: usize, key: u32) -> u32 {
    let idx = key as usize & mask;
    if table_keys[idx] == key {
        gid_states[idx]
    } else {
        MISS
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{classify_gid_scalar, MISS};
    use core::arch::x86_64::*;

    /// [`super::probe_home_gids`], 8 keys per vector group.
    ///
    /// # Safety
    /// AVX2 must be available, `mask < 2^31`, `table_keys.len() ==
    /// gid_states.len() == mask + 1` (every lane gathers `table_keys[k &
    /// mask]` and `gid_states[k & mask]`, a non-negative `i32` offset
    /// inside both) and `out.len() == keys.len()` (a full group loads
    /// `keys[i..i + 8]` and stores `out[i..i + 8]` for `i + 8 <=
    /// keys.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gids_avx2(
        table_keys: &[u32],
        gid_states: &[u32],
        mask: usize,
        keys: &[u32],
        out: &mut [u32],
    ) -> usize {
        debug_assert!(mask < 1 << 31 && table_keys.len() == mask + 1);
        debug_assert_eq!(gid_states.len(), mask + 1);
        debug_assert_eq!(out.len(), keys.len());
        let n = keys.len();
        let tbl = table_keys.as_ptr() as *const i32;
        let gds = gid_states.as_ptr() as *const i32;
        let m = _mm256_set1_epi32(mask as i32);
        let ones = _mm256_set1_epi32(-1);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == keys.len()`.
            let k = unsafe { _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i) };
            let idx = _mm256_and_si256(k, m);
            // SAFETY: every lane of `idx` is `k & mask`, inside the table.
            let resident = unsafe { _mm256_i32gather_epi32::<4>(tbl, idx) };
            let hit = _mm256_cmpeq_epi32(resident, k);
            // Second gather fetches the resident gids; hit lanes take the
            // gid, miss lanes MISS (all-ones).
            // SAFETY: the same in-table indices, into the gid states of
            // the same length: the unconditional gather reads no lane out
            // of bounds.
            let gid = unsafe { _mm256_i32gather_epi32::<4>(gds, idx) };
            let res = _mm256_blendv_epi8(ones, gid, hit);
            // SAFETY: `i + 8 <= n == out.len()`.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, res) };
            let hm = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32;
            misses += 8 - hm.count_ones() as usize;
            i += 8;
        }
        while i < n {
            out[i] = classify_gid_scalar(table_keys, gid_states, mask, keys[i]);
            misses += (out[i] == MISS) as usize;
            i += 1;
        }
        misses
    }

    /// [`super::probe_home_gids`], 16 keys per vector group.
    ///
    /// # Safety
    /// As [`gids_avx2`], with AVX-512F and groups of 16.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gids_avx512(
        table_keys: &[u32],
        gid_states: &[u32],
        mask: usize,
        keys: &[u32],
        out: &mut [u32],
    ) -> usize {
        debug_assert!(mask < 1 << 31 && table_keys.len() == mask + 1);
        debug_assert_eq!(gid_states.len(), mask + 1);
        debug_assert_eq!(out.len(), keys.len());
        let n = keys.len();
        let tbl = table_keys.as_ptr() as *const i32;
        let gds = gid_states.as_ptr() as *const i32;
        let m = _mm512_set1_epi32(mask as i32);
        let miss = _mm512_set1_epi32(MISS as i32);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n == keys.len()`.
            let k = unsafe { _mm512_loadu_si512(keys.as_ptr().add(i) as *const __m512i) };
            let idx = _mm512_and_si512(k, m);
            // SAFETY: every lane of `idx` is `k & mask`, inside both the
            // table and the gid states.
            let (resident, gid) = unsafe {
                (
                    _mm512_i32gather_epi32::<4>(idx, tbl),
                    _mm512_i32gather_epi32::<4>(idx, gds),
                )
            };
            let hit = _mm512_cmpeq_epi32_mask(resident, k);
            let res = _mm512_mask_blend_epi32(hit, miss, gid);
            // SAFETY: `i + 16 <= n == out.len()`.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(i) as *mut __m512i, res) };
            misses += 16 - hit.count_ones() as usize;
            i += 16;
        }
        while i < n {
            out[i] = classify_gid_scalar(table_keys, gid_states, mask, keys[i]);
            misses += (out[i] == MISS) as usize;
            i += 1;
        }
        misses
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use rfa_core::cpu;

    /// A fake identity-hashed table: `slots` entries, a mix of resident
    /// keys at their home position, displaced keys, and empties; the
    /// parallel state array holds each key's insertion index as its gid.
    fn build_table(slots: usize, resident: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mask = slots - 1;
        let mut keys = vec![u32::MAX; slots];
        let mut gids = vec![u32::MAX; slots];
        for (g, &k) in resident.iter().enumerate() {
            let mut i = k as usize & mask;
            while keys[i] != u32::MAX && keys[i] != k {
                i = (i + 1) & mask;
            }
            keys[i] = k;
            gids[i] = g as u32;
        }
        (keys, gids)
    }

    /// Every kernel the CPU has against the scalar classification, each
    /// writing its output at offset `at` of a larger buffer whose other
    /// entries must survive.
    fn check_kernels(slots: usize, resident: &[u32], probes: &[u32], at: usize) {
        let (table, gid_states) = build_table(slots, resident);
        let mask = slots - 1;
        let expected: Vec<u32> = probes
            .iter()
            .map(|&k| classify_gid_scalar(&table, &gid_states, mask, k))
            .collect();
        let expected_misses = expected.iter().filter(|&&g| g == MISS).count();
        let n = probes.len();
        let check = |kernel: &str, run: &dyn Fn(&mut [u32]) -> usize| {
            const GUARD: u32 = 0xDEAD_BEEF;
            let mut buf = vec![GUARD; at + n + 16];
            let misses = run(&mut buf[at..at + n]);
            let what = format!("{kernel} slots={slots} n={n} at={at}");
            assert_eq!(&buf[at..at + n], &expected[..], "{what}");
            assert_eq!(misses, expected_misses, "{what}: miss count");
            assert!(
                buf[..at].iter().chain(&buf[at + n..]).all(|&x| x == GUARD),
                "{what}: wrote outside its output"
            );
        };
        // SAFETY (every call below): the CPU has the kernel's feature
        // (checked first), `table` and `gid_states` have `mask + 1 < 2^31`
        // entries, and `out` holds one entry per probe.
        if cpu::avx2_supported() {
            // SAFETY: see above.
            check("avx2", &|out| unsafe {
                x86::gids_avx2(&table, &gid_states, mask, probes, out)
            });
        }
        if cpu::avx512_supported() {
            // SAFETY: see above.
            check("avx512", &|out| unsafe {
                x86::gids_avx512(&table, &gid_states, mask, probes, out)
            });
        }
    }

    #[test]
    fn kernels_match_scalar_classification() {
        // Dense keys: all-hit after residence, plus collision chains
        // (key + slots aliases under identity hashing).
        let resident: Vec<u32> = (0..96u32).chain((0..8).map(|k| k + 128)).collect();
        let probes: Vec<u32> = (0..200u32)
            .map(|i| (i * 7) % 160)
            .chain([0, 95, 96, 128, 135, 136, 1 << 20])
            .collect();
        check_kernels(128, &resident, &probes, 0);

        // Sparse keys through a small table: long chains, many misses.
        let resident: Vec<u32> = (0..40u32).map(|i| i * 1000 + 7).collect();
        let probes: Vec<u32> = (0..133u32).map(|i| (i % 50) * 1000 + 7).collect();
        check_kernels(64, &resident, &probes, 0);
    }

    #[test]
    fn tail_lengths_are_classified() {
        // Every vector-group/tail split around the 8- and 16-lane
        // boundaries (lengths 0..=2·16+8), with the probe keys and the
        // output each starting at every offset 0..16 inside a larger
        // buffer: unaligned loads and stores, and no store past the
        // output.
        let resident: Vec<u32> = (0..20u32).collect();
        let keys: Vec<u32> = (0..64u32).map(|i| i * 3 % 37).collect();
        for offset in 0..16 {
            for n in 0..=40usize {
                let probes = &keys[offset..offset + n];
                check_kernels(32, &resident, probes, offset);
            }
        }
    }
}

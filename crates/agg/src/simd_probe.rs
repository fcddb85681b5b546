//! SIMD batched probe kernels for [`crate::AggHashTable`].
//!
//! The batched probe ([`AggHashTable::probe_batch`]) resolves a whole
//! batch of keys to slot indices. Its hot case — after the table has seen
//! every group once — is a key that sits exactly at its *home slot*
//! (`hash(k) & mask`): identity hashing over dense domains places keys
//! collision-free, and multiplicative hashing at ≤75% load keeps most
//! chains at length one. The kernels here classify 8 (AVX2) or 16
//! (AVX-512) keys per iteration into home-slot **hits** and **misses**:
//!
//! 1. hash the key lanes — identity is a single `vpand` with the mask;
//!    Fibonacci multiplicative hashing folds the 64-bit product via
//!    widening `vpmuludq` (see below);
//! 2. gather the resident table keys at the home slots (`vpgatherdd`);
//! 3. compare and movemask: equal lanes are hits whose slot index is the
//!    home slot, all other lanes (empty slot, collision chain, unseen
//!    key) are misses.
//!
//! Hits never touch the table, so detecting them in any lane order is
//! free of side effects; the caller drains every miss through the scalar
//! probe **in batch index order**, which makes insertion order — and
//! therefore first-seen group-id assignment and physical slot placement —
//! exactly what the all-scalar loop produces. Lane width is invisible in
//! the results.
//!
//! ## Folding the multiplicative hash to 32 lanes
//!
//! The scalar hash is `h = k · C mod 2^64; h ^ (h >> 32)`, of which the
//! table keeps `& mask` low bits. For `mask < 2^31` (any real table; the
//! dispatcher falls back otherwise so gather indices stay in `i32`
//! range), only the low 32 bits of the fold matter:
//!
//! ```text
//! lo32(h)            = k · C_lo               (mod 2^32)   vpmulld
//! hi32(h)            = mulhi(k, C_lo) + k · C_hi (mod 2^32)
//! lo32(h ^ (h>>32))  = lo32(h) ^ hi32(h)
//! ```
//!
//! with `C = C_hi·2^32 + C_lo`. `mulhi` for 32-bit lanes has no direct
//! instruction; it is assembled from the even/odd widening multiplies
//! (`vpmuludq` on the vector and on the vector shifted right by 32) and
//! a lane blend.
//!
//! ## Safety boundary
//!
//! As in the engine's selection kernels, the `unsafe fn`s are
//! `#[target_feature]`-gated and reachable only through
//! [`probe_home_hits`] and [`probe_home_gids`], which consult
//! [`cpu::active`] (the cached CPUID probe, overridable via `RFA_SIMD`)
//! and return `None` so the caller runs the scalar loop when no kernel is
//! in effect. What the kernels' raw loads, gathers and stores rely on is
//! checked by those two wrappers, not assumed: the table is a power of
//! two (`table_keys.len() == mask + 1`, and the gid states as long),
//! `mask < 2^31` so every gather offset is a non-negative `i32`, and the
//! output is as long as the keys. Gathers then only read
//! `table_keys[hash & mask]` (and `gid_states[hash & mask]`), always in
//! bounds; loads and stores touch `keys[i..i + 8/16]` and
//! `out[i..i + 8/16]` inside the full vector groups only; tails run
//! scalar. Each kernel restates these under `# Safety` and
//! `debug_assert!`s them.
//!
//! [`cpu::active`]: rfa_core::cpu::active

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::hash_table::HashKind;

/// Slot sentinel written for lanes the SIMD pass could not resolve; the
/// caller drains these through the scalar probe. Never a valid slot
/// index: kernels require `mask < 2^31`.
pub(crate) const MISS: u32 = u32::MAX;

/// Classifies every key into home-slot hit (`slots[i]` = slot index) or
/// miss (`slots[i]` = [`MISS`]), returning the miss count — or `None`
/// when no SIMD kernel is in effect (scalar dispatch level, non-x86_64,
/// or a table too large for `i32` gather indices) and the caller should
/// run its scalar loop instead.
#[inline]
pub(crate) fn probe_home_hits(
    hash: HashKind,
    table_keys: &[u32],
    mask: usize,
    keys: &[u32],
    slots: &mut [u32],
) -> Option<usize> {
    assert_eq!(keys.len(), slots.len(), "one slot per key");
    assert_eq!(table_keys.len(), mask + 1, "a table of mask + 1 slots");
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
                Some(unsafe { x86::probe_avx2(hash, table_keys, mask, keys, slots) })
            }
            SimdLevel::Avx512 => {
                // SAFETY: `cpu::active()` reports AVX-512F only when the CPU
                // has it; the lengths are asserted above and `mask < 2^31`
                // checked.
                Some(unsafe { x86::probe_avx512(hash, table_keys, mask, keys, slots) })
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (hash, table_keys, mask, keys, slots);
        None
    }
}

/// The gid-table variant of [`probe_home_hits`], fusing the slot→state
/// indirection into the kernel: `gid_states` is the table's parallel
/// per-slot state array of an `AggHashTable<u32>` used as a key→group-id
/// map. A home-slot hit lane gathers the resident *gid* in the same pass
/// and writes it to `out[i]` directly — no per-row apply loop afterwards;
/// miss lanes get [`MISS`]. Requires every assigned gid `< u32::MAX`
/// (the engine's `NO_GROUP` sentinel), otherwise a hit would be
/// indistinguishable from a miss.
#[inline]
pub(crate) fn probe_home_gids(
    hash: HashKind,
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
                Some(unsafe { x86::gids_avx2(hash, table_keys, gid_states, mask, keys, out) })
            }
            SimdLevel::Avx512 => {
                // SAFETY: `cpu::active()` reports AVX-512F only when the CPU
                // has it; the lengths are asserted above and `mask < 2^31`
                // checked.
                Some(unsafe { x86::gids_avx512(hash, table_keys, gid_states, mask, keys, out) })
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (hash, table_keys, gid_states, mask, keys, out);
        None
    }
}

/// Scalar hit/miss classification for one key — the vector-group tails
/// and the test oracle.
#[inline(always)]
fn classify_scalar(hash: HashKind, table_keys: &[u32], mask: usize, key: u32) -> u32 {
    let idx = hash.hash(key) as usize & mask;
    if table_keys[idx] == key {
        idx as u32
    } else {
        MISS
    }
}

/// Scalar gid classification — tails and test oracle of the gid kernels.
#[inline(always)]
fn classify_gid_scalar(
    hash: HashKind,
    table_keys: &[u32],
    gid_states: &[u32],
    mask: usize,
    key: u32,
) -> u32 {
    let idx = hash.hash(key) as usize & mask;
    if table_keys[idx] == key {
        gid_states[idx]
    } else {
        MISS
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{classify_gid_scalar, classify_scalar, MISS};
    use crate::hash_table::HashKind;
    use core::arch::x86_64::*;

    /// Low and high 32-bit halves of the Fibonacci constant
    /// `0x9E37_79B9_7F4A_7C15`.
    const C_LO: i32 = 0x7F4A_7C15u32 as i32;
    const C_HI: i32 = 0x9E37_79B9u32 as i32;

    /// Home-slot indices for 8 key lanes: `hash(k) & mask`. Identity is a
    /// single `vpand`; the multiplicative fold assembles `mulhi(k, C_LO)`
    /// from the even/odd widening products (see module docs).
    ///
    /// # Safety
    /// AVX2 must be available. (Register arithmetic only: every lane of
    /// the result is `≤ mask`, whatever the keys.)
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn home_idx_avx2(
        hash: HashKind,
        k: __m256i,
        m: __m256i,
        c_lo: __m256i,
        c_hi: __m256i,
    ) -> __m256i {
        match hash {
            HashKind::Identity => _mm256_and_si256(k, m),
            HashKind::Multiplicative => {
                let lo = _mm256_mullo_epi32(k, c_lo);
                let even = _mm256_mul_epu32(k, c_lo);
                let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(k), c_lo);
                let hi32 = _mm256_blend_epi32::<0xAA>(_mm256_srli_epi64::<32>(even), odd);
                let fold =
                    _mm256_xor_si256(lo, _mm256_add_epi32(hi32, _mm256_mullo_epi32(k, c_hi)));
                _mm256_and_si256(fold, m)
            }
        }
    }

    /// Home-slot indices for 16 key lanes (AVX-512 form of
    /// [`home_idx_avx2`]).
    ///
    /// # Safety
    /// AVX-512F must be available. (Register arithmetic only.)
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn home_idx_avx512(
        hash: HashKind,
        k: __m512i,
        m: __m512i,
        c_lo: __m512i,
        c_hi: __m512i,
    ) -> __m512i {
        match hash {
            HashKind::Identity => _mm512_and_si512(k, m),
            HashKind::Multiplicative => {
                let lo = _mm512_mullo_epi32(k, c_lo);
                let even = _mm512_mul_epu32(k, c_lo);
                let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(k), c_lo);
                let hi32 = _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64::<32>(even), odd);
                let fold =
                    _mm512_xor_si512(lo, _mm512_add_epi32(hi32, _mm512_mullo_epi32(k, c_hi)));
                _mm512_and_si512(fold, m)
            }
        }
    }

    /// [`super::probe_home_hits`], 8 keys per vector group.
    ///
    /// # Safety
    /// AVX2 must be available, `mask < 2^31`, `table_keys.len() == mask +
    /// 1` (every lane gathers `table_keys[hash & mask]`, a non-negative
    /// `i32` offset inside the table) and `slots.len() == keys.len()` (a
    /// full group loads `keys[i..i + 8]` and stores `slots[i..i + 8]` for
    /// `i + 8 <= keys.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn probe_avx2(
        hash: HashKind,
        table_keys: &[u32],
        mask: usize,
        keys: &[u32],
        slots: &mut [u32],
    ) -> usize {
        debug_assert!(mask < 1 << 31 && table_keys.len() == mask + 1);
        debug_assert_eq!(slots.len(), keys.len());
        let n = keys.len();
        let tbl = table_keys.as_ptr() as *const i32;
        let m = _mm256_set1_epi32(mask as i32);
        let ones = _mm256_set1_epi32(-1);
        let c_lo = _mm256_set1_epi32(C_LO);
        let c_hi = _mm256_set1_epi32(C_HI);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == keys.len()`.
            let k = unsafe { _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i) };
            let idx = home_idx_avx2(hash, k, m, c_lo, c_hi);
            // SAFETY: every lane of `idx` is `hash & mask`, an offset
            // inside the `mask + 1`-slot table (and `< 2^31`).
            let resident = unsafe { _mm256_i32gather_epi32::<4>(tbl, idx) };
            let hit = _mm256_cmpeq_epi32(resident, k);
            // Hit lanes keep their home slot; miss lanes become MISS
            // (all-ones) by OR-ing the complemented hit mask in.
            let res = _mm256_or_si256(idx, _mm256_xor_si256(hit, ones));
            // SAFETY: `i + 8 <= n == slots.len()`.
            unsafe { _mm256_storeu_si256(slots.as_mut_ptr().add(i) as *mut __m256i, res) };
            let hm = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32;
            misses += 8 - hm.count_ones() as usize;
            i += 8;
        }
        while i < n {
            slots[i] = classify_scalar(hash, table_keys, mask, keys[i]);
            misses += (slots[i] == MISS) as usize;
            i += 1;
        }
        misses
    }

    /// [`super::probe_home_hits`], 16 keys per vector group.
    ///
    /// # Safety
    /// As [`probe_avx2`], with AVX-512F and groups of 16.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn probe_avx512(
        hash: HashKind,
        table_keys: &[u32],
        mask: usize,
        keys: &[u32],
        slots: &mut [u32],
    ) -> usize {
        debug_assert!(mask < 1 << 31 && table_keys.len() == mask + 1);
        debug_assert_eq!(slots.len(), keys.len());
        let n = keys.len();
        let tbl = table_keys.as_ptr() as *const i32;
        let m = _mm512_set1_epi32(mask as i32);
        let miss = _mm512_set1_epi32(MISS as i32);
        let c_lo = _mm512_set1_epi32(C_LO);
        let c_hi = _mm512_set1_epi32(C_HI);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n == keys.len()`.
            let k = unsafe { _mm512_loadu_si512(keys.as_ptr().add(i) as *const __m512i) };
            let idx = home_idx_avx512(hash, k, m, c_lo, c_hi);
            // SAFETY: every lane of `idx` is `hash & mask`, inside the
            // table.
            let resident = unsafe { _mm512_i32gather_epi32::<4>(idx, tbl) };
            let hit = _mm512_cmpeq_epi32_mask(resident, k);
            let res = _mm512_mask_blend_epi32(hit, miss, idx);
            // SAFETY: `i + 16 <= n == slots.len()`.
            unsafe { _mm512_storeu_si512(slots.as_mut_ptr().add(i) as *mut __m512i, res) };
            misses += 16 - hit.count_ones() as usize;
            i += 16;
        }
        while i < n {
            slots[i] = classify_scalar(hash, table_keys, mask, keys[i]);
            misses += (slots[i] == MISS) as usize;
            i += 1;
        }
        misses
    }

    /// [`super::probe_home_gids`], 8 keys per vector group.
    ///
    /// # Safety
    /// As [`probe_avx2`] with `out` for `slots`, and `gid_states.len() ==
    /// mask + 1` (the second gather reads `gid_states[hash & mask]`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gids_avx2(
        hash: HashKind,
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
        let c_lo = _mm256_set1_epi32(C_LO);
        let c_hi = _mm256_set1_epi32(C_HI);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == keys.len()`.
            let k = unsafe { _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i) };
            let idx = home_idx_avx2(hash, k, m, c_lo, c_hi);
            // SAFETY: every lane of `idx` is `hash & mask`, inside the
            // table.
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
            out[i] = classify_gid_scalar(hash, table_keys, gid_states, mask, keys[i]);
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
        hash: HashKind,
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
        let c_lo = _mm512_set1_epi32(C_LO);
        let c_hi = _mm512_set1_epi32(C_HI);
        let mut misses = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n == keys.len()`.
            let k = unsafe { _mm512_loadu_si512(keys.as_ptr().add(i) as *const __m512i) };
            let idx = home_idx_avx512(hash, k, m, c_lo, c_hi);
            // SAFETY: every lane of `idx` is `hash & mask`, inside both
            // the table and the gid states.
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
            out[i] = classify_gid_scalar(hash, table_keys, gid_states, mask, keys[i]);
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

    /// A fake table: `slots` entries, a mix of resident keys at their home
    /// position, displaced keys, and empties; the parallel state array
    /// holds each key's insertion index as its gid.
    fn build_table(hash: HashKind, slots: usize, resident: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mask = slots - 1;
        let mut keys = vec![u32::MAX; slots];
        let mut gids = vec![u32::MAX; slots];
        for (g, &k) in resident.iter().enumerate() {
            let mut i = hash.hash(k) as usize & mask;
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
    fn check_kernels(hash: HashKind, slots: usize, resident: &[u32], probes: &[u32], at: usize) {
        let (table, gid_states) = build_table(hash, slots, resident);
        let mask = slots - 1;
        let expected: Vec<u32> = probes
            .iter()
            .map(|&k| classify_scalar(hash, &table, mask, k))
            .collect();
        let expected_gids: Vec<u32> = probes
            .iter()
            .map(|&k| classify_gid_scalar(hash, &table, &gid_states, mask, k))
            .collect();
        let expected_misses = expected.iter().filter(|&&s| s == MISS).count();
        let n = probes.len();
        let check = |kernel: &str, want: &[u32], run: &dyn Fn(&mut [u32]) -> usize| {
            const GUARD: u32 = 0xDEAD_BEEF;
            let mut buf = vec![GUARD; at + n + 16];
            let misses = run(&mut buf[at..at + n]);
            let what = format!("{kernel} {hash:?} slots={slots} n={n} at={at}");
            assert_eq!(&buf[at..at + n], want, "{what}");
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
            check("avx2", &expected, &|out| unsafe {
                x86::probe_avx2(hash, &table, mask, probes, out)
            });
            // SAFETY: see above.
            check("gids avx2", &expected_gids, &|out| unsafe {
                x86::gids_avx2(hash, &table, &gid_states, mask, probes, out)
            });
        }
        if cpu::avx512_supported() {
            // SAFETY: see above.
            check("avx512", &expected, &|out| unsafe {
                x86::probe_avx512(hash, &table, mask, probes, out)
            });
            // SAFETY: see above.
            check("gids avx512", &expected_gids, &|out| unsafe {
                x86::gids_avx512(hash, &table, &gid_states, mask, probes, out)
            });
        }
    }

    #[test]
    fn kernels_match_scalar_classification() {
        for hash in [HashKind::Identity, HashKind::Multiplicative] {
            // Dense keys: all-hit after residence, plus collision chains
            // (key + slots aliases under identity hashing).
            let resident: Vec<u32> = (0..96u32).chain((0..8).map(|k| k + 128)).collect();
            let probes: Vec<u32> = (0..200u32)
                .map(|i| (i * 7) % 160)
                .chain([0, 95, 96, 128, 135, 136, 1 << 20])
                .collect();
            check_kernels(hash, 128, &resident, &probes, 0);

            // Sparse keys through a small table: long chains, many misses.
            let resident: Vec<u32> = (0..40u32).map(|i| i * 1000 + 7).collect();
            let probes: Vec<u32> = (0..133u32).map(|i| (i % 50) * 1000 + 7).collect();
            check_kernels(hash, 64, &resident, &probes, 0);
        }
    }

    #[test]
    fn tail_lengths_are_classified() {
        // Every vector-group/tail split around the 8- and 16-lane
        // boundaries (lengths 0..=2·16+8), for both hashes, with the probe
        // keys and the output each starting at every offset 0..16 inside
        // a larger buffer: unaligned loads and stores, and no store past
        // the output.
        let resident: Vec<u32> = (0..20u32).collect();
        let keys: Vec<u32> = (0..64u32).map(|i| i * 3 % 37).collect();
        for hash in [HashKind::Identity, HashKind::Multiplicative] {
            for offset in 0..16 {
                for n in 0..=40usize {
                    let probes = &keys[offset..offset + n];
                    check_kernels(hash, 32, &resident, probes, offset);
                }
            }
        }
    }

    #[test]
    fn folded_multiplicative_hash_matches_scalar() {
        // The 32-bit lane fold must equal the scalar 64-bit fold's low
        // bits for every mask the kernels accept.
        let mask = (1usize << 20) - 1;
        for k in (0..5_000_000u32).step_by(997) {
            let scalar = HashKind::Multiplicative.hash(k) as usize & mask;
            let lo = k.wrapping_mul(0x7F4A_7C15);
            let hi = ((k as u64 * 0x7F4A_7C15) >> 32) as u32;
            let fold = lo ^ hi.wrapping_add(k.wrapping_mul(0x9E37_79B9));
            assert_eq!(fold as usize & mask, scalar, "key {k}");
        }
    }
}

//! Explicit AVX2 kernels for selection-vector build and the buffered
//! backends' batch partition.
//!
//! The scan filter's hot loops — [`crate::expr`]'s typed range loops — are
//! branchless scalar loops that LLVM partially vectorizes. This module
//! provides hand-written AVX2 versions that process 8 candidate rows per
//! iteration, for the loops a benchmark workload runs:
//!
//! * **fill** over an `i32` column: test 8 contiguous column values
//!   against the conjunct's closed interval `[lo, hi]` (two `vpcmpgtd` —
//!   every fast conjunct is one interval, see [`crate::expr::Interval`]),
//!   collapse the lane masks to an 8-bit scalar mask (`vmovmskps`), then
//!   append the matching row ids in one shot via a 256-entry permutation
//!   LUT and `vpermd` (left-pack) + unconditional 8-lane store. Every
//!   query's first conjunct is the `i32` ship date: `q1_lowcard`,
//!   `q6_scan`, `service_mix`, and the plain copy `encoded_mix` checks;
//! * **refine** over an `f64` column: same, but the 8 candidate rows come
//!   from the existing selection vector, so column values are fetched with
//!   `vgatherdpd` and the *selection entries themselves* are left-packed.
//!   Q6's discount and quantity conjuncts: `q6_scan`, `service_mix`,
//!   the plain copy `encoded_mix` checks;
//! * **code-set fills**: dictionary codes test membership in a keep-set
//!   instead of comparing — `u8` codes gather a 0 / -1 entry per code
//!   (`encoded_mix`'s `Dict` discount), `u16` codes gather the 32-bit
//!   word of a 65 536-bit set and shift their bit into the lane's sign
//!   (the traced `engine.column.dict_unsorted_{q1,q6}` probes);
//! * **partition_by_group**: the batch partition of the buffered SUM
//!   backends for few groups — per group, a fill over the batch's group
//!   ids (`vpcmpeqd`) whose kept row indices append to one permutation
//!   (`q1_lowcard`, `service_mix`, `encoded_mix`).
//!
//! The rule: a kernel stays while a benchmark workload, or a traced probe
//! of one, runs it, or it is the AVX2 flavour of a kernel with an
//! AVX-512 twin — the only SIMD for that path on AVX2-only hosts. The
//! `f64` fill, the `i32` refine and the general predicate program's mask
//! compaction reach no workload (EXPERIMENTS.md, "Reachability of the
//! selection kernels"), so they have no kernel: the scalar loops in
//! `expr.rs` serve them, as they serve every path under
//! `RFA_SIMD=scalar`.
//!
//! Every kernel is bit-exact with its scalar counterpart in `expr.rs`:
//! the interval test is two ordered-quiet compares (`false` on NaN, as
//! Rust's `>=` / `<=` are), and compaction preserves row order.
//!
//! ## AVX-512
//!
//! Three kernels additionally have an `avx512f` variant processing **16**
//! rows per iteration, each kept because it measured ahead of its AVX2
//! flavour end to end (EXPERIMENTS.md): the `i32` range fill (two
//! `vpcmpd`-to-mask), the `f64` range refine (two 8-lane `vgatherdpd`,
//! `vcmppd`-to-mask) and the `u8` code-set fill (`vpmovzxbd zmm`,
//! `vpgatherdd zmm` over the same 256-entry LUT, `vptestmd`). All three
//! left-pack with the native `vpcompressd` instead of a permutation LUT
//! and store all 16 lanes unconditionally. Kernels without an AVX-512
//! variant keep their AVX2 flavour when [`cpu::active`] reports
//! [`SimdLevel::Avx512`] (every `avx512f` CPU supports AVX2).
//!
//! ## Safety boundary
//!
//! All kernels are `#[target_feature(enable = "avx2")]` (or `"avx512f"`)
//! and are reached only through the `pub(crate)` wrappers, which check
//! [`cpu::active`] — the cached CPUID probe (overridable via `RFA_SIMD`) —
//! and return `false` so the caller falls back to the scalar loop when no
//! explicit kernel is in effect. What the kernels' raw loads rely on is
//! checked, not assumed, so no argument safe code can pass reads out of
//! bounds: the wrappers `assert!` that a fill window lies inside the
//! column (each fill kernel restates that under `# Safety` and
//! `debug_assert!`s it), and the refine kernels test every group of ids
//! against the column's length before gathering it. The unconditional
//! 8-lane (16-lane) stores never write out of bounds: the output cursor
//! `k` trails the input cursor `i` (at most one id is kept per row seen),
//! so `k + 8 <= i + 8 <= len` whenever a full group is stored — same
//! argument with 16 for the AVX-512 kernels; partial tails run scalar.

#![cfg(target_arch = "x86_64")]

use crate::expr::u16_in_set;
use core::arch::x86_64::*;
use rfa_core::cpu::{self, SimdLevel};

/// Are the explicit AVX2 kernels in effect for this process (hardware +
/// policy)? True at the AVX-512 level too: kernels without an AVX-512
/// variant run their AVX2 flavour there.
#[inline]
pub(crate) fn enabled() -> bool {
    matches!(cpu::active(), SimdLevel::Avx2 | SimdLevel::Avx512)
}

/// `lut[m]` holds the lane indices whose bit is set in `m`, left-packed;
/// slack lanes replicate index 0 (their stores land in the overwrite
/// region past the kept prefix and are never read).
static COMPACT_LUT: [[u32; 8]; 256] = build_compact_lut();

const fn build_compact_lut() -> [[u32; 8]; 256] {
    let mut lut = [[0u32; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let mut k = 0;
        let mut b = 0;
        while b < 8 {
            if m & (1 << b) != 0 {
                lut[m][k] = b as u32;
                k += 1;
            }
            b += 1;
        }
        m += 1;
    }
    lut
}

/// Left-packs the lanes of `ids` selected by `mask` to `dst[..popcount]`
/// and returns the number of lanes kept.
///
/// # Safety
/// `dst` must be valid for an 8-lane (32-byte) write — all 8 lanes are
/// stored — and `mask < 256`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn compact_store(dst: *mut u32, ids: __m256i, mask: u32) -> usize {
    let perm = _mm256_loadu_si256(COMPACT_LUT[mask as usize].as_ptr() as *const __m256i);
    _mm256_storeu_si256(dst as *mut __m256i, _mm256_permutevar8x32_epi32(ids, perm));
    mask.count_ones() as usize
}

/// 4-bit mask of the f64 lanes inside the closed interval
/// (`lo <= v && v <= hi`; NaN fails both ordered compares, matching the
/// scalar `&`).
#[inline]
#[target_feature(enable = "avx2")]
fn mask4_f64_range(vals: __m256d, lo: __m256d, hi: __m256d) -> u32 {
    let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(vals, lo);
    let le = _mm256_cmp_pd::<_CMP_LE_OQ>(vals, hi);
    _mm256_movemask_pd(_mm256_and_pd(ge, le)) as u32
}

/// 8-bit mask of the i32 lanes inside the closed interval. AVX2 only has
/// signed `cmpgt`: `lo <= v && v <= hi` is `!(lo > v || v > hi)`, the
/// complement taken on the scalar mask.
#[inline]
#[target_feature(enable = "avx2")]
fn mask8_i32_range(vals: __m256i, lo: __m256i, hi: __m256i) -> u32 {
    let outside = _mm256_or_si256(_mm256_cmpgt_epi32(lo, vals), _mm256_cmpgt_epi32(vals, hi));
    !(_mm256_movemask_ps(_mm256_castsi256_ps(outside)) as u32) & 0xFF
}

/// The row count of a column as the broadcast limit [`check_ids`] tests
/// ids against. Clamped to `2^31`: gather offsets are signed 32-bit
/// lanes, so no id at or past it may reach one.
#[inline]
#[target_feature(enable = "avx2")]
fn id_limit(len: usize) -> __m256i {
    _mm256_set1_epi32(len.min(1 << 31) as u32 as i32)
}

/// Panics unless every lane of `ids` is below `limit` (unsigned) — the
/// gathers' bounds check, 8 ids at a time: `max(id, limit) == id` exactly
/// when `id >= limit`.
#[inline]
#[target_feature(enable = "avx2")]
fn check_ids(ids: __m256i, limit: __m256i) {
    let over = _mm256_cmpeq_epi32(_mm256_max_epu32(ids, limit), ids);
    assert!(
        _mm256_testz_si256(over, over) == 1,
        "row id outside the column"
    );
}

/// Shared skeleton of the `fill_*` kernels: `mask8(row)` produces the
/// 8-bit keep mask for rows `[row, row + 8)`; `keep` tests one row for the
/// scalar tail.
///
/// # Safety
/// AVX2 must be available, `lo <= hi`, and `mask8(row)` must be sound for
/// every `row` with `lo <= row` and `row + 8 <= hi` (it is called for no
/// other). Store bounds: `sel` holds `hi - lo` slots; the group at input
/// offset `i` stores 8 lanes at `k <= i`, so it ends at `k + 8 <= i + 8
/// <= hi - lo`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fill_groups(
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
    mut mask8: impl FnMut(usize) -> u32,
    keep: impl Fn(usize) -> bool,
) {
    debug_assert!(lo <= hi);
    let n = hi - lo;
    sel.clear();
    sel.resize(n, 0);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let eight = _mm256_set1_epi32(8);
    let mut ids = _mm256_add_epi32(_mm256_set1_epi32(lo as i32), iota);
    let dst = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 8 <= n {
        debug_assert!(k <= i);
        k += compact_store(dst.add(k), ids, mask8(lo + i));
        ids = _mm256_add_epi32(ids, eight);
        i += 8;
    }
    while i < n {
        debug_assert!(k <= i);
        let row = lo + i;
        *dst.add(k) = row as u32;
        k += keep(row) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// Range fill over an `i32` column: rows of `[lo, hi)` whose value lies in
/// `[blo, bhi]`.
///
/// # Safety
/// AVX2 must be available and `lo <= hi <= col.len()`.
#[target_feature(enable = "avx2")]
unsafe fn fill_i32_range_avx2(
    col: &[i32],
    blo: i32,
    bhi: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    debug_assert!(lo <= hi && hi <= col.len());
    let (vlo, vhi) = (_mm256_set1_epi32(blo), _mm256_set1_epi32(bhi));
    let base = col.as_ptr();
    fill_groups(
        lo,
        hi,
        sel,
        // SAFETY: `fill_groups` passes rows with `row + 8 <= hi <=
        // col.len()`, so the 8-lane load stays inside the column.
        |row| unsafe {
            let v = _mm256_loadu_si256(base.add(row) as *const __m256i);
            mask8_i32_range(v, vlo, vhi)
        },
        |row| (col[row] >= blo) & (col[row] <= bhi),
    );
}

/// Range refine over an `f64` column: keeps the ids of `sel` whose value
/// lies in `[blo, bhi]`, 8 ids per iteration (two 4-lane `vgatherdpd`),
/// left-packed in place. An id that is not a row of `col` panics, as the
/// scalar loop's index would.
///
/// # Safety
/// AVX2 must be available. (The gathers need ids `< col.len()`: checked
/// per group, before the group is gathered.) Store bounds: a group is read
/// before its packed store at `k <= i`, so the store ends at `k + 8 <=
/// sel.len()`.
#[target_feature(enable = "avx2")]
unsafe fn refine_f64_range_avx2(col: &[f64], blo: f64, bhi: f64, sel: &mut Vec<u32>) {
    let (vlo, vhi) = (_mm256_set1_pd(blo), _mm256_set1_pd(bhi));
    let limit = id_limit(col.len());
    let base = col.as_ptr();
    let n = sel.len();
    let p = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 8 <= n {
        debug_assert!(k <= i);
        let ids = _mm256_loadu_si256(p.add(i) as *const __m256i);
        check_ids(ids, limit);
        let v0 = _mm256_i32gather_pd::<8>(base, _mm256_castsi256_si128(ids));
        let v1 = _mm256_i32gather_pd::<8>(base, _mm256_extracti128_si256::<1>(ids));
        let mask = mask4_f64_range(v0, vlo, vhi) | (mask4_f64_range(v1, vlo, vhi) << 4);
        k += compact_store(p.add(k), ids, mask);
        i += 8;
    }
    while i < n {
        debug_assert!(k <= i);
        let id = *p.add(i);
        *p.add(k) = id;
        let v = col[id as usize];
        k += ((v >= blo) & (v <= bhi)) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// Dictionary-code membership fill: 8 u8 codes widen to i32 lanes
/// (`vpmovzxbd`), gather their 0 / -1 entries from the 256-entry
/// membership LUT (`vpgatherdd`; indices are bytes, so every gather is
/// in bounds), and the lane sign bits collapse to the keep mask.
///
/// # Safety
/// AVX2 must be available and `lo <= hi <= codes.len()` (the vector
/// groups load `codes[row..row + 8]` unchecked).
#[target_feature(enable = "avx2")]
unsafe fn fill_u8_in_set_avx2(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    debug_assert!(lo <= hi && hi <= codes.len());
    let base = codes.as_ptr();
    let lut = keep.as_ptr();
    fill_groups(
        lo,
        hi,
        sel,
        // SAFETY: `row + 8 <= hi <= codes.len()` keeps the 8-byte code
        // load in bounds; the gather indices are bytes, `< 256 =
        // keep.len()`.
        |row| unsafe {
            let bytes = _mm_loadl_epi64(base.add(row) as *const __m128i);
            let idx = _mm256_cvtepu8_epi32(bytes);
            let hit = _mm256_i32gather_epi32::<4>(lut, idx);
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32
        },
        |row| keep[codes[row] as usize] != 0,
    );
}

/// Wide-dictionary membership fill: 8 u16 codes widen to i32 lanes
/// (`vpmovzxwd`), each gathers the 32-bit word `keep[c >> 5]` of the
/// 65 536-bit set (`vpgatherdd`; `c >> 5 < 2048`, so every gather is in
/// bounds), and a per-lane left shift by `31 - (c & 31)` (`vpsllvd`) puts
/// the code's bit into the lane's sign for `vmovmskps`.
///
/// # Safety
/// AVX2 must be available and `lo <= hi <= codes.len()` (the vector
/// groups load `codes[row..row + 8]` unchecked).
#[target_feature(enable = "avx2")]
unsafe fn fill_u16_in_set_avx2(
    codes: &[u16],
    keep: &[u32; 2048],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    debug_assert!(lo <= hi && hi <= codes.len());
    let base = codes.as_ptr();
    let words = keep.as_ptr() as *const i32;
    let low5 = _mm256_set1_epi32(31);
    fill_groups(
        lo,
        hi,
        sel,
        // SAFETY: `row + 8 <= hi <= codes.len()` keeps the 16-byte code
        // load in bounds; the gather indices are `c >> 5 <= 2047 <
        // keep.len()` for every u16 `c`.
        |row| unsafe {
            let c = _mm256_cvtepu16_epi32(_mm_loadu_si128(base.add(row) as *const __m128i));
            let word = _mm256_i32gather_epi32::<4>(words, _mm256_srli_epi32::<5>(c));
            // `!c & 31 == 31 - (c & 31)`.
            let hit = _mm256_sllv_epi32(word, _mm256_andnot_si256(c, low5));
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32
        },
        |row| u16_in_set(keep, codes[row]),
    );
}

/// AVX-512 skeleton of the `fill_*` kernels: 16 rows per iteration,
/// `mask16(row)` the keep mask of rows `[row, row + 16)`, left-packed by
/// the native `vpcompressd` instead of a permutation LUT. All 16 lanes
/// store unconditionally; partial tails run scalar.
///
/// # Safety
/// `avx512f` must be available, `lo <= hi`, and `mask16(row)` must be
/// sound for every `row` with `lo <= row` and `row + 16 <= hi`. Store
/// bounds as in [`fill_groups`]: `k <= i`, so `k + 16 <= hi - lo`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fill_groups_avx512(
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
    mut mask16: impl FnMut(usize) -> __mmask16,
    keep: impl Fn(usize) -> bool,
) {
    debug_assert!(lo <= hi);
    let n = hi - lo;
    sel.clear();
    sel.resize(n, 0);
    let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let sixteen = _mm512_set1_epi32(16);
    let mut ids = _mm512_add_epi32(_mm512_set1_epi32(lo as i32), iota);
    let dst = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 16 <= n {
        debug_assert!(k <= i);
        let mask = mask16(lo + i);
        let packed = _mm512_maskz_compress_epi32(mask, ids);
        _mm512_storeu_si512(dst.add(k) as *mut __m512i, packed);
        k += mask.count_ones() as usize;
        ids = _mm512_add_epi32(ids, sixteen);
        i += 16;
    }
    while i < n {
        debug_assert!(k <= i);
        let row = lo + i;
        *dst.add(k) = row as u32;
        k += keep(row) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// AVX-512 dictionary-code membership fill. The widen / gather steps
/// mirror [`fill_u8_in_set_avx2`] at twice the width, and the keep mask
/// comes straight from `vptestmd` (keep entries are `-1`, so "lane
/// non-zero" is exactly membership).
///
/// # Safety
/// `avx512f` must be available and `lo <= hi <= codes.len()` (the vector
/// groups load `codes[row..row + 16]` unchecked).
#[target_feature(enable = "avx512f")]
unsafe fn fill_u8_in_set_avx512(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    debug_assert!(lo <= hi && hi <= codes.len());
    let base = codes.as_ptr();
    let lut = keep.as_ptr();
    fill_groups_avx512(
        lo,
        hi,
        sel,
        // SAFETY: `row + 16 <= hi <= codes.len()` keeps the 16-byte code
        // load in bounds; the gather indices are bytes, `< 256 =
        // keep.len()`.
        |row| unsafe {
            let bytes = _mm_loadu_si128(base.add(row) as *const __m128i);
            let hit = _mm512_i32gather_epi32::<4>(_mm512_cvtepu8_epi32(bytes), lut);
            _mm512_test_epi32_mask(hit, hit)
        },
        |row| keep[codes[row] as usize] != 0,
    );
}

/// AVX-512 range fill over an `i32` column: two `vpcmpd`-to-mask per 16
/// rows.
///
/// # Safety
/// `avx512f` must be available and `lo <= hi <= col.len()` (the vector
/// groups load `col[row..row + 16]` unchecked).
#[target_feature(enable = "avx512f")]
unsafe fn fill_i32_range_avx512(
    col: &[i32],
    blo: i32,
    bhi: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    debug_assert!(lo <= hi && hi <= col.len());
    let (vlo, vhi) = (_mm512_set1_epi32(blo), _mm512_set1_epi32(bhi));
    let base = col.as_ptr();
    fill_groups_avx512(
        lo,
        hi,
        sel,
        // SAFETY: `row + 16 <= hi <= col.len()` keeps the 16-lane load
        // inside the column.
        |row| unsafe {
            let v = _mm512_loadu_si512(base.add(row) as *const __m512i);
            _mm512_mask_cmple_epi32_mask(_mm512_cmpge_epi32_mask(v, vlo), v, vhi)
        },
        |row| (col[row] >= blo) & (col[row] <= bhi),
    );
}

/// AVX-512 range refine over an `f64` column: 16 ids per iteration, two
/// 8-lane `vgatherdpd`, `vcmppd`-to-mask, `vpcompressd`. An id that is
/// not a row of `col` panics.
///
/// # Safety
/// `avx512f` must be available. (Ids are checked per group — `vpcmpud`
/// against the column's length, clamped as in [`id_limit`] — before the
/// group is gathered.) Store bounds as in [`refine_f64_range_avx2`]: `k <=
/// i`.
#[target_feature(enable = "avx512f")]
unsafe fn refine_f64_range_avx512(col: &[f64], blo: f64, bhi: f64, sel: &mut Vec<u32>) {
    let (vlo, vhi) = (_mm512_set1_pd(blo), _mm512_set1_pd(bhi));
    let limit = _mm512_set1_epi32(col.len().min(1 << 31) as u32 as i32);
    let base = col.as_ptr();
    let n = sel.len();
    let p = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 16 <= n {
        debug_assert!(k <= i);
        let ids = _mm512_loadu_si512(p.add(i) as *const __m512i);
        assert!(
            _mm512_cmpge_epu32_mask(ids, limit) == 0,
            "row id outside the column"
        );
        let v0 = _mm512_i32gather_pd::<8>(_mm512_castsi512_si256(ids), base);
        let v1 = _mm512_i32gather_pd::<8>(_mm512_extracti64x4_epi64::<1>(ids), base);
        let m0 = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v0, vlo);
        let m1 = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v1, vlo);
        let m0 = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(m0, v0, vhi);
        let m1 = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(m1, v1, vhi);
        let mask = m0 as __mmask16 | ((m1 as __mmask16) << 8);
        let packed = _mm512_maskz_compress_epi32(mask, ids);
        _mm512_storeu_si512(p.add(k) as *mut __m512i, packed);
        k += mask.count_ones() as usize;
        i += 16;
    }
    while i < n {
        debug_assert!(k <= i);
        let id = *p.add(i);
        *p.add(k) = id;
        let v = col[id as usize];
        k += ((v >= blo) & (v <= bhi)) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// Stable partition of a batch's row indices `0..gids.len()` by group id,
/// for *few* groups: one pass over `gids` per group, each left-packing the
/// indices of its matching rows onto the end of `perm` (`vpcmpeqd` →
/// `vmovmskps` → LUT `vpermd` → 8-lane store, as in [`fill_groups`]).
/// `segs` receives `(group, end)` for every non-empty group. Indices
/// ascend inside each group, so the partition is stable.
///
/// Store bounds: every row index is written for at most one group, so the
/// write cursor `k` never exceeds `gids.len()`, and `perm` carries eight
/// slack slots for the unconditional 8-lane store until it is truncated.
///
/// `popcnt` is enabled on top of AVX2 because the loop advances `k` by a
/// population count per vector; without it the count is a dozen ALU ops
/// on the kernel's critical path.
///
/// # Safety
/// AVX2 and POPCNT must be available.
#[target_feature(enable = "avx2,popcnt")]
unsafe fn partition_by_group_avx2(
    gids: &[u32],
    groups: usize,
    perm: &mut Vec<u32>,
    segs: &mut Vec<(u32, usize)>,
) {
    let n = gids.len();
    perm.resize(n + 8, 0);
    segs.clear();
    let src = gids.as_ptr();
    let dst = perm.as_mut_ptr();
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let eight = _mm256_set1_epi32(8);
    let mut k = 0usize;
    for g in 0..groups as u32 {
        let start = k;
        let vg = _mm256_set1_epi32(g as i32);
        let mut ids = iota;
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_si256(src.add(i) as *const __m256i);
            let hit = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vg))) as u32;
            k += compact_store(dst.add(k), ids, hit);
            ids = _mm256_add_epi32(ids, eight);
            i += 8;
        }
        while i < n {
            *dst.add(k) = i as u32;
            k += (gids[i] == g) as usize;
            i += 1;
        }
        if k > start {
            segs.push((g, k));
        }
    }
    assert_eq!(k, n, "group id out of range");
    perm.truncate(n);
}

// ---- pub(crate) dispatch wrappers -------------------------------------
//
// Each returns `true` if an explicit kernel handled the batch; `false`
// means "not in effect, run the scalar loop". Callers in `expr.rs` keep
// their scalar code as the sole fallback, so `RFA_SIMD=scalar` exercises
// it. The `assert!`s are the kernels' bounds preconditions: a window or an
// id outside the column panics here, as the scalar loop's index would.

/// The fill kernels' bounds precondition, as a panic.
#[inline]
fn check_window(lo: usize, hi: usize, len: usize) {
    assert!(lo <= hi && hi <= len, "fill window outside the column");
}

pub(crate) fn fill_i32_range(
    col: &[i32],
    blo: i32,
    bhi: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    let level = cpu::active();
    if level == SimdLevel::Scalar {
        return false;
    }
    check_window(lo, hi, col.len());
    match level {
        // SAFETY: `cpu::active()` reports AVX-512F only when the CPU has
        // it; the window was checked above.
        SimdLevel::Avx512 => unsafe { fill_i32_range_avx512(col, blo, bhi, lo, hi, sel) },
        // SAFETY: the remaining level is AVX2, verified by
        // `cpu::active()`; the window was checked above.
        _ => unsafe { fill_i32_range_avx2(col, blo, bhi, lo, hi, sel) },
    }
    true
}

pub(crate) fn refine_f64_range(col: &[f64], blo: f64, bhi: f64, sel: &mut Vec<u32>) -> bool {
    let level = cpu::active();
    if level == SimdLevel::Scalar {
        return false;
    }
    match level {
        // SAFETY: `cpu::active()` reports AVX-512F only when the CPU has it.
        SimdLevel::Avx512 => unsafe { refine_f64_range_avx512(col, blo, bhi, sel) },
        // SAFETY: the remaining level is AVX2, verified by `cpu::active()`.
        _ => unsafe { refine_f64_range_avx2(col, blo, bhi, sel) },
    }
    true
}

pub(crate) fn fill_u8_in_set(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    let level = cpu::active();
    if level == SimdLevel::Scalar {
        return false;
    }
    check_window(lo, hi, codes.len());
    match level {
        // SAFETY: `cpu::active()` reports AVX-512F only when the CPU has
        // it; the window was checked above.
        SimdLevel::Avx512 => unsafe { fill_u8_in_set_avx512(codes, keep, lo, hi, sel) },
        // SAFETY: the remaining level is AVX2, verified by
        // `cpu::active()`; the window was checked above.
        _ => unsafe { fill_u8_in_set_avx2(codes, keep, lo, hi, sel) },
    }
    true
}

pub(crate) fn fill_u16_in_set(
    codes: &[u16],
    keep: &[u32; 2048],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    if !enabled() {
        return false;
    }
    check_window(lo, hi, codes.len());
    // SAFETY: `enabled()` verified AVX2; the window was checked above.
    unsafe { fill_u16_in_set_avx2(codes, keep, lo, hi, sel) };
    true
}

/// Most group slots [`partition_by_group`] takes: its cost grows with the
/// group count (one pass each, ≈ 0.13 ns per row and group), and past
/// this it no longer beats the flat ≈ 2 ns per row of the scalar counting
/// sort it stands in for.
pub(crate) const PARTITION_MAX_GROUPS: usize = 16;

pub(crate) fn partition_by_group(
    gids: &[u32],
    groups: usize,
    perm: &mut Vec<u32>,
    segs: &mut Vec<(u32, usize)>,
) -> bool {
    if groups > PARTITION_MAX_GROUPS || !enabled() || !is_x86_feature_detected!("popcnt") {
        return false;
    }
    // SAFETY: `enabled()` verified AVX2 support, the line above POPCNT.
    unsafe { partition_by_group_avx2(gids, groups, perm, segs) };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfa_core::cpu;

    /// Closed intervals under test: two-sided, both one-sided forms (how
    /// `<` / `>=` bind), a point, everything, nothing.
    const F64_RANGES: [(f64, f64); 6] = [
        (-0.5, 0.5),
        (f64::NEG_INFINITY, 0.05),
        (0.05, f64::INFINITY),
        (0.05, 0.05),
        (f64::NEG_INFINITY, f64::INFINITY),
        (f64::INFINITY, f64::NEG_INFINITY),
    ];
    const I32_RANGES: [(i32, i32); 6] = [
        (-100, 900),
        (i32::MIN, 17),
        (17, i32::MAX),
        (17, 17),
        (i32::MIN, i32::MAX),
        (1, 0),
    ];

    fn f64_col(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 13 {
                0 => f64::NAN,
                1 => 0.05,
                2 => -0.0,
                3 => 0.0,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                _ => ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12) as f64 / 1e15 - 2.0,
            })
            .collect()
    }

    fn i32_col(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| match i % 11 {
                0 => 17,
                1 => i32::MIN,
                2 => i32::MAX,
                _ => ((i as u32).wrapping_mul(2_654_435_761) >> 16) as i32 - 30_000,
            })
            .collect()
    }

    fn u16_set(members: impl Iterator<Item = u16>) -> Box<[u32; 2048]> {
        let mut keep = Box::new([0u32; 2048]);
        for c in members {
            keep[(c >> 5) as usize] |= 1 << (c & 31);
        }
        keep
    }

    /// Every fill window the bounds audit asks for — lengths `0 ..= 2 ·
    /// lanes + 1` at every start offset `0..lanes` — plus long ones, with
    /// the column ending exactly at the window's end (so a group load one
    /// lane too far would leave the allocation).
    fn windows(lanes: usize) -> Vec<(usize, usize)> {
        let mut w: Vec<(usize, usize)> = (0..lanes)
            .flat_map(|lo| (0..=2 * lanes + 1).map(move |n| (lo, lo + n)))
            .collect();
        w.extend([(0, 1003), (5, 1000), (3, 515)]);
        w
    }

    /// Candidate vectors for the refine kernels: lengths `0 ..= 2 · lanes
    /// + 1` starting at every offset `0..lanes`, strided (non-contiguous
    /// ids), plus long ones; `len` is the column length they index.
    fn candidates(lanes: usize, len: usize) -> Vec<Vec<u32>> {
        let mut c: Vec<Vec<u32>> = Vec::new();
        for lo in 0..lanes as u32 {
            for n in 0..=2 * lanes + 1 {
                c.push((lo..).step_by(3).take(n).collect());
            }
        }
        c.push((0..len as u32).collect());
        c.push((0..len as u32).step_by(3).collect());
        c.push(vec![len as u32 - 1]);
        c
    }

    fn scalar_fill(lo: usize, hi: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        (lo..hi).filter(|&r| keep(r)).map(|r| r as u32).collect()
    }

    #[test]
    fn lut_left_packs_every_mask() {
        for (m, entries) in COMPACT_LUT.iter().enumerate() {
            let expected: Vec<u32> = (0..8)
                .filter(|b| m & (1 << b) != 0)
                .map(|b| b as u32)
                .collect();
            assert_eq!(
                &entries[..expected.len()],
                expected.as_slice(),
                "mask {m:#x}"
            );
        }
    }

    #[test]
    fn fill_kernels_match_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        for (lo, hi) in windows(8) {
            let icol = i32_col(hi);
            for (l, h) in I32_RANGES {
                let mut sel = Vec::new();
                // SAFETY: AVX2 checked above; `lo <= hi == icol.len()`.
                unsafe { fill_i32_range_avx2(&icol, l, h, lo, hi, &mut sel) };
                let expected = scalar_fill(lo, hi, |r| (icol[r] >= l) & (icol[r] <= h));
                assert_eq!(sel, expected, "i32 [{l},{h}] rows [{lo},{hi})");
            }
        }
    }

    #[test]
    fn refine_kernels_match_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        let fcol = f64_col(2000);
        for cand in candidates(8, 2000) {
            for (l, h) in F64_RANGES {
                let mut sel = cand.clone();
                // SAFETY: AVX2 checked above; every candidate id < 2000.
                unsafe { refine_f64_range_avx2(&fcol, l, h, &mut sel) };
                let expected: Vec<u32> = (cand.iter().copied())
                    .filter(|&r| (fcol[r as usize] >= l) & (fcol[r as usize] <= h))
                    .collect();
                assert_eq!(sel, expected, "f64 [{l},{h}] n={}", cand.len());
            }
        }
    }

    /// The wrappers turn an out-of-bounds window or id into a panic before
    /// any unchecked load — what makes them safe to call.
    #[test]
    fn wrappers_reject_out_of_bounds_arguments() {
        if !enabled() {
            return;
        }
        let (fcol, icol) = (f64_col(20), i32_col(20));
        let codes = [0u16; 20];
        let panics = |f: &mut dyn FnMut()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        assert!(panics(&mut || {
            fill_i32_range(&icol, 0, 1, 9, 8, &mut Vec::new());
        }));
        assert!(panics(&mut || {
            fill_u16_in_set(&codes, &u16_set(0..1), 0, 28, &mut Vec::new());
        }));
        // A bad id in the scalar tail, in an 8-lane group, in a 16-lane one.
        for ids in [vec![0, 20, 3], (13..21).collect(), (5..21).collect()] {
            assert!(panics(&mut || {
                refine_f64_range(&fcol, 0.0, 1.0, &mut ids.clone());
            }));
        }
        let mut last_rows: Vec<u32> = (4..20).collect();
        refine_f64_range(&fcol, f64::NEG_INFINITY, f64::INFINITY, &mut last_rows);
        assert!(last_rows.ends_with(&[19]));
    }

    #[test]
    fn u8_in_set_fill_matches_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        let mut keep = [0i32; 256];
        for c in [0usize, 3, 7, 10, 255] {
            keep[c] = -1;
        }
        for (lo, hi) in windows(8) {
            let codes: Vec<u8> = (0..hi).map(|i| ((i * 31 + i / 5) % 11) as u8).collect();
            let mut sel = Vec::new();
            // SAFETY: AVX2 checked above; `lo <= hi == codes.len()`.
            unsafe { fill_u8_in_set_avx2(&codes, &keep, lo, hi, &mut sel) };
            let expected = scalar_fill(lo, hi, |r| keep[codes[r] as usize] != 0);
            assert_eq!(sel, expected, "[{lo},{hi})");
        }
    }

    #[test]
    fn u16_in_set_fill_matches_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        // Members at both ends of a word, of the set, and in between.
        let keep = u16_set(
            [0u16, 31, 32, 63, 1000, 40_000, 65_504, 65_535]
                .into_iter()
                .chain((300..900).step_by(7)),
        );
        for (lo, hi) in windows(8) {
            let codes: Vec<u16> = (0..hi)
                .map(|i| match i % 9 {
                    0 => 0,
                    1 => 31,
                    2 => 32,
                    3 => 65_535,
                    4 => 65_504,
                    5 => 33,
                    _ => (300 + (i * 37) % 600) as u16,
                })
                .collect();
            let mut sel = Vec::new();
            // SAFETY: AVX2 checked above; `lo <= hi == codes.len()`.
            unsafe { fill_u16_in_set_avx2(&codes, &keep, lo, hi, &mut sel) };
            let expected = scalar_fill(lo, hi, |r| u16_in_set(&keep, codes[r]));
            assert_eq!(sel, expected, "[{lo},{hi})");
            assert!(lo + 9 > hi || !sel.is_empty(), "members are present");
        }
    }

    #[test]
    fn u8_in_set_fill_avx512_matches_scalar_and_avx2() {
        if !cpu::avx512_supported() {
            return;
        }
        let mut keep = [0i32; 256];
        for c in [0usize, 3, 7, 10, 100, 200, 252, 255] {
            keep[c] = -1;
        }
        for (lo, hi) in windows(16) {
            let codes: Vec<u8> = (0..hi).map(|i| ((i * 131 + i / 7) % 253) as u8).collect();
            let mut sel = Vec::new();
            // SAFETY: AVX-512F checked above; `lo <= hi == codes.len()`.
            unsafe { fill_u8_in_set_avx512(&codes, &keep, lo, hi, &mut sel) };
            let expected = scalar_fill(lo, hi, |r| keep[codes[r] as usize] != 0);
            assert_eq!(sel, expected, "avx512 vs scalar [{lo},{hi})");

            let mut sel2 = Vec::new();
            // SAFETY: every AVX-512F CPU has AVX2; window as above.
            unsafe { fill_u8_in_set_avx2(&codes, &keep, lo, hi, &mut sel2) };
            assert_eq!(sel, sel2, "avx512 vs avx2 [{lo},{hi})");
        }
    }

    #[test]
    fn avx512_range_twins_match_scalar() {
        if !cpu::avx512_supported() {
            return;
        }
        for (lo, hi) in windows(16) {
            let icol = i32_col(hi);
            for (l, h) in I32_RANGES {
                let mut sel = Vec::new();
                // SAFETY: AVX-512F checked above; `lo <= hi == icol.len()`.
                unsafe { fill_i32_range_avx512(&icol, l, h, lo, hi, &mut sel) };
                let expected = scalar_fill(lo, hi, |r| (icol[r] >= l) & (icol[r] <= h));
                assert_eq!(sel, expected, "i32 [{l},{h}] rows [{lo},{hi})");
            }
        }
        let fcol = f64_col(2000);
        for cand in candidates(16, 2000) {
            for (l, h) in F64_RANGES {
                let mut sel = cand.clone();
                // SAFETY: AVX-512F checked above; every candidate id < 2000.
                unsafe { refine_f64_range_avx512(&fcol, l, h, &mut sel) };
                let expected: Vec<u32> = (cand.iter().copied())
                    .filter(|&r| (fcol[r as usize] >= l) & (fcol[r as usize] <= h))
                    .collect();
                assert_eq!(sel, expected, "f64 [{l},{h}] n={}", cand.len());
            }
        }
    }
}

//! Explicit AVX2 kernels for selection-vector build and compaction.
//!
//! The scan filter's hot loops — [`crate::expr`]'s typed fast paths and
//! the mask-compaction step of the general predicate program — are
//! branchless scalar loops that LLVM partially vectorizes. This module
//! provides hand-written AVX2 versions that process 8 candidate rows per
//! iteration:
//!
//! * **fill**: compare 8 contiguous column values against the constant
//!   bound(s) (`vcmppd` / `vpcmpgtd`), collapse the lane masks to an
//!   8-bit scalar mask (`vmovmskpd` / `vmovmskps`), then append the
//!   matching row ids in one shot via a 256-entry permutation LUT and
//!   `vpermd` (left-pack) + unconditional 8-lane store;
//! * **refine**: same, but the 8 candidate rows come from the existing
//!   selection vector, so column values are fetched with `vgatherdpd` /
//!   `vpgatherdd` and the *selection entries themselves* are left-packed;
//! * **compact_by_mask**: compaction by a precomputed 0/1 byte mask (the
//!   general program's output); eight mask bytes collapse to eight bits
//!   with one multiply (each partial product lands in a distinct bit, so
//!   the multiply is carry-free), then left-pack as above;
//! * **partition_by_group**: the batch partition of the buffered SUM
//!   backends for few groups — per group, a fill over the batch's group
//!   ids (`vpcmpeqd`) whose kept row indices append to one permutation.
//!
//! Every kernel is bit-exact with its scalar counterpart in `expr.rs`:
//! comparisons map to the IEEE predicates Rust's operators use
//! (ordered-quiet for everything except `!=`, which is true on NaN and
//! therefore maps to `NEQ_UQ`), and compaction preserves row order.
//!
//! ## AVX-512
//!
//! The dictionary-code membership fill additionally has an `avx512f`
//! variant processing **16** codes per iteration: widen 16 u8 codes to
//! i32 lanes (`vpmovzxbd zmm`), gather their 0 / -1 entries from the
//! same 256-entry LUT (`vpgatherdd zmm`), turn the non-zero lanes into a
//! `__mmask16` (`vptestmd`), left-pack with `vpcompressd`, and store all
//! 16 lanes unconditionally. Kernels without an AVX-512 variant keep
//! their AVX2 flavour when [`cpu::active`] reports
//! [`SimdLevel::Avx512`] (every `avx512f` CPU supports AVX2).
//!
//! ## Safety boundary
//!
//! All `unsafe fn`s here are `#[target_feature(enable = "avx2")]` (or
//! `"avx512f"`) and are reached only through the `pub(crate)` wrappers,
//! which check [`cpu::active`] — the cached CPUID probe (overridable via
//! `RFA_SIMD`) — and return `false` so the caller falls back to the
//! scalar loop when no explicit kernel is in effect. The unconditional
//! 8-lane (16-lane) stores never write out of bounds: the output cursor
//! `k` trails the input cursor `i` (at most one id is kept per row seen),
//! so `k + 8 <= i + 8 <= len` whenever a full group is stored — same
//! argument with 16 for the AVX-512 kernel; partial tails run scalar.

#![cfg(target_arch = "x86_64")]

use crate::expr::CmpOp;
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
/// (stores all 8 lanes; the caller guarantees 8 writable slots) and
/// returns the number of lanes kept.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn compact_store(dst: *mut u32, ids: __m256i, mask: u32) -> usize {
    let perm = _mm256_loadu_si256(COMPACT_LUT[mask as usize].as_ptr() as *const __m256i);
    _mm256_storeu_si256(dst as *mut __m256i, _mm256_permutevar8x32_epi32(ids, perm));
    mask.count_ones() as usize
}

/// 4-bit comparison mask for one f64 vector. The predicate immediates
/// mirror Rust's scalar operators exactly: ordered-quiet (`false` on NaN)
/// for `< <= > >= ==`, unordered for `!=` (NaN != x is `true`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mask4_f64(vals: __m256d, rhs: __m256d, op: CmpOp) -> u32 {
    (match op {
        CmpOp::Lt => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(vals, rhs)),
        CmpOp::Le => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(vals, rhs)),
        CmpOp::Gt => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(vals, rhs)),
        CmpOp::Ge => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(vals, rhs)),
        CmpOp::Eq => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(vals, rhs)),
        CmpOp::Ne => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NEQ_UQ>(vals, rhs)),
    }) as u32
}

/// 4-bit inclusive-range mask for one f64 vector (`lo <= v && v <= hi`;
/// NaN fails both ordered compares, matching the scalar `&`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mask4_f64_between(vals: __m256d, lo: __m256d, hi: __m256d) -> u32 {
    let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(vals, lo);
    let le = _mm256_cmp_pd::<_CMP_LE_OQ>(vals, hi);
    _mm256_movemask_pd(_mm256_and_pd(ge, le)) as u32
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn not_si256(x: __m256i) -> __m256i {
    _mm256_xor_si256(x, _mm256_set1_epi32(-1))
}

/// 8-bit comparison mask for one i32 vector. AVX2 only has signed
/// `cmpgt`/`cmpeq`; the other four operators are their complements.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mask8_i32(vals: __m256i, rhs: __m256i, op: CmpOp) -> u32 {
    let m = match op {
        CmpOp::Lt => _mm256_cmpgt_epi32(rhs, vals),
        CmpOp::Le => not_si256(_mm256_cmpgt_epi32(vals, rhs)),
        CmpOp::Gt => _mm256_cmpgt_epi32(vals, rhs),
        CmpOp::Ge => not_si256(_mm256_cmpgt_epi32(rhs, vals)),
        CmpOp::Eq => _mm256_cmpeq_epi32(vals, rhs),
        CmpOp::Ne => not_si256(_mm256_cmpeq_epi32(vals, rhs)),
    };
    _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
}

/// 8-bit inclusive-range mask: `lo <= v && v <= hi` is
/// `!(lo > v || v > hi)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mask8_i32_between(vals: __m256i, lo: __m256i, hi: __m256i) -> u32 {
    let below = _mm256_cmpgt_epi32(lo, vals);
    let above = _mm256_cmpgt_epi32(vals, hi);
    let out = not_si256(_mm256_or_si256(below, above));
    _mm256_movemask_ps(_mm256_castsi256_ps(out)) as u32
}

/// 8-bit mask from 8 contiguous f64 rows (two 4-lane compares).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_mask8_f64(ptr: *const f64, op: CmpOp, rhs: __m256d) -> u32 {
    let m0 = mask4_f64(_mm256_loadu_pd(ptr), rhs, op);
    let m1 = mask4_f64(_mm256_loadu_pd(ptr.add(4)), rhs, op);
    m0 | (m1 << 4)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_mask8_f64_between(ptr: *const f64, lo: __m256d, hi: __m256d) -> u32 {
    let m0 = mask4_f64_between(_mm256_loadu_pd(ptr), lo, hi);
    let m1 = mask4_f64_between(_mm256_loadu_pd(ptr.add(4)), lo, hi);
    m0 | (m1 << 4)
}

/// Gathers the 8 f64 column values addressed by the selection ids in
/// `ids` (two 4-lane gathers; ids are row indices, always < 2^31).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_f64(col: *const f64, ids: __m256i) -> (__m256d, __m256d) {
    let lo = _mm256_castsi256_si128(ids);
    let hi = _mm256_extracti128_si256::<1>(ids);
    (
        _mm256_i32gather_pd::<8>(col, lo),
        _mm256_i32gather_pd::<8>(col, hi),
    )
}

/// Shared skeleton of the four `fill_*` kernels: `mask8(group start)`
/// produces the 8-bit keep mask for rows `[start, start + 8)`; `keep`
/// tests one row for the scalar tail.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fill_groups(
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
    mut mask8: impl FnMut(usize) -> u32,
    keep: impl Fn(usize) -> bool,
) {
    let n = hi - lo;
    sel.clear();
    sel.resize(n, 0);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let dst = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 8 <= n {
        let row = lo + i;
        let ids = _mm256_add_epi32(_mm256_set1_epi32(row as i32), iota);
        k += compact_store(dst.add(k), ids, mask8(row));
        i += 8;
    }
    while i < n {
        let row = lo + i;
        *dst.add(k) = row as u32;
        k += keep(row) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// Shared skeleton of the in-place `refine_*` / mask-compaction kernels:
/// `mask8(i, ids)` produces the keep mask for entries `sel[i..i + 8]`
/// (already loaded into `ids`), `keep(i, id)` tests one entry for the
/// tail. Reads of a group complete before its (overlapping, `k <= i`)
/// packed store, and tail entries are handed to `keep` by value, so
/// callers never re-read `sel` while it is being compacted.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn refine_groups(
    sel: &mut Vec<u32>,
    mut mask8: impl FnMut(usize, __m256i) -> u32,
    keep: impl Fn(usize, u32) -> bool,
) {
    let n = sel.len();
    let p = sel.as_mut_ptr();
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 8 <= n {
        let ids = _mm256_loadu_si256(p.add(i) as *const __m256i);
        k += compact_store(p.add(k), ids, mask8(i, ids));
        i += 8;
    }
    while i < n {
        let id = *p.add(i);
        *p.add(k) = id;
        k += keep(i, id) as usize;
        i += 1;
    }
    sel.truncate(k);
}

#[target_feature(enable = "avx2")]
unsafe fn fill_f64_cmp_avx2(
    col: &[f64],
    op: CmpOp,
    rhs: f64,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let r = _mm256_set1_pd(rhs);
    fill_groups(
        lo,
        hi,
        sel,
        |row| unsafe { load_mask8_f64(col.as_ptr().add(row), op, r) },
        |row| op.test(col[row], rhs),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn fill_f64_between_avx2(
    col: &[f64],
    blo: f64,
    bhi: f64,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let vlo = _mm256_set1_pd(blo);
    let vhi = _mm256_set1_pd(bhi);
    fill_groups(
        lo,
        hi,
        sel,
        |row| unsafe { load_mask8_f64_between(col.as_ptr().add(row), vlo, vhi) },
        |row| (col[row] >= blo) & (col[row] <= bhi),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn fill_i32_cmp_avx2(
    col: &[i32],
    op: CmpOp,
    rhs: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let r = _mm256_set1_epi32(rhs);
    fill_groups(
        lo,
        hi,
        sel,
        |row| unsafe {
            let v = _mm256_loadu_si256(col.as_ptr().add(row) as *const __m256i);
            mask8_i32(v, r, op)
        },
        |row| op.test(col[row], rhs),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn fill_i32_between_avx2(
    col: &[i32],
    blo: i32,
    bhi: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let vlo = _mm256_set1_epi32(blo);
    let vhi = _mm256_set1_epi32(bhi);
    fill_groups(
        lo,
        hi,
        sel,
        |row| unsafe {
            let v = _mm256_loadu_si256(col.as_ptr().add(row) as *const __m256i);
            mask8_i32_between(v, vlo, vhi)
        },
        |row| (col[row] >= blo) & (col[row] <= bhi),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn refine_f64_cmp_avx2(col: &[f64], op: CmpOp, rhs: f64, sel: &mut Vec<u32>) {
    let r = _mm256_set1_pd(rhs);
    let base = col.as_ptr();
    refine_groups(
        sel,
        |_, ids| unsafe {
            let (v0, v1) = gather_f64(base, ids);
            mask4_f64(v0, r, op) | (mask4_f64(v1, r, op) << 4)
        },
        |_, id| op.test(col[id as usize], rhs),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn refine_f64_between_avx2(col: &[f64], blo: f64, bhi: f64, sel: &mut Vec<u32>) {
    let vlo = _mm256_set1_pd(blo);
    let vhi = _mm256_set1_pd(bhi);
    let base = col.as_ptr();
    refine_groups(
        sel,
        |_, ids| unsafe {
            let (v0, v1) = gather_f64(base, ids);
            mask4_f64_between(v0, vlo, vhi) | (mask4_f64_between(v1, vlo, vhi) << 4)
        },
        |_, id| {
            let v = col[id as usize];
            (v >= blo) & (v <= bhi)
        },
    );
}

#[target_feature(enable = "avx2")]
unsafe fn refine_i32_cmp_avx2(col: &[i32], op: CmpOp, rhs: i32, sel: &mut Vec<u32>) {
    let r = _mm256_set1_epi32(rhs);
    let base = col.as_ptr();
    refine_groups(
        sel,
        |_, ids| unsafe { mask8_i32(_mm256_i32gather_epi32::<4>(base, ids), r, op) },
        |_, id| op.test(col[id as usize], rhs),
    );
}

#[target_feature(enable = "avx2")]
unsafe fn refine_i32_between_avx2(col: &[i32], blo: i32, bhi: i32, sel: &mut Vec<u32>) {
    let vlo = _mm256_set1_epi32(blo);
    let vhi = _mm256_set1_epi32(bhi);
    let base = col.as_ptr();
    refine_groups(
        sel,
        |_, ids| unsafe { mask8_i32_between(_mm256_i32gather_epi32::<4>(base, ids), vlo, vhi) },
        |_, id| {
            let v = col[id as usize];
            (v >= blo) & (v <= bhi)
        },
    );
}

/// Dictionary-code membership fill: 8 u8 codes widen to i32 lanes
/// (`vpmovzxbd`), gather their 0 / -1 entries from the 256-entry
/// membership LUT (`vpgatherdd`; indices are bytes, so every gather is
/// in bounds), and the lane sign bits collapse to the keep mask. The
/// 8-byte code load needs `row + 8 <= len`, which `fill_groups`
/// guarantees for vector groups (`hi <= codes.len()`).
#[target_feature(enable = "avx2")]
unsafe fn fill_u8_in_set_avx2(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let base = codes.as_ptr();
    let lut = keep.as_ptr();
    fill_groups(
        lo,
        hi,
        sel,
        |row| unsafe {
            let bytes = _mm_loadl_epi64(base.add(row) as *const __m128i);
            let idx = _mm256_cvtepu8_epi32(bytes);
            let hit = _mm256_i32gather_epi32::<4>(lut, idx);
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32
        },
        |row| keep[codes[row] as usize] != 0,
    );
}

/// AVX-512 dictionary-code membership fill: 16 codes per iteration. The
/// widen / gather steps mirror [`fill_u8_in_set_avx2`] at twice the
/// width; the left-pack uses the native `vpcompressd` instead of a
/// permutation LUT, and the keep mask comes straight from `vptestmd`
/// (keep entries are `-1`, so "lane non-zero" is exactly membership).
/// All 16 lanes store unconditionally; as in [`fill_groups`], `k <= i`
/// keeps the store in bounds, and partial tails run scalar.
#[target_feature(enable = "avx512f")]
unsafe fn fill_u8_in_set_avx512(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    let n = hi - lo;
    sel.clear();
    sel.resize(n, 0);
    let base = codes.as_ptr();
    let lut = keep.as_ptr();
    let dst = sel.as_mut_ptr();
    let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut k = 0usize;
    let mut i = 0usize;
    while i + 16 <= n {
        let row = lo + i;
        let bytes = _mm_loadu_si128(base.add(row) as *const __m128i);
        let idx = _mm512_cvtepu8_epi32(bytes);
        let hit = _mm512_i32gather_epi32::<4>(idx, lut);
        let mask = _mm512_test_epi32_mask(hit, hit);
        let ids = _mm512_add_epi32(_mm512_set1_epi32(row as i32), iota);
        let packed = _mm512_maskz_compress_epi32(mask, ids);
        _mm512_storeu_si512(dst.add(k) as *mut __m512i, packed);
        k += mask.count_ones() as usize;
        i += 16;
    }
    while i < n {
        let row = lo + i;
        *dst.add(k) = row as u32;
        k += (keep[codes[row] as usize] != 0) as usize;
        i += 1;
    }
    sel.truncate(k);
}

/// In-place compaction of `sel` by a 0/1 byte mask (one byte per entry).
/// Eight mask bytes collapse to eight bits via a carry-free multiply:
/// byte `i` contributes `2^(8i)`, the constant contributes `2^(7 + 7j)`,
/// and each product bit `8i + 7j + 7` in the extracted window `[56, 63]`
/// has exactly one `(i, j)` source, so no partial products collide.
#[target_feature(enable = "avx2")]
unsafe fn compact_by_mask_avx2(sel: &mut Vec<u32>, mask: &[u8]) {
    debug_assert_eq!(sel.len(), mask.len());
    debug_assert!(mask.iter().all(|&m| m <= 1), "mask bytes must be 0/1");
    let mp = mask.as_ptr();
    refine_groups(
        sel,
        |i, _| unsafe {
            let bytes = (mp.add(i) as *const u64).read_unaligned() & 0x0101_0101_0101_0101;
            (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
        },
        |i, _| mask[i] != 0,
    );
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
// Each returns `true` if the AVX2 kernel handled the batch; `false` means
// "not in effect, run the scalar loop". Callers in `expr.rs` keep their
// scalar code as the sole fallback, so `RFA_SIMD=scalar` exercises it.

pub(crate) fn fill_f64_cmp(
    col: &[f64],
    op: CmpOp,
    rhs: f64,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { fill_f64_cmp_avx2(col, op, rhs, lo, hi, sel) };
    true
}

pub(crate) fn fill_f64_between(
    col: &[f64],
    blo: f64,
    bhi: f64,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { fill_f64_between_avx2(col, blo, bhi, lo, hi, sel) };
    true
}

pub(crate) fn fill_i32_cmp(
    col: &[i32],
    op: CmpOp,
    rhs: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { fill_i32_cmp_avx2(col, op, rhs, lo, hi, sel) };
    true
}

pub(crate) fn fill_i32_between(
    col: &[i32],
    blo: i32,
    bhi: i32,
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { fill_i32_between_avx2(col, blo, bhi, lo, hi, sel) };
    true
}

pub(crate) fn refine_f64_cmp(col: &[f64], op: CmpOp, rhs: f64, sel: &mut Vec<u32>) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { refine_f64_cmp_avx2(col, op, rhs, sel) };
    true
}

pub(crate) fn refine_f64_between(col: &[f64], blo: f64, bhi: f64, sel: &mut Vec<u32>) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { refine_f64_between_avx2(col, blo, bhi, sel) };
    true
}

pub(crate) fn refine_i32_cmp(col: &[i32], op: CmpOp, rhs: i32, sel: &mut Vec<u32>) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { refine_i32_cmp_avx2(col, op, rhs, sel) };
    true
}

pub(crate) fn refine_i32_between(col: &[i32], blo: i32, bhi: i32, sel: &mut Vec<u32>) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { refine_i32_between_avx2(col, blo, bhi, sel) };
    true
}

pub(crate) fn fill_u8_in_set(
    codes: &[u8],
    keep: &[i32; 256],
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) -> bool {
    match cpu::active() {
        SimdLevel::Scalar => false,
        SimdLevel::Avx2 => {
            unsafe { fill_u8_in_set_avx2(codes, keep, lo, hi, sel) };
            true
        }
        SimdLevel::Avx512 => {
            unsafe { fill_u8_in_set_avx512(codes, keep, lo, hi, sel) };
            true
        }
    }
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

pub(crate) fn compact_by_mask(sel: &mut Vec<u32>, mask: &[u8]) -> bool {
    if !enabled() {
        return false;
    }
    unsafe { compact_by_mask_avx2(sel, mask) };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfa_core::cpu;

    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    fn f64_col(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 13 {
                0 => f64::NAN,
                1 => 0.05,
                2 => -0.0,
                3 => 0.0,
                _ => ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12) as f64 / 1e15 - 2.0,
            })
            .collect()
    }

    fn i32_col(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 16) as i32 - 30_000)
            .collect()
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
        let fcol = f64_col(1003);
        let icol = i32_col(1003);
        for &(lo, hi) in &[(0usize, 1003usize), (5, 1000), (7, 15), (100, 103), (3, 3)] {
            for op in OPS {
                let mut sel = Vec::new();
                unsafe { fill_f64_cmp_avx2(&fcol, op, 0.05, lo, hi, &mut sel) };
                let expected: Vec<u32> = (lo..hi)
                    .filter(|&r| op.test(fcol[r], 0.05))
                    .map(|r| r as u32)
                    .collect();
                assert_eq!(sel, expected, "f64 {op:?} [{lo},{hi})");

                let mut sel = Vec::new();
                unsafe { fill_i32_cmp_avx2(&icol, op, 17, lo, hi, &mut sel) };
                let expected: Vec<u32> = (lo..hi)
                    .filter(|&r| op.test(icol[r], 17))
                    .map(|r| r as u32)
                    .collect();
                assert_eq!(sel, expected, "i32 {op:?} [{lo},{hi})");
            }
            let mut sel = Vec::new();
            unsafe { fill_f64_between_avx2(&fcol, -0.5, 0.5, lo, hi, &mut sel) };
            let expected: Vec<u32> = (lo..hi)
                .filter(|&r| (fcol[r] >= -0.5) & (fcol[r] <= 0.5))
                .map(|r| r as u32)
                .collect();
            assert_eq!(sel, expected, "f64 between [{lo},{hi})");

            let mut sel = Vec::new();
            unsafe { fill_i32_between_avx2(&icol, -100, 900, lo, hi, &mut sel) };
            let expected: Vec<u32> = (lo..hi)
                .filter(|&r| (icol[r] >= -100) & (icol[r] <= 900))
                .map(|r| r as u32)
                .collect();
            assert_eq!(sel, expected, "i32 between [{lo},{hi})");
        }
    }

    #[test]
    fn refine_kernels_match_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        let fcol = f64_col(2000);
        let icol = i32_col(2000);
        // Candidate sets of varied sizes, including non-contiguous ids.
        let candidates: Vec<Vec<u32>> = vec![
            (0..2000u32).collect(),
            (0..2000u32).step_by(3).collect(),
            (0..7u32).collect(),
            vec![1999],
            vec![],
        ];
        for cand in &candidates {
            for op in OPS {
                let mut sel = cand.clone();
                unsafe { refine_f64_cmp_avx2(&fcol, op, 0.05, &mut sel) };
                let expected: Vec<u32> = cand
                    .iter()
                    .copied()
                    .filter(|&r| op.test(fcol[r as usize], 0.05))
                    .collect();
                assert_eq!(sel, expected, "f64 {op:?} n={}", cand.len());

                let mut sel = cand.clone();
                unsafe { refine_i32_cmp_avx2(&icol, op, 17, &mut sel) };
                let expected: Vec<u32> = cand
                    .iter()
                    .copied()
                    .filter(|&r| op.test(icol[r as usize], 17))
                    .collect();
                assert_eq!(sel, expected, "i32 {op:?} n={}", cand.len());
            }
            let mut sel = cand.clone();
            unsafe { refine_f64_between_avx2(&fcol, -0.5, 0.5, &mut sel) };
            let expected: Vec<u32> = cand
                .iter()
                .copied()
                .filter(|&r| (fcol[r as usize] >= -0.5) & (fcol[r as usize] <= 0.5))
                .collect();
            assert_eq!(sel, expected);

            let mut sel = cand.clone();
            unsafe { refine_i32_between_avx2(&icol, -100, 900, &mut sel) };
            let expected: Vec<u32> = cand
                .iter()
                .copied()
                .filter(|&r| (icol[r as usize] >= -100) & (icol[r as usize] <= 900))
                .collect();
            assert_eq!(sel, expected);
        }
    }

    #[test]
    fn u8_in_set_fill_matches_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        let codes: Vec<u8> = (0..1003).map(|i| ((i * 31 + i / 5) % 11) as u8).collect();
        let mut keep = [0i32; 256];
        for c in [0usize, 3, 7, 10, 255] {
            keep[c] = -1;
        }
        for &(lo, hi) in &[(0usize, 1003usize), (5, 1000), (7, 15), (100, 103), (3, 3)] {
            let mut sel = Vec::new();
            unsafe { fill_u8_in_set_avx2(&codes, &keep, lo, hi, &mut sel) };
            let expected: Vec<u32> = (lo..hi)
                .filter(|&r| keep[codes[r] as usize] != 0)
                .map(|r| r as u32)
                .collect();
            assert_eq!(sel, expected, "[{lo},{hi})");
        }
    }

    #[test]
    fn u8_in_set_fill_avx512_matches_scalar_and_avx2() {
        if !cpu::avx512_supported() {
            return;
        }
        let codes: Vec<u8> = (0..2003).map(|i| ((i * 131 + i / 7) % 253) as u8).collect();
        let mut keep = [0i32; 256];
        for c in [0usize, 3, 7, 10, 100, 200, 252, 255] {
            keep[c] = -1;
        }
        for &(lo, hi) in &[
            (0usize, 2003usize),
            (5, 2000),
            (7, 15),
            (9, 30),
            (100, 103),
            (3, 3),
        ] {
            let mut sel = Vec::new();
            unsafe { fill_u8_in_set_avx512(&codes, &keep, lo, hi, &mut sel) };
            let expected: Vec<u32> = (lo..hi)
                .filter(|&r| keep[codes[r] as usize] != 0)
                .map(|r| r as u32)
                .collect();
            assert_eq!(sel, expected, "avx512 vs scalar [{lo},{hi})");

            let mut sel2 = Vec::new();
            unsafe { fill_u8_in_set_avx2(&codes, &keep, lo, hi, &mut sel2) };
            assert_eq!(sel, sel2, "avx512 vs avx2 [{lo},{hi})");
        }
    }

    #[test]
    fn mask_compaction_matches_scalar() {
        if !cpu::avx2_supported() {
            return;
        }
        for n in [0usize, 1, 7, 8, 9, 64, 255, 1001] {
            let mask: Vec<u8> = (0..n).map(|i| ((i * 7 + i / 3) % 3 == 0) as u8).collect();
            let base: Vec<u32> = (0..n as u32).map(|i| i * 2 + 1).collect();
            let mut sel = base.clone();
            unsafe { compact_by_mask_avx2(&mut sel, &mask) };
            let expected: Vec<u32> = base
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m != 0)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(sel, expected, "n={n}");
        }
    }

    #[test]
    fn byte_mask_multiply_is_carry_free() {
        // All 256 mask patterns over one 8-byte group.
        for m in 0..256u64 {
            let mut bytes = 0u64;
            for b in 0..8 {
                bytes |= ((m >> b) & 1) << (8 * b);
            }
            let bits = bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56;
            assert_eq!(bits, m, "pattern {m:#010b}");
        }
    }
}

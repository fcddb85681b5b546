//! The engine's per-group aggregate states and its grouped SUM operator
//! (paper §VI-E).
//!
//! This mirrors the paper's MonetDB modification: "we modified MonetDB's
//! aggregation operator for sum on built-in doubles such that it first
//! aggregates its input into a locally allocated array using our
//! reproducible data types … and then copies the result converted to
//! doubles into the result array". Group ids are dense (dictionary
//! encoded), so the operator uses direct array indexing — as MonetDB does
//! for small group counts.
//!
//! **One state vocabulary.** That "locally allocated array" is a drop-in:
//! every per-group state array — the SUM of any [`SumBackend`], a MIN, a
//! MAX — answers the same deposits. It takes one value into one group, a
//! block of values into one group, `k` copies of one value, one value per
//! row of a batch, or a batch partitioned by group, and it grows, merges
//! slot by slot and finalizes the same way. Each kind implements one
//! per-value `add` and overrides only the deposits it does faster; the
//! rest loop over `add`. The scan matches an array's kind once per batch
//! and aggregate and enters one generic deposit for that kind
//! (`crate::fused`), so nothing matches per row or per run and nothing is
//! a trait object. Because exact states merge in any order (Goodrich &
//! Eldawy), the kinds are interchangeable behind that one interface:
//!
//! * [`SumBackend::Double`] — MonetDB's own behaviour: plain `dbl` sum
//!   *with per-element overflow checking* (MonetDB's `ADD_WITH_CHECK`
//!   macros; the paper notes this makes the baseline slower than a raw
//!   loop, §VI-E). A per-row deposit is that checked add. A block — a
//!   run, or one group's segment of a batch partitioned by group
//!   ([`DOUBLE_MIN_SEG`]) — is added in a register from the slot's value,
//!   in row order, and checked once at its end. Order-sensitive.
//! * [`SumBackend::ReproUnbuffered`] / [`SumBackend::Rsum`] —
//!   `repro<double, L>` per group, the paper's drop-in type: a block goes
//!   through the vectorized block kernel, `k` copies through the exact
//!   scaled fold, and per-row deposits prefetch once the array outgrows
//!   L2.
//! * [`SumBackend::ReproBuffered`] / [`SumBackend::RsumBuffered`] — the
//!   same states, fed *partition-then-aggregate* at batch granularity:
//!   when a batch holds few groups relative to its rows ([`MIN_SEG`]) it
//!   is counting-sorted by group id once (`BatchPartition`) and every
//!   group's values go through the block kernel in one call. The staging
//!   lives with the batch, not with the group — there are no per-group
//!   summation buffers in the engine.
//! * [`SumBackend::SortedDouble`] — the "sort the input, then sum doubles"
//!   baseline of Table IV. Each group keeps the values deposited into it;
//!   finalization sorts them ascending by bit pattern and adds them in
//!   that order from `+0.0`. The state is a function of the input
//!   multiset, so — like the repro states, and unlike `Double` — it merges
//!   exactly, in any schedule.
//! * MIN and MAX — strict-compare folds: the first extreme value in row
//!   order wins, and a NaN never enters a slot.
//!
//! [`GroupedSums`] is the public face of one SUM state array, and
//! [`sum_grouped`] drives one over whole arrays. They deposit through the
//! scan's own deposit, so batched (fused) and one-shot execution finalize
//! to the same bits.

use crate::fused::{deposit, Batch, Deposit, Input, FUSED_BATCH_ROWS};
use rfa_core::{simd, ReproFloat, ReproSum};

/// Rows per morsel in the engine's parallel scans and aggregations.
pub const SCAN_MORSEL_ROWS: usize = 1 << 16;

/// Numeric backend of the grouped SUM operator.
///
/// **Special values.** Every deposit path — per row, block, partitioned,
/// `k·v`, merged — gives one answer per cell, pinned for every state kind
/// by this module's state-contract tests (which CI runs at every SIMD
/// tier). For the SUM of one group:
///
/// | input | `Double` | `SortedDouble` | repro (`L = 1..=4`) |
/// |---|---|---|---|
/// | NaN | `OverflowError` | `OverflowError` | NaN |
/// | `+∞` (or `−∞`) | `OverflowError` | `OverflowError` | `+∞` (`−∞`) |
/// | `+∞` and `−∞` | `OverflowError` | `OverflowError` | NaN |
/// | only `−0.0` | `+0.0` | `+0.0` | `+0.0` |
/// | overflow (`f64::MAX + f64::MAX`) | `OverflowError` | `OverflowError` | `+∞` |
///
/// `Double` raises when an addition's result is not finite (MonetDB's
/// check). Its per-row deposits check every addition; its block deposits
/// check each block's sum once, and `SortedDouble` each finished sum
/// once. A single check raises exactly when a check after every addition
/// would, because an IEEE sum that is ±∞ or NaN stays non-finite whatever
/// is added to it. The state an error leaves behind is unspecified. The
/// repro states instead follow IEEE addition with a sticky special state, and
/// a finite value too large to bin (`|v| ≥ 2^1005`) counts as `±∞`. That
/// is a decision, not an accident: an `OverflowError` raised mid-scan
/// depends on which rows came first, so it cannot be part of an answer
/// that is the same in every order. A repro sum reports `±∞` or NaN as
/// its value instead, the same in any order. Subnormals are ordinary
/// values on every backend. MIN and MAX ignore NaN, take `±∞` like any
/// value, keep the first of `−0.0` and `+0.0`, and answer `+∞` / `−∞` for
/// a group that received no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SumBackend {
    /// Plain double with MonetDB-style overflow checks (non-reproducible).
    Double,
    /// `repro<double, 4>` drop-in (reproducible, unbuffered).
    ReproUnbuffered,
    /// `repro<double, 4>` with batch-partitioned block deposits (see
    /// [`MIN_SEG`]). `buffer_size` sizes nothing: the staging area is the
    /// scan batch, shared by all groups. The field remains because the
    /// wire format and the benchmark construct it; any value gives the
    /// same bits at the same speed.
    ReproBuffered { buffer_size: usize },
    /// Plain double over each group's values sorted by bit pattern
    /// (reproducible via ordering).
    SortedDouble,
    /// The paper's §V-D user-facing vision: `RSUM(⟨expression⟩, L)` — a
    /// reproducible sum with caller-chosen precision `L ∈ 1..=4`
    /// (unbuffered).
    Rsum { levels: u8 },
    /// `RSUM(⟨expression⟩, L)` with batch-partitioned block deposits
    /// (`buffer_size` is as inert as [`SumBackend::ReproBuffered`]'s).
    RsumBuffered { levels: u8, buffer_size: usize },
}

impl SumBackend {
    /// Whether per-group states merge *exactly*, making any morsel/thread
    /// schedule — and a k·v deposit for k equal values — bit-identical to
    /// serial per-row execution. Every state that is a function of its
    /// input multiset does: the repro ladders and the sorted baseline's
    /// value lists. Plain doubles alone do not.
    pub fn merges_exactly(self) -> bool {
        self != SumBackend::Double
    }

    /// Whether this is the paper's buffered operator (§V): repro states
    /// whose grouped batches deposit through a batch partition, one block
    /// call per group ([`MIN_SEG`]). It is also the gate of
    /// [`GroupedSums`], which partitions for these backends only; the
    /// scan partitions `Double` batches too ([`DOUBLE_MIN_SEG`]).
    pub fn buffered(self) -> bool {
        matches!(
            self,
            SumBackend::ReproBuffered { .. } | SumBackend::RsumBuffered { .. }
        )
    }

    /// The fewest rows per group slot at which the fused scan partitions
    /// a grouped batch by group: [`MIN_SEG`] for the
    /// [buffered](Self::buffered) backends, [`DOUBLE_MIN_SEG`] for
    /// `Double`, and `None` — every batch per row — for the rest.
    pub(crate) fn min_seg(self) -> Option<usize> {
        match self {
            SumBackend::Double => Some(DOUBLE_MIN_SEG),
            _ if self.buffered() => Some(MIN_SEG),
            _ => None,
        }
    }

    /// `Err(levels)` for an `RSUM` precision outside `1..=4` — the one
    /// backend parameter that can be invalid. Boundaries that take a
    /// backend from outside (the wire decoder, `QueryPlan::execute`)
    /// check this and raise their typed error; [`GroupedSums::new`]
    /// asserts it.
    pub fn check_levels(self) -> Result<(), u8> {
        match self {
            SumBackend::Rsum { levels } | SumBackend::RsumBuffered { levels, .. }
                if !(1..=4).contains(&levels) =>
            {
                Err(levels)
            }
            _ => Ok(()),
        }
    }
}

/// Error raised when the Double backend detects overflow (MonetDB reports
/// "overflow in calculation" and aborts the query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowError;

impl std::fmt::Display for OverflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "overflow in aggregate calculation")
    }
}

impl std::error::Error for OverflowError {}

/// State-array size above which per-row deposits prefetch: 1 MiB, a
/// core's share of L2 on the hosts this runs on. At the 80-byte
/// `ReproSum<f64, 4>` it falls between 2^13 groups (640 KiB, resident)
/// and 2^14 (1.25 MiB, past L2). Set by measurement (EXPERIMENTS.md): at
/// 2^14 and 2^16 groups the hint saves up to 1 ns/row, at 2^12 and 2^13
/// it costs time and saves nothing.
const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// Rows of lookahead of the deposit prefetch — far enough to cover an L3
/// hit at 3–6 ns per deposit, near enough to stay inside one batch.
const PREFETCH_AHEAD: usize = 16;

/// Requests every cache line the `T` at `p` lies on — two for a slot of
/// an 80-byte `ReproSum<f64, 4>` array on a 16-byte-aligned base, three
/// for the slots that start in a line's last 16 bytes when the base is
/// only 8-byte aligned. A hint only: it has no architectural effect and
/// never faults, whatever `p` is — and it is a no-op off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let size = std::mem::size_of::<T>();
        let first = p.cast::<i8>();
        // SAFETY: SSE is baseline on x86-64, and PREFETCHh dereferences
        // nothing: an unmapped or dangling address is ignored.
        unsafe {
            for offset in (0..size).step_by(64) {
                _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(offset));
            }
            _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(size.saturating_sub(1)));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Minimum average rows per group slot for a batch of a
/// [buffered](SumBackend::buffered) backend to be partitioned: a batch of
/// `n` rows over `groups` slots is partitioned when `groups · MIN_SEG ≤
/// n` — at most 8 groups in a default 4096-row batch — and every group's
/// gathered values go through the block kernel; otherwise it deposits per
/// row. Set by `criterion_micro`'s `grouped_deposit` sweep
/// (EXPERIMENTS.md, Fig. 10 row) at the last group count where the
/// partitioned operator beats the per-row one: past it, partitioning a
/// batch costs more than the block kernel gives back on a single SUM.
/// `Double` has a threshold of its own ([`DOUBLE_MIN_SEG`]).
/// Bit-invisible — both sides of the threshold produce identical states.
pub const MIN_SEG: usize = 512;

/// [`MIN_SEG`] for [`SumBackend::Double`]: the fused scan partitions a
/// grouped `Double` batch when `groups · DOUBLE_MIN_SEG ≤ n` — at most 4
/// groups in a default 4096-row batch, Q1's included (its batches keep
/// ≈ 4 040 rows) — and each SUM then reads its values through the
/// permutation, adding every group's segment in a register. A `Double`
/// segment saves less than a repro one (a store-forwarded slot and a
/// branch per row, not a cascade), so the partition pays for itself only
/// at more rows per group. Set by `criterion_micro`'s `grouped_query`
/// sweep (EXPERIMENTS.md): partitioned `Double` queries won at 2 and 4
/// groups and lost at 5, 6 and 8 for one, two and five SUMs, so the
/// constant lies above 4096 / 5 ≈ 819 and at most 4040 / 4 = 1010.
/// Bit-invisible — the partition is stable, so every slot adds the same
/// values in the same order.
pub const DOUBLE_MIN_SEG: usize = 896;

/// Least share of its covering range `[first, last]` a batch's selection
/// must keep to be *near-dense* ([`crate::Sel::near_dense`]): the fused scan
/// then reads that range as column slices — applying the selection
/// afterwards, where the batch's deposit makes it cheapest — instead of
/// gathering the selected rows column by column. Set by
/// `criterion_micro`'s `projection` sweep (EXPERIMENTS.md): Q1's
/// 98.7 %-kept batches are far above it, Q6's 2 % far below.
/// Bit-invisible — every side of it deposits the same values in the same
/// order.
pub const NEAR_DENSE: f64 = 0.5;

/// One batch's rows, stably partitioned by group id: a permutation that
/// lists batch-local row indices group by group (ascending group id, row
/// order kept inside each group) plus the `(group, end)` segment list
/// over it. Built once per batch and shared by COUNT (segment lengths are
/// its histogram) and by every SUM state array: a repro SUM gathers its
/// evaluated values through the permutation and deposits one block call
/// per group; a `Double` SUM reads them through the permutation in place
/// — a register sum needs no contiguous input — one segment per group.
/// (MIN / MAX keep their per-row folds over the row-ordered group ids: a
/// compare-and-keep per row is cheaper than the gather.)
///
/// **Selecting while partitioning.** Re-aimed at the batch's selection
/// ([`Self::select`]), the permutation lists *offsets into the
/// selection's covering range* instead — `rows[i] - rows[0]` for batch
/// position `i`. The values then handed to the gather are that whole
/// range's, selected or not, and the gather every repro SUM state
/// performs anyway — or the reads of a `Double` one — pick exactly the
/// selected rows, group by group: the paper's §V buffer fill, which never
/// sees how its per-group batch was assembled.
///
/// **Why no bit can change.** The counting sort is stable, so each group
/// slot receives exactly the values it would receive per row, in the same
/// order; the block kernel is bit-transparent to per-value `add`
/// (§III-D), and a `Double` register sum performs the very additions of
/// per-row `add`. Only *when* a slot is visited differs — never what it
/// sees.
#[derive(Default)]
pub(crate) struct BatchPartition {
    perm: Vec<u32>,
    segs: Vec<(u32, usize)>,
    /// Per-group write cursors of the counting sort.
    cursors: Vec<u32>,
    /// One state's values in partition order (reused across states).
    sorted: Vec<f64>,
    /// Length of the value slices the permutation indexes: the batch's
    /// rows, or the covering range of its selection.
    span: usize,
}

impl BatchPartition {
    /// Partitions one batch of group ids (all `< groups`). Returns `false`
    /// — without partitioning — when the batch has fewer than `min_seg`
    /// rows per group slot ([`SumBackend::min_seg`]); the caller then
    /// deposits per row.
    pub(crate) fn build(&mut self, group_ids: &[u32], groups: usize, min_seg: usize) -> bool {
        if groups.saturating_mul(min_seg) > group_ids.len() {
            return false;
        }
        self.span = group_ids.len();
        #[cfg(target_arch = "x86_64")]
        if crate::simd_sel::partition_by_group(group_ids, groups, &mut self.perm, &mut self.segs) {
            return true;
        }
        self.counting_sort(group_ids, groups);
        true
    }

    /// Re-aims a partition just [built](Self::build) at the covering range
    /// of the batch's strictly increasing selection `rows` (one row id per
    /// group id; see the type docs). A pass of its own: packing the
    /// offsets inside the partition kernel measured the same
    /// (EXPERIMENTS.md).
    pub(crate) fn select(&mut self, rows: &[u32]) {
        assert_eq!(rows.len(), self.perm.len());
        let Some((&first, &last)) = rows.first().zip(rows.last()) else {
            return;
        };
        self.span = (last - first) as usize + 1;
        for p in &mut self.perm {
            *p = rows[*p as usize] - first;
        }
    }

    /// Stable counting sort of the batch's row indices by group id — the
    /// portable form of the partition (and the reference the SIMD kernel
    /// is tested against).
    fn counting_sort(&mut self, group_ids: &[u32], groups: usize) {
        self.cursors.clear();
        self.cursors.resize(groups, 0);
        for &g in group_ids {
            self.cursors[g as usize] += 1;
        }
        self.segs.clear();
        let mut start = 0u32;
        for (g, c) in self.cursors.iter_mut().enumerate() {
            let rows = *c;
            *c = start;
            start += rows;
            if rows > 0 {
                self.segs.push((g as u32, start as usize));
            }
        }
        self.perm.resize(group_ids.len(), 0);
        for (i, &g) in group_ids.iter().enumerate() {
            let c = &mut self.cursors[g as usize];
            self.perm[*c as usize] = i as u32;
            *c += 1;
        }
    }

    /// `(group, end)` per non-empty group, ascending: group `g` owns
    /// positions `previous end..end` of the partition order.
    pub(crate) fn segs(&self) -> &[(u32, usize)] {
        &self.segs
    }

    /// `values` (one per batch row in row order — per row of the covering
    /// range, for a partition built over a selection) in partition order.
    fn gather(&mut self, values: &[f64]) -> (&[f64], &[(u32, usize)]) {
        assert_eq!(values.len(), self.span);
        self.sorted.resize(self.perm.len(), 0.0);
        // Eight values per iteration: at one, the loop is seven
        // instructions whose speed hangs on where they fall in a 64-byte
        // line — 0.6 or 0.95 ns per value from one build to the next
        // (EXPERIMENTS.md), the whole of buffered ÷ double's spread.
        let (mut sorted, mut perm) = (self.sorted.chunks_exact_mut(8), self.perm.chunks_exact(8));
        for (out, idx) in (&mut sorted).zip(&mut perm) {
            for (o, &i) in out.iter_mut().zip(idx) {
                *o = values[i as usize];
            }
        }
        for (o, &i) in sorted.into_remainder().iter_mut().zip(perm.remainder()) {
            *o = values[i as usize];
        }
        (&self.sorted, &self.segs)
    }
}

/// A per-group state array: the one vocabulary every aggregate state
/// answers (module docs). A deposit's error is the `Double` backend's
/// overflow. The state after an [`OverflowError`] is unspecified — a
/// block deposit may add past the addition that overflowed — and every
/// caller discards it.
///
/// The per-value loops (`run`, `rows`) are never inlined into the scan's
/// deposit: inside that one large function the compiler kept the state
/// array's base and length in stack slots and reloaded them on every row
/// — right after storing into a state, a load whose cost then depends on
/// where the stack happens to sit. In a function of their own they stay
/// in registers, as they did in the per-kind functions these replace.
pub(crate) trait States: Sized {
    /// Deposits `v` into group `g`.
    fn add(&mut self, g: usize, v: f64) -> Result<(), OverflowError>;

    /// Deposits `values`, in order, into group `g`.
    #[inline(never)]
    fn run(&mut self, g: usize, values: &[f64]) -> Result<(), OverflowError> {
        for &v in values {
            self.add(g, v)?;
        }
        Ok(())
    }

    /// Deposits `k` copies of `v` into group `g`.
    fn scaled(&mut self, g: usize, v: f64, k: u64) -> Result<(), OverflowError> {
        for _ in 0..k {
            self.add(g, v)?;
        }
        Ok(())
    }

    /// Per-row deposits of one batch: each value into the group of its
    /// group id, in row order. With `sel` — the batch's strictly
    /// increasing selection — `values` holds one value per row of the
    /// selection's covering range and the deposit reads the selected ones
    /// through it ([`selected`]), never depositing a dropped row's value.
    /// Without, one value per group id.
    #[inline(never)]
    fn rows(
        &mut self,
        gids: &[u32],
        values: &[f64],
        sel: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        match sel {
            Some(rows) => {
                for (&g, v) in gids.iter().zip(selected(values, rows)) {
                    self.add(g as usize, v)?;
                }
            }
            None => {
                for (&g, &v) in gids.iter().zip(values) {
                    self.add(g as usize, v)?;
                }
            }
        }
        Ok(())
    }

    /// Deposits a batch that `part` partitions by group: as [`Self::rows`]
    /// over `(gids, values, sel)`, which it is bit-identical to
    /// (`BatchPartition`'s stability argument).
    fn partitioned(
        &mut self,
        part: &mut BatchPartition,
        gids: &[u32],
        values: &[f64],
        sel: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        let _ = part;
        self.rows(gids, values, sel)
    }

    /// Appends `n` empty group slots.
    fn push_groups(&mut self, n: usize);

    /// Merges slot `src` of `other` into slot `dst`.
    fn merge_slot(&mut self, dst: usize, other: &Self, src: usize) -> Result<(), OverflowError>;

    /// Every group's answer, into `out` — written even when the result is
    /// the [`OverflowError`] of a kind that finds its overflow only here.
    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError>;
}

/// The values of the selected `rows`, in row order, out of `values`: one
/// value per row of the selection's covering range.
fn selected<'a>(values: &'a [f64], rows: &'a [u32]) -> impl Iterator<Item = f64> + 'a {
    let first = rows.first().map_or(0, |&r| r);
    rows.iter().map(move |&r| values[(r - first) as usize])
}

/// [`SumBackend::Double`]: one `f64` per group. A per-row deposit is the
/// checked add; a block deposit adds in a register and checks its sum
/// once.
#[derive(Default)]
pub(crate) struct Doubles(Vec<f64>);

/// MonetDB's ADD_WITH_CHECK, on a sum: `sum` must be finite. Once an IEEE
/// sum is ±∞ or NaN, adding anything keeps it non-finite, so one check of
/// a block's sum raises exactly when a check after each of its additions
/// would.
fn checked(sum: f64) -> Result<(), OverflowError> {
    if sum.is_finite() {
        Ok(())
    } else {
        Err(OverflowError)
    }
}

impl States for Doubles {
    fn add(&mut self, g: usize, v: f64) -> Result<(), OverflowError> {
        let slot = &mut self.0[g];
        *slot += v;
        checked(*slot)
    }

    /// The values added in order, in a register, from the slot's value:
    /// no store and no branch per value.
    #[inline(never)]
    fn run(&mut self, g: usize, values: &[f64]) -> Result<(), OverflowError> {
        let slot = &mut self.0[g];
        *slot = values.iter().fold(*slot, |sum, &v| sum + v);
        checked(*slot)
    }

    /// [`Self::run`] per group, reading the group's values through the
    /// permutation where they lie: a register sum needs no gathered copy.
    #[inline(never)]
    fn partitioned(
        &mut self,
        part: &mut BatchPartition,
        _: &[u32],
        values: &[f64],
        _: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        assert_eq!(values.len(), part.span);
        let mut start = 0;
        for &(g, end) in &part.segs {
            let slot = &mut self.0[g as usize];
            let rows = &part.perm[start..end];
            *slot = rows.iter().fold(*slot, |sum, &i| sum + values[i as usize]);
            checked(*slot)?;
            start = end;
        }
        Ok(())
    }

    fn push_groups(&mut self, n: usize) {
        self.0.resize(self.0.len() + n, 0.0);
    }

    fn merge_slot(&mut self, dst: usize, other: &Self, src: usize) -> Result<(), OverflowError> {
        self.add(dst, other.0[src])
    }

    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError> {
        *out = self.0;
        Ok(())
    }
}

/// [`SumBackend::SortedDouble`]: every group's deposited values, in no
/// particular order until [`States::finalize`] sorts them.
#[derive(Default)]
pub(crate) struct Sorted(Vec<Vec<f64>>);

impl States for Sorted {
    fn add(&mut self, g: usize, v: f64) -> Result<(), OverflowError> {
        self.0[g].push(v);
        Ok(())
    }

    fn run(&mut self, g: usize, values: &[f64]) -> Result<(), OverflowError> {
        self.0[g].extend_from_slice(values);
        Ok(())
    }

    fn scaled(&mut self, g: usize, v: f64, k: u64) -> Result<(), OverflowError> {
        self.0[g].extend(std::iter::repeat_n(v, k as usize));
        Ok(())
    }

    fn push_groups(&mut self, n: usize) {
        self.0.resize_with(self.0.len() + n, Vec::new);
    }

    fn merge_slot(&mut self, dst: usize, other: &Self, src: usize) -> Result<(), OverflowError> {
        self.run(dst, &other.0[src])
    }

    /// Each group's values ascending by bit pattern (ties are equal bits,
    /// so the order is total), added in that order from `+0.0`. One
    /// `is_finite` per sum raises [`OverflowError`] exactly when a check
    /// after every addition would: once an IEEE sum is ±∞ or NaN, adding
    /// anything keeps it non-finite.
    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError> {
        *out = (self.0.into_iter())
            .map(|mut values| {
                values.sort_unstable_by_key(|v| v.to_bits());
                values.into_iter().fold(0.0, |sum, v| sum + v)
            })
            .collect();
        out.iter()
            .all(|s| s.is_finite())
            .then_some(())
            .ok_or(OverflowError)
    }
}

/// Per-group reproducible states at one ladder height `L`, and the
/// highest ladder rung any of them sits on — the least
/// [`ReproSum::top_rung`], which bounds the cascade depth of every state
/// ([`States::rows`]). Every deposit that can promote a state lowers it.
pub(crate) struct ReproStates<const L: usize> {
    states: Vec<ReproSum<f64, L>>,
    rung: u32,
}

impl<const L: usize> Default for ReproStates<L> {
    fn default() -> Self {
        ReproStates {
            states: Vec::new(),
            rung: ReproSum::<f64, L>::new().top_rung(),
        }
    }
}

impl<const L: usize> ReproStates<L> {
    /// Lowers the array's rung to state `g`'s, after a deposit into it.
    fn track(&mut self, g: usize) {
        self.rung = self.rung.min(self.states[g].top_rung());
    }

    /// The per-row loop at cascade depth `N`, over the values
    /// [`States::rows`] deposits.
    #[inline(always)]
    fn rows_at<const N: usize>(&mut self, gids: &[u32], values: &[f64], sel: Option<&[u32]>) {
        match sel {
            Some(rows) => self.rows_iter::<N>(gids, selected(values, rows)),
            None => self.rows_iter::<N>(gids, values.iter().copied()),
        }
    }

    /// [`Self::rows_at`] over the deposited values, in row order. A state
    /// array larger than a core's share of L2 ([`PREFETCH_MIN_BYTES`])
    /// misses on nearly every row of a high-cardinality batch, so the
    /// state of row `i +` [`PREFETCH_AHEAD`] is requested while row `i` is
    /// added; a resident array skips the hint, which there only costs
    /// issue slots.
    #[inline(always)]
    fn rows_iter<const N: usize>(&mut self, gids: &[u32], values: impl Iterator<Item = f64>) {
        let states = &mut self.states;
        if std::mem::size_of_val(states.as_slice()) <= PREFETCH_MIN_BYTES {
            for (&g, v) in gids.iter().zip(values) {
                states[g as usize].add_levels::<N>(v);
            }
            return;
        }
        // The batch's last rows ask for the last row's state again: a
        // hint for a line already on its way costs nothing.
        let (base, last) = (states.as_ptr(), gids.len().saturating_sub(1));
        for (i, (&g, v)) in gids.iter().zip(values).enumerate() {
            prefetch(base.wrapping_add(gids[(i + PREFETCH_AHEAD).min(last)] as usize));
            states[g as usize].add_levels::<N>(v);
        }
    }
}

impl<const L: usize> States for ReproStates<L> {
    fn add(&mut self, g: usize, v: f64) -> Result<(), OverflowError> {
        self.states[g].add(v);
        self.track(g);
        Ok(())
    }

    /// The vectorized block kernel (Algorithm 3), bit-identical to
    /// per-row `add` by the §III-D exactness argument.
    fn run(&mut self, g: usize, values: &[f64]) -> Result<(), OverflowError> {
        simd::add_slice(&mut self.states[g], values);
        self.track(g);
        Ok(())
    }

    /// The exact scaled fold of [`ReproSum::add_scaled`], bit-identical
    /// to `k` per-row adds (DESIGN.md S26).
    fn scaled(&mut self, g: usize, v: f64, k: u64) -> Result<(), OverflowError> {
        self.states[g].add_scaled(v, k);
        self.track(g);
        Ok(())
    }

    /// One level count per batch (DESIGN.md S3, "per-row deposits"): one
    /// SIMD scan of `values` ([`simd::scan`]) gives the batch's largest
    /// and smallest non-zero magnitudes. No state can sit above the
    /// array's rung or the rung of that largest value, so [`simd::depth`]
    /// of the higher of the two and of that smallest value is enough
    /// levels for every row, and every row deposits through that many
    /// ([`ReproSum::add_levels`]) — no branch per row, and bit-identical
    /// to `add`. The values of rows `sel` drops only raise the count. A
    /// batch whose scan sees NaN, ±∞ or a magnitude past the binnable
    /// limit runs all `L` levels.
    #[inline(never)]
    fn rows(
        &mut self,
        gids: &[u32],
        values: &[f64],
        sel: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        let (hi, lo) = simd::scan(values);
        // `bin_for` is `None` past the binnable limit; `hi` is NaN when the
        // batch holds a NaN or ±∞.
        let top = if hi == 0.0 {
            Some(self.rung)
        } else if hi.is_nan() {
            None
        } else {
            f64::bin_for(hi).map(|bin| self.rung.min(bin as u32))
        };
        let Some(top) = top else {
            self.rows_at::<L>(gids, values, sel);
            for &g in gids {
                self.track(g as usize);
            }
            return Ok(());
        };
        self.rung = top;
        match simd::depth(top as usize, lo, L) {
            0 | 1 => self.rows_at::<1>(gids, values, sel),
            2 => self.rows_at::<2>(gids, values, sel),
            3 => self.rows_at::<3>(gids, values, sel),
            _ => self.rows_at::<L>(gids, values, sel),
        }
        Ok(())
    }

    /// Gathers the values group by group and deposits one block-kernel
    /// call per group.
    fn partitioned(
        &mut self,
        part: &mut BatchPartition,
        _: &[u32],
        values: &[f64],
        _: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        let (sorted, segs) = part.gather(values);
        let mut start = 0;
        for &(g, end) in segs {
            self.run(g as usize, &sorted[start..end])?;
            start = end;
        }
        Ok(())
    }

    fn push_groups(&mut self, n: usize) {
        self.states
            .resize_with(self.states.len() + n, ReproSum::new);
    }

    fn merge_slot(&mut self, dst: usize, other: &Self, src: usize) -> Result<(), OverflowError> {
        self.states[dst].merge(&other.states[src]);
        self.track(dst);
        Ok(())
    }

    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError> {
        *out = self.states.into_iter().map(ReproSum::finalize).collect();
        Ok(())
    }
}

/// MIN (`MAX = false`) or MAX per group: a strict-compare fold, so the
/// first extreme value in row order wins a tie (`-0.0` against `0.0`) and
/// a NaN never enters a slot. An empty group holds `+∞` (MIN) or `−∞`
/// (MAX).
#[derive(Default)]
pub(crate) struct Extremum<const MAX: bool>(Vec<f64>);

impl<const MAX: bool> States for Extremum<MAX> {
    fn add(&mut self, g: usize, v: f64) -> Result<(), OverflowError> {
        let cur = &mut self.0[g];
        if if MAX { v > *cur } else { v < *cur } {
            *cur = v;
        }
        Ok(())
    }

    /// Comparisons are idempotent: one fold of `v` is `k` folds of it —
    /// and zero copies fold nothing.
    fn scaled(&mut self, g: usize, v: f64, k: u64) -> Result<(), OverflowError> {
        if k > 0 {
            self.add(g, v)?;
        }
        Ok(())
    }

    fn push_groups(&mut self, n: usize) {
        let empty = if MAX { -f64::INFINITY } else { f64::INFINITY };
        self.0.resize(self.0.len() + n, empty);
    }

    /// The destination keeps its value on a tie: merged in range order,
    /// it holds the earlier rows.
    fn merge_slot(&mut self, dst: usize, other: &Self, src: usize) -> Result<(), OverflowError> {
        self.add(dst, other.0[src])
    }

    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError> {
        *out = self.0;
        Ok(())
    }
}

/// One aggregate's per-group state array, of one of the kinds above.
pub(crate) enum State {
    Double(Doubles),
    Sorted(Sorted),
    Repro1(ReproStates<1>),
    Repro2(ReproStates<2>),
    Repro3(ReproStates<3>),
    Repro4(ReproStates<4>),
    Min(Extremum<false>),
    Max(Extremum<true>),
}

/// Matches a [`State`] — or two of one kind — once, binding the concrete
/// array(s) in `$body`: the one dispatch of each state operation.
macro_rules! dispatch {
    ($state:expr, |$s:ident| $body:expr) => {
        dispatch!(@one $state, $s, $body, [Double Sorted Repro1 Repro2 Repro3 Repro4 Min Max])
    };
    ($a:expr, $b:expr, |$s:ident, $o:ident| $body:expr) => {
        dispatch!(@two $a, $b, $s, $o, $body, [Double Sorted Repro1 Repro2 Repro3 Repro4 Min Max])
    };
    (@one $state:expr, $s:ident, $body:expr, [$($kind:ident)*]) => {
        match $state {
            $($crate::sum_op::State::$kind($s) => $body,)*
        }
    };
    (@two $a:expr, $b:expr, $s:ident, $o:ident, $body:expr, [$($kind:ident)*]) => {
        match ($a, $b) {
            $(($crate::sum_op::State::$kind($s), $crate::sum_op::State::$kind($o)) => $body,)*
            _ => panic!("merging state arrays of different kinds"),
        }
    };
}
pub(crate) use dispatch;

impl State {
    /// An empty SUM state array of `backend`.
    fn sum(backend: SumBackend) -> State {
        let levels = match backend {
            SumBackend::Double => return State::Double(Doubles::default()),
            SumBackend::SortedDouble => return State::Sorted(Sorted::default()),
            SumBackend::ReproUnbuffered | SumBackend::ReproBuffered { .. } => 4,
            SumBackend::Rsum { levels } | SumBackend::RsumBuffered { levels, .. } => levels,
        };
        match levels {
            1 => State::Repro1(ReproStates::default()),
            2 => State::Repro2(ReproStates::default()),
            3 => State::Repro3(ReproStates::default()),
            _ => State::Repro4(ReproStates::default()),
        }
    }

    /// Appends `n` empty group slots.
    fn push_groups(&mut self, n: usize) {
        dispatch!(self, |s| s.push_groups(n))
    }

    /// Merges slot `src` of `other` into slot `dst`, for every pair of
    /// `slots`.
    fn merge(&mut self, other: &State, slots: &[(usize, usize)]) -> Result<(), OverflowError> {
        dispatch!(self, other, |a, b| {
            (slots.iter()).try_for_each(|&(dst, src)| a.merge_slot(dst, b, src))
        })
    }

    /// Every group's answer (see [`States::finalize`]).
    fn finalize(self, out: &mut Vec<f64>) -> Result<(), OverflowError> {
        dispatch!(self, |s| s.finalize(out))
    }
}

/// One SUM state array of one backend: the engine's "locally allocated
/// array" of intermediate aggregates, fed batch-at-a-time through the
/// scan's own deposit.
///
/// For a given input split into batches in row order, the per-slot
/// operation sequence is identical to a single [`sum_grouped`] pass, so
/// batched (fused) and one-shot execution finalize to the same bits for
/// *every* backend.
///
/// Only the [buffered](SumBackend::buffered) backends partition their
/// batches here. The scan partitions `Double` too, because there the
/// partition is shared by COUNT and every SUM state; one `Double` array
/// on its own pays the whole partition for one register sum per group,
/// which measured slower than its per-row deposits (EXPERIMENTS.md).
pub struct GroupedSums {
    state: State,
    groups: usize,
    /// Whether [`GroupedSums::update`] partitions its batches by group
    /// ([`SumBackend::buffered`]), in `part`.
    buffered: bool,
    part: BatchPartition,
}

impl GroupedSums {
    /// Creates zeroed per-group states for `groups` dense group ids.
    ///
    /// # Panics
    /// If an `RSUM` backend's `levels` is outside `1..=4`
    /// ([`SumBackend::check_levels`]).
    pub fn new(backend: SumBackend, groups: usize) -> Self {
        assert!(
            backend.check_levels().is_ok(),
            "RSUM levels must be in 1..=4"
        );
        let mut state = State::sum(backend);
        state.push_groups(groups);
        GroupedSums {
            state,
            groups,
            buffered: backend.buffered(),
            part: BatchPartition::default(),
        }
    }

    /// Folds one batch of `(group_id, value)` pairs into the states, in
    /// [`FUSED_BATCH_ROWS`] chunks: the fused scan's own deposit of its
    /// batches, each partitioned by group when the backend is buffered
    /// and [`MIN_SEG`] allows. After an [`OverflowError`] the states are
    /// unspecified: a block deposit may have added past the overflow.
    ///
    /// # Panics
    /// If `group_ids` and `values` differ in length.
    pub fn update(&mut self, group_ids: &[u32], values: &[f64]) -> Result<(), OverflowError> {
        assert_eq!(group_ids.len(), values.len(), "one value per group id");
        let batches = group_ids.chunks(FUSED_BATCH_ROWS);
        for (gids, vals) in batches.zip(values.chunks(FUSED_BATCH_ROWS)) {
            let shape = if self.buffered && self.part.build(gids, self.groups, MIN_SEG) {
                Deposit::Partitioned
            } else {
                Deposit::Rows
            };
            self.deposit_batch(shape, gids, vals)?;
        }
        Ok(())
    }

    /// Folds a batch that belongs entirely to group 0 (the un-grouped SUM
    /// of Q6): one block deposit — the vectorized block kernel for the
    /// repro backends, bit-identical to per-row `update`s (§III-D).
    pub fn update_single(&mut self, values: &[f64]) -> Result<(), OverflowError> {
        self.deposit_batch(Deposit::Single, &[], values)
    }

    /// One batch of `values` through the scan's deposit.
    fn deposit_batch(
        &mut self,
        shape: Deposit,
        gids: &[u32],
        vals: &[f64],
    ) -> Result<(), OverflowError> {
        let batch = Batch {
            shape,
            gids,
            ..Batch::default()
        };
        deposit(&mut self.state, &batch, &mut self.part, Input::Values(vals))
    }

    /// Number of group slots.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Rounds every group state to a double. A sorted-baseline sum that is
    /// not finite is returned as added up; [`sum_grouped`] and the engine
    /// raise [`OverflowError`] for it.
    pub fn finalize(self) -> Vec<f64> {
        let mut sums = Vec::new();
        let _ = self.state.finalize(&mut sums);
        sums
    }
}

/// Composed per-group aggregate states of one query: an exact integer
/// COUNT and one state array per aggregate — the SUMs (one per distinct
/// SUM input expression; AVG shares its input's SUM state), then the
/// MINs, then the MAXs. This is the sink of the fused scan.
///
/// **Merge discipline.** COUNT merges by integer addition, SUM by the
/// backend's state merge (exact for the repro backends), MIN/MAX by
/// comparison folds that keep the *destination* value on ties. Since the
/// parallel reduction merges morsels in index order along a deterministic
/// split tree, the destination always holds earlier rows, so the fold
/// resolves ties (e.g. `-0.0` vs `0.0`) exactly like the serial
/// first-occurrence scan — MIN/MAX are bit-identical at any thread count
/// for *every* backend.
pub(crate) struct GroupedStates {
    counts: Vec<u64>,
    pub(crate) aggs: Vec<State>,
}

impl GroupedStates {
    /// Creates states for `groups` dense group ids: `sums` SUM arrays of
    /// `backend`, then `mins` MIN and `maxs` MAX arrays.
    pub(crate) fn new(
        backend: SumBackend,
        groups: usize,
        (sums, mins, maxs): (usize, usize, usize),
    ) -> Self {
        let sums = (0..sums).map(|_| State::sum(backend));
        let mins = (0..mins).map(|_| State::Min(Extremum::default()));
        let maxs = (0..maxs).map(|_| State::Max(Extremum::default()));
        let aggs = sums.chain(mins).chain(maxs).collect();
        let mut states = GroupedStates {
            counts: Vec::new(),
            aggs,
        };
        states.ensure_groups(groups);
        states
    }

    /// Current number of group slots.
    pub(crate) fn groups(&self) -> usize {
        self.counts.len()
    }

    /// Grows every state array to at least `groups` slots (hash grouping
    /// discovers group keys scan-order incrementally).
    pub(crate) fn ensure_groups(&mut self, groups: usize) {
        let cur = self.counts.len();
        if groups > cur {
            self.counts.resize(groups, 0);
            for s in &mut self.aggs {
                s.push_groups(groups - cur);
            }
        }
    }

    /// COUNT(*) deposit for one batch of group ids.
    pub(crate) fn add_counts(&mut self, group_ids: &[u32]) {
        for &g in group_ids {
            self.counts[g as usize] += 1;
        }
    }

    /// COUNT(*) deposit of `rows` rows of group `group`.
    pub(crate) fn add_count(&mut self, group: usize, rows: usize) {
        self.counts[group] += rows as u64;
    }

    /// Merges slot `src` of `other` into slot `dst` of `self`, for every
    /// pair of `slots`: the keyed merge of hash-grouped partials, where
    /// the same group key can sit at different slots on different
    /// morsels, and `[(0, 0)]` for un-grouped ones.
    pub(crate) fn merge(
        &mut self,
        other: &GroupedStates,
        slots: &[(usize, usize)],
    ) -> Result<(), OverflowError> {
        for &(dst, src) in slots {
            self.counts[dst] += other.counts[src];
        }
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.merge(b, slots)?;
        }
        Ok(())
    }

    /// The per-group counts and every aggregate's per-group answers, in
    /// [`GroupedStates::aggs`] order — or the sorted baseline's
    /// [`OverflowError`], raised here, where its sums are first added up.
    pub(crate) fn finalize(self) -> Result<(Vec<u64>, Vec<Vec<f64>>), OverflowError> {
        let mut out = Vec::with_capacity(self.aggs.len());
        for state in self.aggs {
            let mut values = Vec::new();
            state.finalize(&mut values)?;
            out.push(values);
        }
        Ok((self.counts, out))
    }
}

/// Sums `values[i]` into per-group slots `group_ids[i]` (dense ids in
/// `0..groups`). Returns one double per group.
pub fn sum_grouped(
    backend: SumBackend,
    group_ids: &[u32],
    values: &[f64],
    groups: usize,
) -> Result<Vec<f64>, OverflowError> {
    assert_eq!(group_ids.len(), values.len());
    let mut state = GroupedSums::new(backend, groups);
    state.update(group_ids, values)?;
    let mut sums = Vec::new();
    state.state.finalize(&mut sums)?;
    Ok(sums)
}

/// Per-group COUNT (shared by all backends; integer, always reproducible):
/// the fused scan's own COUNT deposit.
pub fn count_grouped(group_ids: &[u32], groups: usize) -> Vec<u64> {
    let mut states = GroupedStates::new(SumBackend::Double, groups, (0, 0, 0));
    states.add_counts(group_ids);
    states.counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (Vec<u32>, Vec<f64>) {
        let n = 40_000;
        let ids: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    2.5e-16
                } else {
                    0.999_999_999_999_999 * ((i % 7) as f64 - 3.0)
                }
            })
            .collect();
        (ids, values)
    }

    #[test]
    fn all_backends_agree_approximately() {
        let (ids, values) = workload();
        let d = sum_grouped(SumBackend::Double, &ids, &values, 4).unwrap();
        let u = sum_grouped(SumBackend::ReproUnbuffered, &ids, &values, 4).unwrap();
        let b = sum_grouped(
            SumBackend::ReproBuffered { buffer_size: 512 },
            &ids,
            &values,
            4,
        )
        .unwrap();
        for g in 0..4 {
            assert!(
                (d[g] - u[g]).abs() < 1e-6 * d[g].abs().max(1.0),
                "group {g}"
            );
            assert_eq!(u[g].to_bits(), b[g].to_bits(), "group {g}");
        }
    }

    /// `sum_grouped` over morsels of [`SCAN_MORSEL_ROWS`] rows, each into
    /// a state of its own, merged in morsel order — what a parallel scan
    /// does with its morsels.
    fn sum_by_morsels(
        backend: SumBackend,
        ids: &[u32],
        values: &[f64],
        groups: usize,
    ) -> Result<Vec<f64>, OverflowError> {
        let slots: Vec<(usize, usize)> = (0..groups).map(|g| (g, g)).collect();
        let mut merged = GroupedSums::new(backend, groups);
        for (ids, values) in ids
            .chunks(SCAN_MORSEL_ROWS)
            .zip(values.chunks(SCAN_MORSEL_ROWS))
        {
            let mut morsel = GroupedSums::new(backend, groups);
            morsel.update(ids, values)?;
            merged.state.merge(&morsel.state, &slots)?;
        }
        let mut sums = Vec::new();
        merged.state.finalize(&mut sums)?;
        Ok(sums)
    }

    #[test]
    fn repro_backends_are_permutation_invariant() {
        let (ids, values) = workload();
        let rids: Vec<u32> = ids.iter().rev().copied().collect();
        let rvalues: Vec<f64> = values.iter().rev().copied().collect();
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 64 },
            SumBackend::SortedDouble,
        ] {
            let a = sum_grouped(backend, &ids, &values, 4).unwrap();
            let b = sum_grouped(backend, &rids, &rvalues, 4).unwrap();
            for g in 0..4 {
                assert_eq!(a[g].to_bits(), b[g].to_bits(), "{backend:?} group {g}");
            }
        }
    }

    #[test]
    fn double_backend_detects_overflow() {
        let ids = vec![0u32, 0];
        let values = vec![f64::MAX, f64::MAX];
        assert_eq!(
            sum_grouped(SumBackend::Double, &ids, &values, 1),
            Err(OverflowError)
        );
    }

    #[test]
    fn parallel_repro_sums_are_bit_identical_to_serial() {
        // Span several morsels so the parallel path actually splits.
        let n = 3 * SCAN_MORSEL_ROWS + 1234;
        let ids: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| ((i * 2_654_435_761) % 1000) as f64 * 1e-3 - 0.5 + 2.5e-16)
            .collect();
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 128 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 2,
                buffer_size: 64,
            },
            SumBackend::SortedDouble,
        ] {
            let serial = sum_grouped(backend, &ids, &values, 4).unwrap();
            let parallel = sum_by_morsels(backend, &ids, &values, 4).unwrap();
            for g in 0..4 {
                assert_eq!(
                    serial[g].to_bits(),
                    parallel[g].to_bits(),
                    "{backend:?} group {g}"
                );
            }
        }
        // Plain doubles: numerically equal, bitwise not asserted.
        let serial = sum_grouped(SumBackend::Double, &ids, &values, 4).unwrap();
        let parallel = sum_by_morsels(SumBackend::Double, &ids, &values, 4).unwrap();
        for g in 0..4 {
            assert!((serial[g] - parallel[g]).abs() <= 1e-9 * serial[g].abs().max(1.0));
        }
    }

    #[test]
    fn parallel_double_detects_overflow() {
        let n = SCAN_MORSEL_ROWS + 7;
        let ids = vec![0u32; n];
        let mut values = vec![0.0f64; n];
        values[SCAN_MORSEL_ROWS] = f64::MAX;
        values[SCAN_MORSEL_ROWS + 1] = f64::MAX;
        for backend in [SumBackend::Double, SumBackend::SortedDouble] {
            assert_eq!(
                sum_by_morsels(backend, &ids, &values, 1),
                Err(OverflowError),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn batch_partition_is_the_stable_sort_by_group() {
        // Every batch length around the vector width, group counts on
        // both sides of the SIMD kernel's limit; the
        // dispatched build and the scalar counting sort must both produce
        // the stable sort permutation and its segment list — which
        // `select` re-aims at a selection's covering-range offsets.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng
        };
        for n in (0..=40).chain([4096, 4099, 1 << 15]) {
            for groups in [1usize, 2, 3, 16, 17, 64] {
                let gids: Vec<u32> = (0..n)
                    .map(|_| {
                        let r = draw();
                        // Skewed, so some groups stay empty.
                        ((r >> 33) % groups as u64 * (r >> 62) / 3) as u32
                    })
                    .collect();
                // A strictly increasing selection with gaps of 0..=2 rows.
                let mut row = (draw() >> 40) as u32;
                let rows: Vec<u32> = (0..n)
                    .map(|_| {
                        row += 1 + (draw() >> 33) as u32 % 3;
                        row
                    })
                    .collect();
                let mut expected: Vec<u32> = (0..n as u32).collect();
                expected.sort_by_key(|&i| gids[i as usize]); // stable
                let mut segs = Vec::new();
                for (pos, &i) in expected.iter().enumerate() {
                    match segs.last_mut() {
                        Some((g, end)) if *g == gids[i as usize] => *end = pos + 1,
                        _ => segs.push((gids[i as usize], pos + 1)),
                    }
                }
                let reaimed: Vec<u32> = expected
                    .iter()
                    .map(|&i| rows[i as usize] - rows[0])
                    .collect();
                let mut scalar = BatchPartition::default();
                scalar.counting_sort(&gids, groups);
                assert_eq!(scalar.perm, expected, "scalar n {n} groups {groups}");
                assert_eq!(scalar.segs, segs, "scalar n {n} groups {groups}");
                let mut built = BatchPartition::default();
                if built.build(&gids, groups, MIN_SEG) {
                    assert_eq!(built.perm, expected, "build n {n} groups {groups}");
                    assert_eq!(built.segs, segs, "build n {n} groups {groups}");
                    assert_eq!(built.span, n);
                    built.select(&rows);
                    assert_eq!(built.perm, reaimed, "select n {n} groups {groups}");
                    assert_eq!(built.segs, segs, "select n {n} groups {groups}");
                    assert_eq!(built.span, (rows[n - 1] - rows[0]) as usize + 1);
                } else {
                    assert!(groups * MIN_SEG > n);
                }
            }
        }
    }

    #[test]
    fn counts() {
        let ids = vec![0u32, 1, 1, 2, 1];
        assert_eq!(count_grouped(&ids, 3), vec![1, 3, 1]);
    }

    #[test]
    fn rsum_levels_match_fixed_level_backends() {
        let (ids, values) = workload();
        let fixed = sum_grouped(SumBackend::ReproUnbuffered, &ids, &values, 4).unwrap();
        let dynamic = sum_grouped(SumBackend::Rsum { levels: 4 }, &ids, &values, 4).unwrap();
        for g in 0..4 {
            assert_eq!(fixed[g].to_bits(), dynamic[g].to_bits());
        }
        let fixed = sum_grouped(
            SumBackend::ReproBuffered { buffer_size: 128 },
            &ids,
            &values,
            4,
        )
        .unwrap();
        let dynamic = sum_grouped(
            SumBackend::RsumBuffered {
                levels: 4,
                buffer_size: 128,
            },
            &ids,
            &values,
            4,
        )
        .unwrap();
        for g in 0..4 {
            assert_eq!(fixed[g].to_bits(), dynamic[g].to_bits());
        }
    }

    #[test]
    fn rsum_level_controls_accuracy() {
        // 1e16 + 1 - 1e16 per group: L=2 loses the 1.0, L=3 keeps it.
        let ids = vec![0u32, 0, 0];
        let values = vec![1e16, 1.0, -1e16];
        let l2 = sum_grouped(SumBackend::Rsum { levels: 2 }, &ids, &values, 1).unwrap();
        let l3 = sum_grouped(SumBackend::Rsum { levels: 3 }, &ids, &values, 1).unwrap();
        assert_eq!(l2[0], 0.0);
        assert_eq!(l3[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "RSUM levels must be in 1..=4")]
    fn rsum_rejects_invalid_levels() {
        let _ = sum_grouped(SumBackend::Rsum { levels: 9 }, &[0], &[1.0], 1);
    }

    #[test]
    fn batched_updates_match_one_shot_bitwise() {
        // The fused pipeline's contract: feeding the same rows in batches
        // finalizes to the same bits as one update, for every backend.
        let (ids, values) = workload();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 96 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 64,
            },
        ] {
            let reference = sum_grouped(backend, &ids, &values, 4).unwrap();
            for batch in [1usize, 7, 256, 4096] {
                let mut state = GroupedSums::new(backend, 4);
                for (ic, vc) in ids.chunks(batch).zip(values.chunks(batch)) {
                    state.update(ic, vc).unwrap();
                }
                let out = state.finalize();
                for g in 0..4 {
                    assert_eq!(
                        reference[g].to_bits(),
                        out[g].to_bits(),
                        "{backend:?} batch {batch} group {g}"
                    );
                }
            }
        }
    }

    /// A fresh state array of every kind with `groups` slots, and its
    /// name: each SUM kind — `Rsum` at every level — then MIN and MAX.
    fn every_kind(groups: usize) -> Vec<(&'static str, State)> {
        let sums = [SumBackend::Double, SumBackend::SortedDouble]
            .into_iter()
            .chain((1..=4).map(|levels| SumBackend::Rsum { levels }))
            .map(State::sum);
        let extrema = [
            State::Min(Extremum::default()),
            State::Max(Extremum::default()),
        ];
        let names = [
            "Double", "Sorted", "Repro1", "Repro2", "Repro3", "Repro4", "Min", "Max",
        ];
        (names.into_iter().zip(sums.chain(extrema)))
            .map(|(name, mut state)| {
                state.push_groups(groups);
                (name, state)
            })
            .collect()
    }

    /// What a state array answers: the result of its deposits (the first
    /// error stops them), the result of its finalize, and the finalized
    /// values' bits — the answers of groups after an error included.
    type Outcome = (
        Result<(), OverflowError>,
        Result<(), OverflowError>,
        Vec<u64>,
    );

    /// The [`Outcome`] of `state` after deposits that returned `deposited`.
    fn outcome(state: State, deposited: Result<(), OverflowError>) -> Outcome {
        let mut out = Vec::new();
        let finalized = state.finalize(&mut out);
        (
            deposited,
            finalized,
            out.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// The [`Outcome`] of `deposits` for every kind ([`every_kind`]).
    fn outcomes(
        groups: usize,
        mut deposits: impl FnMut(&mut State) -> Result<(), OverflowError>,
    ) -> Vec<(&'static str, Outcome)> {
        (every_kind(groups).into_iter())
            .map(|(name, mut state)| {
                let deposited = deposits(&mut state);
                (name, outcome(state, deposited))
            })
            .collect()
    }

    /// Every kind's one-group answer, in [`every_kind`] order, to the
    /// special-value cells of [`SumBackend`]'s table, plus `2^p + 1 − 2^p`
    /// at three depths, which tells the four repro levels apart. `None` is
    /// [`OverflowError`].
    #[allow(clippy::type_complexity)]
    #[rustfmt::skip]
    fn cells() -> Vec<(&'static str, Vec<f64>, [Option<f64>; 8])> {
        let (inf, nan, max, e) = (f64::INFINITY, f64::NAN, f64::MAX, None);
        let (o, z, n, s) = (Some(1.0), Some(0.0), Some(nan), Some(1e-323));
        let (pi, mi, m0) = (Some(inf), Some(-inf), Some(-0.0));
        let depth = |p: i32| vec![2f64.powi(p), 1.0, -2f64.powi(p)];
        let (p, m) = (|p: i32| Some(2f64.powi(p)), |p: i32| Some(-2f64.powi(p)));
        vec![
            // cell             values                        Double Sorted Repro1..4   Min      Max
            ("NaN",             vec![1.0, nan, 2.0],          [e, e, n, n, n, n,        o,       Some(2.0)]),
            ("+inf",            vec![1.0, inf, 2.0],          [e, e, pi, pi, pi, pi,    o,       pi]),
            ("-inf",            vec![-1.0, -inf],             [e, e, mi, mi, mi, mi,    mi,      Some(-1.0)]),
            ("inf + -inf",      vec![inf, -inf, 1.0],         [e, e, n, n, n, n,        mi,      pi]),
            ("-0.0",            vec![-0.0, -0.0],             [z, z, z, z, z, z,        m0,      m0]),
            ("-0.0 then 0.0",   vec![-0.0, 0.0],              [z, z, z, z, z, z,        m0,      m0]),
            ("subnormal",       vec![5e-324, 1.5e-323, -1e-323], [s, s, s, s, s, s,     Some(-1e-323), Some(1.5e-323)]),
            ("overflow",        vec![max, max, -1.0],         [e, e, pi, pi, pi, pi,    Some(-1.0), Some(max)]),
            ("2^44 + 1 - 2^44", depth(44),                    [o, o, z, o, o, o,        m(44),   p(44)]),
            ("2^84 + 1 - 2^84", depth(84),                    [z, z, z, z, o, o,        m(84),   p(84)]),
            ("2^124 + 1 - 2^124", depth(124),                 [z, z, z, z, z, o,        m(124),  p(124)]),
        ]
    }

    /// The contract's inputs, rows sorted by group (stably, so runs
    /// exist): the workload, then for each cell the workload's first 400
    /// rows with the cell's values as group 4 — and that group's pinned
    /// answer per kind.
    #[allow(clippy::type_complexity)]
    fn inputs() -> Vec<(String, Vec<u32>, Vec<f64>, Option<[Option<f64>; 8]>)> {
        let (ids, values) = workload();
        let mut inputs = vec![("workload".to_string(), ids.clone(), values.clone(), None)];
        for (name, cell, answers) in cells() {
            let mut rows: Vec<(u32, f64)> =
                ids.iter().copied().zip(values.clone()).take(400).collect();
            rows.extend(cell.into_iter().map(|v| (4, v)));
            rows.sort_by_key(|&(g, _)| g);
            let (ids, values) = rows.into_iter().unzip();
            inputs.push((name.to_string(), ids, values, Some(answers)));
        }
        inputs
    }

    /// Asserts that two paths' outcomes are equal, kind by kind.
    fn assert_same(input: &str, a: &[(&str, Outcome)], b: &[(&str, Outcome)]) {
        for ((kind, a), (_, b)) in a.iter().zip(b) {
            assert_eq!(a, b, "{kind} on {input}");
        }
    }

    /// Asserts that two paths answer alike, kind by kind: the same deposit
    /// `Result` always, and the whole outcome where the deposits returned
    /// `Ok` — the state after an [`OverflowError`] is unspecified
    /// ([`States`]).
    fn assert_same_answers(input: &str, a: &[(&str, Outcome)], b: &[(&str, Outcome)]) {
        for ((kind, a), (_, b)) in a.iter().zip(b) {
            assert_eq!(a.0, b.0, "{kind} on {input}");
            if a.0.is_ok() {
                assert_eq!(a, b, "{kind} on {input}");
            }
        }
    }

    #[test]
    fn push_groups_and_merge_slot_match_dense_merge() {
        // Exactly merging kinds: their keyed merge is exact, so the split
        // halves — slots grown incrementally and *permuted* relative to
        // each other — finalize to the one-shot bits. (A Double merge adds
        // subtotals: deterministic, but not the sequential bit pattern.)
        for (input, ids, values, _) in inputs() {
            let whole = outcomes(5, |s| dispatch!(s, |k| k.rows(&ids, &values, None)));
            let mid = ids.len() / 2;
            let split = (every_kind(0).into_iter().zip(every_kind(2)))
                .map(|((name, mut a), (_, mut b))| {
                    a.push_groups(5); // slot g <-> group g
                    b.push_groups(3); // slot s <-> group 4 - s
                    let flipped: Vec<u32> = ids[mid..].iter().map(|&g| 4 - g).collect();
                    let mut deposited =
                        dispatch!(&mut a, |k| k.rows(&ids[..mid], &values[..mid], None));
                    deposited = deposited.and(dispatch!(&mut b, |k| {
                        k.rows(&flipped, &values[mid..], None)
                    }));
                    let slots: Vec<(usize, usize)> = (0..5).map(|g| (g, 4 - g)).collect();
                    deposited = deposited.and(a.merge(&b, &slots));
                    (name, outcome(a, deposited))
                })
                .collect::<Vec<_>>();
            assert_same(&input, &whole[1..], &split[1..]);
        }
        // Double: the merge is a checked addition of subtotals —
        // numerically equal, overflow still detected.
        let (ids, values) = workload();
        let reference = sum_grouped(SumBackend::Double, &ids, &values, 4).unwrap();
        let mid = ids.len() / 2;
        let mut a = GroupedSums::new(SumBackend::Double, 4);
        a.update(&ids[..mid], &values[..mid]).unwrap();
        let mut b = GroupedSums::new(SumBackend::Double, 4);
        b.update(&ids[mid..], &values[mid..]).unwrap();
        let slots: Vec<(usize, usize)> = (0..4).map(|g| (g, g)).collect();
        a.state.merge(&b.state, &slots).unwrap();
        let out = a.finalize();
        for g in 0..4 {
            assert!((reference[g] - out[g]).abs() <= 1e-9 * reference[g].abs().max(1.0));
        }
        let mut x = GroupedSums::new(SumBackend::Double, 1);
        x.update(&[0], &[f64::MAX]).unwrap();
        let mut y = GroupedSums::new(SumBackend::Double, 1);
        y.update(&[0], &[f64::MAX]).unwrap();
        assert_eq!(x.state.merge(&y.state, &[(0, 0)]), Err(OverflowError));
    }

    /// COUNT plus one deposit per row into every aggregate of `states`.
    fn deposit_rows(states: &mut GroupedStates, ids: &[u32], values: &[f64]) {
        states.add_counts(ids);
        let batch = Batch {
            shape: Deposit::Rows,
            gids: ids,
            ..Batch::default()
        };
        let mut part = BatchPartition::default();
        for state in &mut states.aggs {
            deposit(state, &batch, &mut part, Input::Values(values)).unwrap();
        }
    }

    #[test]
    fn grouped_states_compose_all_kinds_and_merge_exactly() {
        let (ids, values) = workload();
        let backend = SumBackend::ReproBuffered { buffer_size: 96 };
        // One-shot reference.
        let mut whole = GroupedStates::new(backend, 4, (1, 1, 1));
        deposit_rows(&mut whole, &ids, &values);
        let (whole_counts, whole) = whole.finalize().unwrap();
        // Batched halves merged like two morsels.
        let mid = ids.len() / 2 + 7;
        let mut left = GroupedStates::new(backend, 4, (1, 1, 1));
        deposit_rows(&mut left, &ids[..mid], &values[..mid]);
        let mut right = GroupedStates::new(backend, 4, (1, 1, 1));
        deposit_rows(&mut right, &ids[mid..], &values[mid..]);
        left.merge(&right, &[(0, 0), (1, 1), (2, 2), (3, 3)])
            .unwrap();
        let (merged_counts, merged) = left.finalize().unwrap();
        assert_eq!(whole_counts, merged_counts);
        for (w, m) in whole.iter().zip(&merged) {
            assert_eq!(
                w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                m.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        // Reference semantics of the extrema.
        for g in 0..4u32 {
            let min = ids
                .iter()
                .zip(&values)
                .filter(|(&i, _)| i == g)
                .map(|(_, &v)| v)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(whole[1][g as usize], min);
        }
    }

    #[test]
    fn grouped_states_single_group_fast_paths_match_grouped() {
        // The scan's ungrouped deposit — one block deposit per batch,
        // through the one deposit function — against per-row deposits
        // into group 0, for every kind. The rows of each input all go to
        // group 0: the special-value cells land mid-group.
        let mut part = BatchPartition::default();
        for (input, _, values, _) in inputs() {
            let zeros = vec![0u32; values.len()];
            let grouped = outcomes(1, |s| dispatch!(s, |k| k.rows(&zeros, &values, None)));
            let single = outcomes(1, |s| {
                let batch = Batch {
                    shape: Deposit::Single,
                    ..Batch::default()
                };
                (values.chunks(997))
                    .try_for_each(|chunk| deposit(s, &batch, &mut part, Input::Values(chunk)))
            });
            assert_same_answers(&input, &grouped, &single);
        }
        // COUNT(*): a batch's length into group 0.
        let mut grouped = GroupedStates::new(SumBackend::ReproUnbuffered, 1, (0, 0, 0));
        grouped.add_counts(&[0; 10_000]);
        let mut single = GroupedStates::new(SumBackend::ReproUnbuffered, 1, (0, 0, 0));
        for chunk in [0u32; 10_000].chunks(997) {
            single.add_count(0, chunk.len());
        }
        assert_eq!(grouped.counts, single.counts);
    }

    #[test]
    fn run_blocked_updates_match_per_row_updates_bitwise() {
        // RLE grouped aggregation's contract: depositing each run of
        // same-group rows as one block call finalizes to the same bits as
        // per-row (group_id, value) updates, for every kind — and so does
        // a batch partitioned by group, read directly or, re-aimed by
        // `select`, out of a selection's covering range. A Double deposit
        // raises on every path alike; the state it leaves is unspecified.
        // The per-row answers of the special-value cells are the ones
        // `SumBackend` documents.
        for (input, ids, values, answers) in inputs() {
            let per_row = outcomes(5, |s| dispatch!(s, |k| k.rows(&ids, &values, None)));
            let blocked = outcomes(5, |s| {
                let mut start = 0;
                ids.chunk_by(|a, b| a == b).try_for_each(|run| {
                    let values = &values[start..start + run.len()];
                    start += run.len();
                    dispatch!(&mut *s, |k| k.run(run[0] as usize, values))
                })
            });
            assert_same_answers(&input, &per_row, &blocked);
            // Every batch partitions (the threshold decides speed, not
            // bits), so the cells land inside segments too.
            let mut part = BatchPartition::default();
            let partitioned = outcomes(5, |s| {
                (ids.chunks(FUSED_BATCH_ROWS)
                    .zip(values.chunks(FUSED_BATCH_ROWS)))
                .try_for_each(|(ids, values)| {
                    let built = part.build(ids, 5, 1);
                    dispatch!(&mut *s, |k| if built {
                        k.partitioned(&mut part, ids, values, None)
                    } else {
                        k.rows(ids, values, None)
                    })
                })
            });
            assert_same_answers(&input, &per_row, &partitioned);
            // Selected rows 7, 8, 10, 11, 13, …: every third row of the
            // covering range is dropped and holds NaN, which no deposit
            // may read.
            let covered = outcomes(5, |s| {
                (ids.chunks(FUSED_BATCH_ROWS)
                    .zip(values.chunks(FUSED_BATCH_ROWS)))
                .try_for_each(|(ids, values)| {
                    let rows: Vec<u32> = (0..ids.len() as u32).map(|i| 7 + i * 3 / 2).collect();
                    let mut range = vec![f64::NAN; rows.last().map_or(0, |&r| r as usize - 6)];
                    for (&r, &v) in rows.iter().zip(values) {
                        range[r as usize - 7] = v;
                    }
                    let built = part.build(ids, 5, 1);
                    if built {
                        part.select(&rows);
                    }
                    dispatch!(&mut *s, |k| if built {
                        k.partitioned(&mut part, ids, &range, Some(&rows))
                    } else {
                        k.rows(ids, &range, Some(&rows))
                    })
                })
            });
            assert_same_answers(&input, &per_row, &covered);
            let Some(answers) = answers else { continue };
            for ((kind, (deposited, finalized, bits)), want) in per_row.iter().zip(answers) {
                let got = deposited
                    .clone()
                    .and(finalized.clone())
                    .map(|()| f64::from_bits(bits[4]));
                let same = match (&got, want) {
                    (Ok(got), Some(want)) => {
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
                    }
                    (got, want) => got.is_err() && want.is_none(),
                };
                assert!(same, "{kind} on {input}: got {got:?}, documented {want:?}");
            }
        }
        // COUNT: one addition per run against one per row.
        let (ids, _) = workload();
        let mut per_row = GroupedStates::new(SumBackend::Double, 4, (0, 0, 0));
        per_row.add_counts(&ids);
        let mut blocked = GroupedStates::new(SumBackend::Double, 4, (0, 0, 0));
        for run in ids.chunk_by(|a, b| a == b) {
            blocked.add_count(run[0] as usize, run.len());
        }
        assert_eq!(per_row.counts, blocked.counts);
        assert_per_row_depths();
    }

    /// An empty array of `s`'s kind.
    fn fresh<S: States + Default>(_: &S) -> S {
        S::default()
    }

    /// Raises group 2's slot to `big`'s rung through one deposit of the
    /// kind `how` names, which [`assert_per_row_depths`] mirrors with
    /// `copies` per-value `add`s of `big`.
    fn raise(how: &str, s: &mut State, big: f64) -> Result<(), OverflowError> {
        match how {
            "run" => dispatch!(s, |k| k.run(2, &[big])),
            "scaled" => dispatch!(s, |k| k.scaled(2, big, 2)),
            "merge_slot" => dispatch!(s, |k| {
                let mut other = fresh(k);
                other.push_groups(1);
                other.add(0, big)?;
                k.merge_slot(2, &other, 0)
            }),
            _ => dispatch!(s, |k| k.add(2, big)),
        }
    }

    /// The per-row cases of [`run_blocked_updates_match_per_row_updates_bitwise`]
    /// that pin a batch's cascade depth (DESIGN.md S3): group 2's slot
    /// raised to 2^84's rung by each deposit that can promote it — a run,
    /// a `k·v`, a merged slot, a cold per-value `add` — then one per-row
    /// batch of small values, then 2^84 taken back out, so the answer
    /// lies in the levels the raised rung pushes those values down to.
    /// The batches: small values alone, or with a NaN, ±∞, a value past
    /// the binnable limit in group 0, or only zeros; deposited directly,
    /// and out of a covering range whose dropped rows hold NaN or a
    /// deeper value. Every path must match the same values deposited one
    /// `add` at a time.
    fn assert_per_row_depths() {
        let big = 2f64.powi(84);
        let ids: Vec<u32> = (0..600).map(|i| i % 5).collect();
        let small: Vec<f64> = (0..600).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let with = |v: f64| {
            let mut values = small.clone();
            values[50] = v; // group 0
            values
        };
        let batches = [
            ("small", small.clone()),
            ("NaN", with(f64::NAN)),
            ("+inf", with(f64::INFINITY)),
            ("-inf", with(-f64::INFINITY)),
            ("2^1010", with(2f64.powi(1010))),
            ("zeros", (0..600).map(|i| [0.0, -0.0][i % 2]).collect()),
        ];
        for how in ["add", "run", "scaled", "merge_slot"] {
            let copies = if how == "scaled" { 2 } else { 1 };
            for (batch, values) in &batches {
                let input = format!("{batch} batch after a raising {how}");
                let cancel = |s: &mut State| {
                    (0..copies).try_for_each(|_| dispatch!(&mut *s, |k| k.add(2, -big)))
                };
                let one_by_one = outcomes(5, |s| {
                    (0..copies).try_for_each(|_| dispatch!(&mut *s, |k| k.add(2, big)))?;
                    (ids.iter().zip(values))
                        .try_for_each(|(&g, &v)| dispatch!(&mut *s, |k| k.add(g as usize, v)))?;
                    cancel(s)
                });
                let batched = outcomes(5, |s| {
                    raise(how, s, big)?;
                    dispatch!(&mut *s, |k| k.rows(&ids, values, None))?;
                    cancel(s)
                });
                assert_same_answers(&input, &one_by_one, &batched);
                for dropped in [f64::NAN, 1e-300] {
                    // Selected rows 0, 2, 4, …; the others hold `dropped`.
                    let rows: Vec<u32> = (0..600).map(|i| 2 * i).collect();
                    let mut range = vec![dropped; 1199];
                    for (&r, &v) in rows.iter().zip(values) {
                        range[r as usize] = v;
                    }
                    let covered = outcomes(5, |s| {
                        raise(how, s, big)?;
                        dispatch!(&mut *s, |k| k.rows(&ids, &range, Some(&rows)))?;
                        cancel(s)
                    });
                    let input = format!("{input}, dropped rows {dropped:e}");
                    assert_same_answers(&input, &one_by_one, &covered);
                }
            }
        }
    }

    /// `GroupedSums::update` with one more value than group ids, and one
    /// more group id than values, panics for each backend — at every
    /// optimization level.
    macro_rules! update_length_mismatch_panics {
        ($($name:ident: $backend:expr,)*) => {$(
            mod $name {
                use super::*;

                #[test]
                #[should_panic(expected = "one value per group id")]
                fn more_values_than_group_ids() {
                    let mut sums = GroupedSums::new($backend, 1);
                    let _ = sums.update(&[0; 1024], &[1.0; 1025]);
                }

                #[test]
                #[should_panic(expected = "one value per group id")]
                fn more_group_ids_than_values() {
                    let mut sums = GroupedSums::new($backend, 1);
                    let _ = sums.update(&[0; 1025], &[1.0; 1024]);
                }
            }
        )*};
    }

    update_length_mismatch_panics! {
        update_mismatch_double: SumBackend::Double,
        update_mismatch_sorted_double: SumBackend::SortedDouble,
        update_mismatch_repro_unbuffered: SumBackend::ReproUnbuffered,
        update_mismatch_repro_buffered: SumBackend::ReproBuffered { buffer_size: 1024 },
        update_mismatch_rsum: SumBackend::Rsum { levels: 2 },
        update_mismatch_rsum_buffered: SumBackend::RsumBuffered { levels: 3, buffer_size: 64 },
    }

    #[test]
    fn scaled_deposits_match_per_row_updates_bitwise() {
        // The algebraic-pushdown contract: depositing k copies of v as one
        // `scaled` call finalizes to the same bits as k per-row deposits —
        // for every kind, k = 0 included, including Double (which takes a
        // literal per-element loop rather than an algebraic fold). Runs of
        // zero copies of extreme values must not move MIN or MAX.
        let mut runs: Vec<(u32, f64, u64)> = (0..200)
            .map(|i| {
                let g = (i % 4) as u32;
                let v = ((i * 37) % 101) as f64 * 0.017 - 0.85;
                let k = (i * 2_654_435_761u64) % 23;
                (g, v, k)
            })
            .collect();
        runs.extend([(4, -1e300, 0), (4, 1e300, 0), (4, 1.0, 2)]);
        let mut cases = vec![("runs".to_string(), runs)];
        for (input, ids, values, _) in inputs() {
            cases.push((
                input,
                ids.into_iter()
                    .zip(values)
                    .zip(0..)
                    .map(|((g, v), i)| (g, v, i % 4))
                    .collect(),
            ));
        }
        for (input, runs) in cases {
            let per_row = outcomes(5, |s| {
                (runs.iter()).try_for_each(|&(g, v, k)| {
                    (0..k).try_for_each(|_| dispatch!(&mut *s, |x| x.add(g as usize, v)))
                })
            });
            let scaled = outcomes(5, |s| {
                (runs.iter())
                    .try_for_each(|&(g, v, k)| dispatch!(&mut *s, |x| x.scaled(g as usize, v, k)))
            });
            assert_same(&input, &per_row, &scaled);
        }
    }

    #[test]
    fn scaled_deposit_double_detects_overflow() {
        let mut s = State::sum(SumBackend::Double);
        s.push_groups(1);
        assert_eq!(
            dispatch!(&mut s, |k| k.scaled(0, f64::MAX, 3)),
            Err(OverflowError)
        );
    }

    #[test]
    fn run_blocked_double_detects_overflow() {
        let mut s = State::sum(SumBackend::Double);
        s.push_groups(2);
        assert_eq!(
            dispatch!(&mut s, |k| k.run(1, &[f64::MAX, f64::MAX])),
            Err(OverflowError)
        );
    }

    #[test]
    fn grouped_states_ensure_groups_grows_all_arrays() {
        let backend = SumBackend::RsumBuffered {
            levels: 2,
            buffer_size: 16,
        };
        let mut s = GroupedStates::new(backend, 0, (2, 1, 1));
        assert_eq!(s.groups(), 0);
        s.ensure_groups(3);
        s.ensure_groups(2); // shrink requests are no-ops
        assert_eq!(s.groups(), 3);
        dispatch!(&mut s.aggs[1], |k| k.add(2, 1.5)).unwrap();
        dispatch!(&mut s.aggs[2], |k| k.add(0, 4.0)).unwrap();
        dispatch!(&mut s.aggs[3], |k| k.add(1, -4.0)).unwrap();
        let (counts, out) = s.finalize().unwrap();
        assert_eq!(counts, vec![0, 0, 0]);
        assert_eq!(out[1][2], 1.5);
        assert_eq!(out[2][0], 4.0);
        assert_eq!(out[2][1], f64::INFINITY);
        assert_eq!(out[3][1], -4.0);
    }

    #[test]
    fn update_single_matches_grouped_updates_bitwise() {
        // Q6's single-group fast path (vectorized kernel for unbuffered
        // repro) must equal the dense-grouped path with all-zero ids.
        let values: Vec<f64> = (0..30_000)
            .map(|i| ((i * 2_654_435_761u64) % 997) as f64 * 1e-2 - 4.9)
            .collect();
        let ids = vec![0u32; values.len()];
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::Rsum { levels: 2 },
            SumBackend::ReproBuffered { buffer_size: 128 },
        ] {
            let reference = sum_grouped(backend, &ids, &values, 1).unwrap();
            let mut state = GroupedSums::new(backend, 1);
            for chunk in values.chunks(1000) {
                state.update_single(chunk).unwrap();
            }
            assert_eq!(
                reference[0].to_bits(),
                state.finalize()[0].to_bits(),
                "{backend:?}"
            );
        }
    }
}

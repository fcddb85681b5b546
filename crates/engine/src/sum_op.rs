//! The engine's grouped SUM operator with pluggable numeric backends
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
//! The operator state is reified as [`GroupedSums`]: an incremental,
//! mergeable per-group accumulator array that the fused scan pipeline
//! (`crate::fused`) feeds batch-at-a-time, and that the one-shot
//! [`sum_grouped`] wrapper drives over whole arrays. Both drivers perform
//! the identical per-slot operation sequence, so they finalize to the
//! same bits.
//!
//! Backends:
//!
//! * [`SumBackend::Double`] — MonetDB's own behaviour: plain `dbl` sum
//!   *with per-element overflow checking* (MonetDB's `ADD_WITH_CHECK`
//!   macros; the paper notes this makes the baseline slower than a raw
//!   loop, §VI-E). Order-sensitive.
//! * [`SumBackend::ReproUnbuffered`] — `repro<double, L>` per group, one
//!   per-row `add` per value: the paper's drop-in type.
//! * [`SumBackend::ReproBuffered`] — the same `repro<double, L>` states,
//!   fed *partition-then-aggregate* at batch granularity: when a batch
//!   holds few groups relative to its rows ([`MIN_SEG`]) it is
//!   counting-sorted by group id once ([`BatchPartition`]) and every
//!   group's values go through the vectorized block kernel in one call.
//!   The staging lives with the batch, not with the group — there are no
//!   per-group summation buffers in the engine.
//! * [`SumBackend::SortedDouble`] — the "sort the input, then sum
//!   doubles" baseline of Table IV. Each group keeps the values deposited
//!   into it; finalization sorts them ascending by bit pattern and adds
//!   them in that order from `+0.0`. The state is a function of the input
//!   multiset, so — like the repro states, and unlike `Double` — it
//!   merges exactly, in any schedule (Goodrich & Eldawy).

use crate::fused::FUSED_BATCH_ROWS;
use rfa_core::{simd, ReproSum};

/// Rows per morsel in the engine's parallel scans and aggregations.
pub const SCAN_MORSEL_ROWS: usize = 1 << 16;

/// Numeric backend of the grouped SUM operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SumBackend {
    /// Plain double with MonetDB-style overflow checks (non-reproducible).
    Double,
    /// `repro<double, 4>` drop-in (reproducible, unbuffered).
    ReproUnbuffered,
    /// `repro<double, 4>` with batch-partitioned block deposits (see
    /// [`BatchPartition`]). `buffer_size` sizes nothing: the staging area
    /// is the scan batch, shared by all groups. The field remains because
    /// the wire format and the benchmark construct it; any value gives
    /// the same bits at the same speed.
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

    /// Whether grouped batches deposit through a [`BatchPartition`].
    pub fn buffered(self) -> bool {
        matches!(
            self,
            SumBackend::ReproBuffered { .. } | SumBackend::RsumBuffered { .. }
        )
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
/// core's share of L2 on the hosts this runs on (2^14 groups of
/// `ReproSum<f64, 4>` are 1.9 MiB). Set by measurement: below it the hint
/// costs 1.2–1.5 ns/row and saves nothing (EXPERIMENTS.md).
const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// Rows of lookahead of the deposit prefetch — far enough to cover an L3
/// hit at 3–6 ns per deposit, near enough to stay inside one batch.
const PREFETCH_AHEAD: usize = 16;

/// Requests every cache line the `T` at `p` lies on — three for most
/// slots of a 120-byte `ReproSum<f64, 4>` array, whose 8-byte alignment
/// lets a slot start anywhere in a line. A hint only: it has no
/// architectural effect and never faults, whatever `p` is — and it is a
/// no-op off x86-64.
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

/// Per-group reproducible states at one ladder height `L`.
struct ReproStates<const L: usize>(Vec<ReproSum<f64, L>>);

impl<const L: usize> ReproStates<L> {
    fn new(groups: usize) -> Self {
        ReproStates(vec![ReproSum::new(); groups])
    }

    fn push_groups(&mut self, n: usize) {
        self.0.extend((0..n).map(|_| ReproSum::new()));
    }

    /// Per-row deposits. A state array larger than a core's share of L2
    /// ([`PREFETCH_MIN_BYTES`]) misses on nearly every row of a
    /// high-cardinality batch, so the state of row `i +`
    /// [`PREFETCH_AHEAD`] is requested while row `i` is added; a resident
    /// array skips the hint, which there only costs issue slots.
    fn update(&mut self, group_ids: &[u32], values: impl Iterator<Item = f64>) {
        if std::mem::size_of_val(self.0.as_slice()) <= PREFETCH_MIN_BYTES {
            for (&g, v) in group_ids.iter().zip(values) {
                self.0[g as usize].add(v);
            }
            return;
        }
        // The batch's last rows ask for the last row's state again: a
        // hint for a line already on its way costs nothing.
        let (base, last) = (self.0.as_ptr(), group_ids.len().saturating_sub(1));
        for (i, (&g, v)) in group_ids.iter().zip(values).enumerate() {
            let ahead = group_ids[(i + PREFETCH_AHEAD).min(last)];
            prefetch(base.wrapping_add(ahead as usize));
            self.0[g as usize].add(v);
        }
    }

    /// Block deposit: a slice of values all belonging to one group goes
    /// through the vectorized block kernel (Algorithm 3), bit-identical
    /// to per-row `add` by the §III-D exactness argument — un-grouped
    /// scans, RLE runs over group-key columns, partitioned batches.
    fn update_run(&mut self, group: usize, values: &[f64]) {
        simd::add_slice(&mut self.0[group], values);
    }

    /// Algebraic deposit of `k` copies of `v` (RLE runs over *value*
    /// columns). Bit-identical to `k` per-row
    /// adds by the exact scaled fold of [`ReproSum::add_scaled`].
    fn update_scaled(&mut self, group: usize, v: f64, k: u64) {
        self.0[group].add_scaled(v, k);
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.merge(b);
        }
    }

    fn finalize(self) -> Vec<f64> {
        self.0.into_iter().map(|s| s.finalize()).collect()
    }
}

/// Minimum average rows per group slot for a batch to be partitioned: a
/// batch of `n` rows over `groups` slots takes the [`BatchPartition`] path
/// when `groups · MIN_SEG ≤ n` — at most 8 groups in a default 4096-row
/// batch — and per-row `add` otherwise. Set by `criterion_micro`'s
/// `grouped_deposit` sweep (EXPERIMENTS.md, Fig. 10 row) at the last
/// group count where the partitioned operator beats the per-row one:
/// past it, partitioning a batch costs more than the block kernel gives
/// back on a single SUM. Bit-invisible — both sides of the threshold
/// produce identical states.
pub const MIN_SEG: usize = 512;

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
/// its histogram) and by every SUM state array, each of which gathers its
/// evaluated values through the permutation and deposits one block call
/// per group. (MIN / MAX keep their per-row folds over the row-ordered
/// group ids: a compare-and-keep per row is cheaper than the gather.)
///
/// **Selecting while partitioning.** Re-aimed at the batch's selection
/// ([`Self::select`]), the permutation lists *offsets into the
/// selection's covering range* instead — `rows[i] - rows[0]` for batch
/// position `i`. The values then handed to the gather are that whole
/// range's, selected or not, and the gather every SUM state performs
/// anyway picks exactly the selected rows, group by group: the paper's
/// §V buffer fill, which never sees how its per-group batch was
/// assembled.
///
/// **Why no bit can change.** The counting sort is stable, so each group
/// slot receives exactly the values it would receive per row, in the same
/// order; the block kernel is bit-transparent to per-value `add`
/// (§III-D). Only *when* a slot is visited differs — never what it sees.
#[derive(Default)]
pub struct BatchPartition {
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
    /// — without partitioning — when the batch has fewer than [`MIN_SEG`]
    /// rows per group slot; the caller then deposits per row.
    pub fn build(&mut self, group_ids: &[u32], groups: usize) -> bool {
        if groups.saturating_mul(MIN_SEG) > group_ids.len() {
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
    pub fn select(&mut self, rows: &[u32]) {
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
    pub fn segs(&self) -> &[(u32, usize)] {
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

/// Incremental per-group SUM state for one backend: the engine's
/// "locally allocated array" of intermediate aggregates, consumable
/// batch-at-a-time and mergeable across morsels.
///
/// For a given input split into batches in row order, the per-slot
/// operation sequence is identical to a single [`sum_grouped`] pass, so
/// batched (fused) and one-shot execution finalize to the same bits for
/// *every* backend.
pub struct GroupedSums {
    inner: Inner,
    /// [`GroupedSums::update`]'s own partition scratch — `Some` exactly
    /// for the [buffered](SumBackend::buffered) backends. (The fused scan
    /// shares one partition across all of a batch's states instead and
    /// calls [`GroupedSums::update_partitioned`].)
    partition: Option<BatchPartition>,
}

enum Inner {
    Double(Vec<f64>),
    /// [`SumBackend::SortedDouble`]: every group's deposited values, in
    /// no particular order until [`sorted_sum`] sorts them.
    Sorted(Vec<Vec<f64>>),
    Repro1(ReproStates<1>),
    Repro2(ReproStates<2>),
    Repro3(ReproStates<3>),
    Repro4(ReproStates<4>),
}

/// The sort-first baseline's sum of one group: its values ascending by
/// bit pattern (ties are equal bits, so the order is total), added in that
/// order from `+0.0`.
fn sorted_sum(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by_key(|v| v.to_bits());
    values.into_iter().fold(0.0, |sum, v| sum + v)
}

impl Inner {
    fn groups(&self) -> usize {
        match self {
            Inner::Double(acc) => acc.len(),
            Inner::Sorted(lists) => lists.len(),
            Inner::Repro1(s) => s.0.len(),
            Inner::Repro2(s) => s.0.len(),
            Inner::Repro3(s) => s.0.len(),
            Inner::Repro4(s) => s.0.len(),
        }
    }

    /// One per-row deposit per `(group_id, value)` pair.
    fn update_rows(
        &mut self,
        group_ids: &[u32],
        values: impl Iterator<Item = f64>,
    ) -> Result<(), OverflowError> {
        match self {
            Inner::Double(acc) => {
                for (&g, v) in group_ids.iter().zip(values) {
                    let slot = &mut acc[g as usize];
                    *slot += v;
                    // MonetDB's ADD_WITH_CHECK: per-element result check.
                    if !slot.is_finite() {
                        return Err(OverflowError);
                    }
                }
            }
            Inner::Sorted(lists) => {
                for (&g, v) in group_ids.iter().zip(values) {
                    lists[g as usize].push(v);
                }
            }
            Inner::Repro1(s) => s.update(group_ids, values),
            Inner::Repro2(s) => s.update(group_ids, values),
            Inner::Repro3(s) => s.update(group_ids, values),
            Inner::Repro4(s) => s.update(group_ids, values),
        }
        Ok(())
    }

    fn update_run(&mut self, group: usize, values: &[f64]) -> Result<(), OverflowError> {
        match self {
            Inner::Double(acc) => {
                let slot = &mut acc[group];
                for &v in values {
                    *slot += v;
                    if !slot.is_finite() {
                        return Err(OverflowError);
                    }
                }
            }
            Inner::Sorted(lists) => lists[group].extend_from_slice(values),
            Inner::Repro1(s) => s.update_run(group, values),
            Inner::Repro2(s) => s.update_run(group, values),
            Inner::Repro3(s) => s.update_run(group, values),
            Inner::Repro4(s) => s.update_run(group, values),
        }
        Ok(())
    }

    fn update_partitioned(
        &mut self,
        part: &mut BatchPartition,
        values: &[f64],
    ) -> Result<(), OverflowError> {
        let (sorted, segs) = part.gather(values);
        let mut start = 0;
        for &(g, end) in segs {
            self.update_run(g as usize, &sorted[start..end])?;
            start = end;
        }
        Ok(())
    }
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
        let inner = match backend {
            SumBackend::Double => Inner::Double(vec![0.0; groups]),
            SumBackend::SortedDouble => Inner::Sorted(vec![Vec::new(); groups]),
            SumBackend::ReproUnbuffered | SumBackend::ReproBuffered { .. } => {
                Inner::Repro4(ReproStates::new(groups))
            }
            SumBackend::Rsum { levels } | SumBackend::RsumBuffered { levels, .. } => match levels {
                1 => Inner::Repro1(ReproStates::new(groups)),
                2 => Inner::Repro2(ReproStates::new(groups)),
                3 => Inner::Repro3(ReproStates::new(groups)),
                _ => Inner::Repro4(ReproStates::new(groups)),
            },
        };
        GroupedSums {
            inner,
            partition: backend.buffered().then(BatchPartition::default),
        }
    }

    /// Folds one batch of `(group_id, value)` pairs into the states. The
    /// buffered backends walk it in [`FUSED_BATCH_ROWS`] chunks, each
    /// partitioned by group when [`MIN_SEG`] allows — the same deposit
    /// the fused scan performs per batch.
    pub fn update(&mut self, group_ids: &[u32], values: &[f64]) -> Result<(), OverflowError> {
        debug_assert_eq!(group_ids.len(), values.len());
        let Some(part) = &mut self.partition else {
            return self.inner.update_rows(group_ids, values.iter().copied());
        };
        let groups = self.inner.groups();
        for (ids, vals) in group_ids
            .chunks(FUSED_BATCH_ROWS)
            .zip(values.chunks(FUSED_BATCH_ROWS))
        {
            if part.build(ids, groups) {
                self.inner.update_partitioned(part, vals)?;
            } else {
                self.inner.update_rows(ids, vals.iter().copied())?;
            }
        }
        Ok(())
    }

    /// Deposits one batch's `values` (row order) through a partition
    /// [built](BatchPartition::build) over the same batch's group ids:
    /// one [`GroupedSums::update_run`] block call per non-empty group.
    /// Bit-identical to [`GroupedSums::update`] over `(group_ids, values)`
    /// (see [`BatchPartition`]).
    pub fn update_partitioned(
        &mut self,
        part: &mut BatchPartition,
        values: &[f64],
    ) -> Result<(), OverflowError> {
        self.inner.update_partitioned(part, values)
    }

    /// Folds a batch that belongs entirely to group 0 (the un-grouped SUM
    /// of Q6): [`GroupedSums::update_run`] aimed at slot 0.
    pub fn update_single(&mut self, values: &[f64]) -> Result<(), OverflowError> {
        self.update_run(0, values)
    }

    /// Folds a batch that belongs entirely to group `group` — the
    /// run-blocked deposit of RLE grouped aggregation and of partitioned
    /// batches. Repro states take the vectorized block kernel
    /// (Algorithm 3): per-slot operation sequences (and thus final bits)
    /// match the per-row [`GroupedSums::update`] path exactly, because
    /// the block kernel is bit-transparent to per-value deposits (§III-D)
    /// and the Double backend keeps its per-element overflow-checked loop.
    pub fn update_run(&mut self, group: usize, values: &[f64]) -> Result<(), OverflowError> {
        self.inner.update_run(group, values)
    }

    /// Deposits `k` copies of `v` into group `group` *algebraically* —
    /// one exact k·v fold instead of `k` additions. For every repro
    /// backend the result is bit-identical to `k` per-row deposits
    /// ([`rfa_core::ReproSum::add_scaled`], DESIGN.md §26); this is the
    /// state-level primitive behind the fused executor's RLE-run
    /// aggregate pushdown. The sorted baseline appends `k` copies.
    ///
    /// The `Double` backend has no algebraic shortcut — plain doubles are
    /// order-sensitive, `k·v ≠ v + … + v` in general — so it keeps the
    /// per-element overflow-checked loop. The fused executor never routes
    /// `Double` here (it gates the rewrite on
    /// [`SumBackend::merges_exactly`]); the loop exists so this method is
    /// semantics-preserving for every backend regardless of caller.
    pub fn update_scaled(&mut self, group: usize, v: f64, k: u64) -> Result<(), OverflowError> {
        match &mut self.inner {
            Inner::Double(acc) => {
                let slot = &mut acc[group];
                for _ in 0..k {
                    *slot += v;
                    if !slot.is_finite() {
                        return Err(OverflowError);
                    }
                }
            }
            Inner::Sorted(lists) => lists[group].extend(std::iter::repeat_n(v, k as usize)),
            Inner::Repro1(s) => s.update_scaled(group, v, k),
            Inner::Repro2(s) => s.update_scaled(group, v, k),
            Inner::Repro3(s) => s.update_scaled(group, v, k),
            Inner::Repro4(s) => s.update_scaled(group, v, k),
        }
        Ok(())
    }

    /// Number of group slots.
    pub fn groups(&self) -> usize {
        self.inner.groups()
    }

    /// Appends `n` fresh zeroed group slots. The hash-grouped scan calls
    /// this as it discovers new keys — dense callers size up front.
    pub fn push_groups(&mut self, n: usize) {
        match &mut self.inner {
            Inner::Double(acc) => acc.resize(acc.len() + n, 0.0),
            Inner::Sorted(lists) => lists.resize_with(lists.len() + n, Vec::new),
            Inner::Repro1(s) => s.push_groups(n),
            Inner::Repro2(s) => s.push_groups(n),
            Inner::Repro3(s) => s.push_groups(n),
            Inner::Repro4(s) => s.push_groups(n),
        }
    }

    /// Merges one group slot of `other` into one slot of `self` — the
    /// keyed merge of hash-grouped partials, where the same group key may
    /// live at different dense slots on different morsels. Exact for every
    /// backend that [merges exactly](SumBackend::merges_exactly), a
    /// checked addition for doubles, exactly like [`GroupedSums::merge`].
    pub fn merge_slot(
        &mut self,
        dst: usize,
        other: &GroupedSums,
        src: usize,
    ) -> Result<(), OverflowError> {
        match (&mut self.inner, &other.inner) {
            (Inner::Double(a), Inner::Double(b)) => {
                a[dst] += b[src];
                if !a[dst].is_finite() {
                    return Err(OverflowError);
                }
            }
            (Inner::Sorted(a), Inner::Sorted(b)) => a[dst].extend_from_slice(&b[src]),
            (Inner::Repro1(a), Inner::Repro1(b)) => a.0[dst].merge(&b.0[src]),
            (Inner::Repro2(a), Inner::Repro2(b)) => a.0[dst].merge(&b.0[src]),
            (Inner::Repro3(a), Inner::Repro3(b)) => a.0[dst].merge(&b.0[src]),
            (Inner::Repro4(a), Inner::Repro4(b)) => a.0[dst].merge(&b.0[src]),
            _ => panic!("merging GroupedSums of different backends"),
        }
        Ok(())
    }

    /// Merges another state array of the same backend and group count.
    /// Exact (bit-transparent) for the repro backends; the sorted baseline
    /// concatenates value lists; a plain checked addition per group for
    /// doubles.
    pub fn merge(&mut self, other: GroupedSums) -> Result<(), OverflowError> {
        match (&mut self.inner, other.inner) {
            (Inner::Double(a), Inner::Double(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                    if !x.is_finite() {
                        return Err(OverflowError);
                    }
                }
            }
            (Inner::Sorted(a), Inner::Sorted(b)) => {
                for (x, mut y) in a.iter_mut().zip(b) {
                    x.append(&mut y);
                }
            }
            (Inner::Repro1(a), Inner::Repro1(b)) => a.merge(&b),
            (Inner::Repro2(a), Inner::Repro2(b)) => a.merge(&b),
            (Inner::Repro3(a), Inner::Repro3(b)) => a.merge(&b),
            (Inner::Repro4(a), Inner::Repro4(b)) => a.merge(&b),
            _ => panic!("merging GroupedSums of different backends"),
        }
        Ok(())
    }

    /// Rounds every group state to a double.
    pub fn finalize(self) -> Vec<f64> {
        match self.inner {
            Inner::Double(acc) => acc,
            Inner::Sorted(lists) => lists.into_iter().map(sorted_sum).collect(),
            Inner::Repro1(s) => s.finalize(),
            Inner::Repro2(s) => s.finalize(),
            Inner::Repro3(s) => s.finalize(),
            Inner::Repro4(s) => s.finalize(),
        }
    }

    /// [`GroupedSums::finalize`] with the sorted baseline's overflow
    /// check, where the engine finalizes. One `is_finite` per sum raises
    /// [`OverflowError`] exactly when a check after every addition would:
    /// once an IEEE sum is ±∞ or NaN, adding anything keeps it non-finite.
    /// (`Double` checked every addition as it went.)
    fn finalize_checked(self) -> Result<Vec<f64>, OverflowError> {
        let sorted = matches!(self.inner, Inner::Sorted(_));
        let sums = self.finalize();
        if sorted && !sums.iter().all(|s| s.is_finite()) {
            return Err(OverflowError);
        }
        Ok(sums)
    }
}

/// Composed per-group aggregate states of one query: an exact integer
/// COUNT, any number of SUM state arrays ([`GroupedSums`], one per
/// distinct SUM input expression — AVG shares its input's SUM state), and
/// any number of MIN/MAX value arrays. This is the generalized sink of the
/// fused scan: the SUM-only `Vec<GroupedSums>` of the original executor,
/// widened to the aggregate kinds of the plan layer.
///
/// **Merge discipline.** COUNT merges by integer addition, SUM by the
/// backend's state merge (exact for the repro backends), MIN/MAX by
/// comparison folds that keep the *destination* value on ties. Since the
/// parallel reduction merges morsels in index order along a deterministic
/// split tree, the destination always holds earlier rows, so the fold
/// resolves ties (e.g. `-0.0` vs `0.0`) exactly like the serial
/// first-occurrence scan — MIN/MAX are bit-identical at any thread count
/// for *every* backend. NaN values never win a comparison and thus never
/// enter a MIN/MAX slot.
pub struct GroupedStates {
    counts: Vec<u64>,
    sums: Vec<GroupedSums>,
    mins: Vec<Vec<f64>>,
    maxs: Vec<Vec<f64>>,
}

/// Finalized per-group values of a [`GroupedStates`]: every SUM rounded to
/// a double, MIN/MAX as accumulated (`+∞`/`-∞` for groups that exist but
/// received no values — callers drop empty groups before exposing them).
pub struct GroupedOutput {
    pub counts: Vec<u64>,
    pub sums: Vec<Vec<f64>>,
    pub mins: Vec<Vec<f64>>,
    pub maxs: Vec<Vec<f64>>,
}

impl GroupedStates {
    /// Creates states for `groups` dense group ids: `sum_states` SUM
    /// arrays of `backend`, plus `min_states`/`max_states` extrema arrays.
    pub fn new(
        backend: SumBackend,
        groups: usize,
        sum_states: usize,
        min_states: usize,
        max_states: usize,
    ) -> Self {
        GroupedStates {
            counts: vec![0; groups],
            sums: (0..sum_states)
                .map(|_| GroupedSums::new(backend, groups))
                .collect(),
            mins: vec![vec![f64::INFINITY; groups]; min_states],
            maxs: vec![vec![f64::NEG_INFINITY; groups]; max_states],
        }
    }

    /// Current number of group slots.
    pub fn groups(&self) -> usize {
        self.counts.len()
    }

    /// Grows every state array to at least `groups` slots (hash grouping
    /// discovers group keys scan-order incrementally).
    pub fn ensure_groups(&mut self, groups: usize) {
        let cur = self.counts.len();
        if groups <= cur {
            return;
        }
        let n = groups - cur;
        self.counts.resize(groups, 0);
        for s in &mut self.sums {
            s.push_groups(n);
        }
        for m in &mut self.mins {
            m.resize(groups, f64::INFINITY);
        }
        for m in &mut self.maxs {
            m.resize(groups, f64::NEG_INFINITY);
        }
    }

    /// COUNT(*) deposit for one batch of group ids.
    pub fn add_counts(&mut self, group_ids: &[u32]) {
        for &g in group_ids {
            self.counts[g as usize] += 1;
        }
    }

    /// COUNT(*) deposit for a batch that belongs entirely to group 0.
    pub fn add_count_single(&mut self, rows: u64) {
        self.counts[0] += rows;
    }

    /// COUNT(*) deposit for a run of `rows` rows in one group.
    pub fn add_count_run(&mut self, group: usize, rows: u64) {
        self.counts[group] += rows;
    }

    /// COUNT(*) deposit of a partitioned batch: the segment lengths are
    /// the batch's per-group histogram.
    pub fn add_counts_partitioned(&mut self, part: &BatchPartition) {
        let mut start = 0;
        for &(g, end) in part.segs() {
            self.counts[g as usize] += (end - start) as u64;
            start = end;
        }
    }

    /// Per-group counts accumulated so far.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// SUM deposit into state array `slot` (see [`GroupedSums::update`]).
    pub fn update_sum(
        &mut self,
        slot: usize,
        group_ids: &[u32],
        values: &[f64],
    ) -> Result<(), OverflowError> {
        self.sums[slot].update(group_ids, values)
    }

    /// Per-row SUM deposit of one scan batch into state array `slot`,
    /// never partitioned (the scan has decided). With `rows` — the
    /// batch's strictly increasing selection — `values` holds one value
    /// per row of the selection's covering range and the deposit reads
    /// the selected ones through it: the values of dropped rows are never
    /// looked at. Without, one value per group id.
    pub fn update_sum_rows(
        &mut self,
        slot: usize,
        group_ids: &[u32],
        values: &[f64],
        rows: Option<&[u32]>,
    ) -> Result<(), OverflowError> {
        let inner = &mut self.sums[slot].inner;
        match rows {
            Some(rows) => inner.update_rows(group_ids, selected(values, rows)),
            None => inner.update_rows(group_ids, values.iter().copied()),
        }
    }

    /// SUM deposit of a partitioned batch into state array `slot` (see
    /// [`GroupedSums::update_partitioned`]).
    pub fn update_sum_partitioned(
        &mut self,
        slot: usize,
        part: &mut BatchPartition,
        values: &[f64],
    ) -> Result<(), OverflowError> {
        self.sums[slot].update_partitioned(part, values)
    }

    /// Single-group SUM fast path (see [`GroupedSums::update_single`]).
    pub fn update_sum_single(&mut self, slot: usize, values: &[f64]) -> Result<(), OverflowError> {
        self.sums[slot].update_single(values)
    }

    /// Run-blocked SUM deposit into one group (see
    /// [`GroupedSums::update_run`]).
    pub fn update_sum_run(
        &mut self,
        slot: usize,
        group: usize,
        values: &[f64],
    ) -> Result<(), OverflowError> {
        self.sums[slot].update_run(group, values)
    }

    /// Algebraic SUM deposit: `k` copies of `v` folded into group `group`
    /// of state array `slot` as one exact k·v deposit (see
    /// [`GroupedSums::update_scaled`]). Bit-identical to `k` per-row
    /// deposits for every backend that
    /// [merges exactly](SumBackend::merges_exactly); the `Double` backend
    /// falls back to a per-element loop.
    pub fn deposit_scaled(
        &mut self,
        slot: usize,
        group: usize,
        v: f64,
        k: u64,
    ) -> Result<(), OverflowError> {
        self.sums[slot].update_scaled(group, v, k)
    }

    /// MIN deposit of a single candidate value — the once-per-run /
    /// once-per-dictionary-entry fold of encoded aggregate pushdown
    /// (comparisons are idempotent, so one fold of `v` is trivially
    /// bit-identical to `k` folds of `v`).
    pub fn update_min_value(&mut self, slot: usize, group: usize, v: f64) {
        let cur = &mut self.mins[slot][group];
        if v < *cur {
            *cur = v;
        }
    }

    /// MAX deposit of a single candidate value (see
    /// [`GroupedStates::update_min_value`]).
    pub fn update_max_value(&mut self, slot: usize, group: usize, v: f64) {
        let cur = &mut self.maxs[slot][group];
        if v > *cur {
            *cur = v;
        }
    }

    /// MIN deposit: strict `<` fold, first minimal value in row order wins.
    pub fn update_min(&mut self, slot: usize, group_ids: &[u32], values: &[f64]) {
        self.update_min_rows(slot, group_ids, values, None);
    }

    /// [`Self::update_min`], reading `values` through the selection `rows`
    /// if given (see [`Self::update_sum_rows`]).
    pub fn update_min_rows(
        &mut self,
        slot: usize,
        group_ids: &[u32],
        values: &[f64],
        rows: Option<&[u32]>,
    ) {
        let m = &mut self.mins[slot];
        match rows {
            Some(rows) => fold_rows(m, group_ids, selected(values, rows), |v, cur| v < cur),
            None => fold_rows(m, group_ids, values.iter().copied(), |v, cur| v < cur),
        }
    }

    /// Single-group MIN fast path.
    pub fn update_min_single(&mut self, slot: usize, values: &[f64]) {
        let cur = &mut self.mins[slot][0];
        for &v in values {
            if v < *cur {
                *cur = v;
            }
        }
    }

    /// Run-blocked MIN deposit into one group.
    pub fn update_min_run(&mut self, slot: usize, group: usize, values: &[f64]) {
        let cur = &mut self.mins[slot][group];
        for &v in values {
            if v < *cur {
                *cur = v;
            }
        }
    }

    /// MAX deposit: strict `>` fold, first maximal value in row order wins.
    pub fn update_max(&mut self, slot: usize, group_ids: &[u32], values: &[f64]) {
        self.update_max_rows(slot, group_ids, values, None);
    }

    /// [`Self::update_max`], reading `values` through the selection `rows`
    /// if given (see [`Self::update_sum_rows`]).
    pub fn update_max_rows(
        &mut self,
        slot: usize,
        group_ids: &[u32],
        values: &[f64],
        rows: Option<&[u32]>,
    ) {
        let m = &mut self.maxs[slot];
        match rows {
            Some(rows) => fold_rows(m, group_ids, selected(values, rows), |v, cur| v > cur),
            None => fold_rows(m, group_ids, values.iter().copied(), |v, cur| v > cur),
        }
    }

    /// Single-group MAX fast path.
    pub fn update_max_single(&mut self, slot: usize, values: &[f64]) {
        let cur = &mut self.maxs[slot][0];
        for &v in values {
            if v > *cur {
                *cur = v;
            }
        }
    }

    /// Run-blocked MAX deposit into one group.
    pub fn update_max_run(&mut self, slot: usize, group: usize, values: &[f64]) {
        let cur = &mut self.maxs[slot][group];
        for &v in values {
            if v > *cur {
                *cur = v;
            }
        }
    }

    /// Merges a whole state set slot-for-slot (dense/un-grouped morsel
    /// merge; both sides index groups identically).
    pub fn merge(&mut self, mut other: GroupedStates) -> Result<(), OverflowError> {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(other.sums.drain(..)) {
            a.merge(b)?;
        }
        for (a, b) in self.mins.iter_mut().zip(&other.mins) {
            for (x, &y) in a.iter_mut().zip(b) {
                if y < *x {
                    *x = y;
                }
            }
        }
        for (a, b) in self.maxs.iter_mut().zip(&other.maxs) {
            for (x, &y) in a.iter_mut().zip(b) {
                if y > *x {
                    *x = y;
                }
            }
        }
        Ok(())
    }

    /// Merges one group slot of `other` into slot `dst` of `self` — the
    /// keyed merge of hash-grouped partials (the same group key can sit at
    /// different dense slots on different morsels).
    pub fn merge_group(
        &mut self,
        dst: usize,
        other: &GroupedStates,
        src: usize,
    ) -> Result<(), OverflowError> {
        self.counts[dst] += other.counts[src];
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            a.merge_slot(dst, b, src)?;
        }
        for (a, b) in self.mins.iter_mut().zip(&other.mins) {
            if b[src] < a[dst] {
                a[dst] = b[src];
            }
        }
        for (a, b) in self.maxs.iter_mut().zip(&other.maxs) {
            if b[src] > a[dst] {
                a[dst] = b[src];
            }
        }
        Ok(())
    }

    /// Rounds every SUM state to a double and hands all arrays out — or
    /// the sorted baseline's [`OverflowError`], raised here, where its
    /// sums are first added up.
    pub fn finalize(self) -> Result<GroupedOutput, OverflowError> {
        Ok(GroupedOutput {
            counts: self.counts,
            sums: self
                .sums
                .into_iter()
                .map(GroupedSums::finalize_checked)
                .collect::<Result<_, _>>()?,
            mins: self.mins,
            maxs: self.maxs,
        })
    }
}

/// The values of the strictly increasing selection `rows`, out of
/// `values`: one per row of the selection's covering range `[first, last]`.
fn selected<'a>(values: &'a [f64], rows: &'a [u32]) -> impl Iterator<Item = f64> + 'a {
    let first = rows.first().map_or(0, |&r| r);
    rows.iter().map(move |&r| values[(r - first) as usize])
}

/// Per-row extremum fold: `m[g] = v` wherever `wins(v, m[g])`.
fn fold_rows(
    m: &mut [f64],
    group_ids: &[u32],
    values: impl Iterator<Item = f64>,
    wins: impl Fn(f64, f64) -> bool,
) {
    for (&g, v) in group_ids.iter().zip(values) {
        let cur = &mut m[g as usize];
        if wins(v, *cur) {
            *cur = v;
        }
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
    state.finalize_checked()
}

/// Per-group COUNT (shared by all backends; integer, always reproducible).
pub fn count_grouped(group_ids: &[u32], groups: usize) -> Vec<u64> {
    let mut counts = vec![0u64; groups];
    for &g in group_ids {
        counts[g as usize] += 1;
    }
    counts
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
        let mut merged = GroupedSums::new(backend, groups);
        for (ids, values) in ids
            .chunks(SCAN_MORSEL_ROWS)
            .zip(values.chunks(SCAN_MORSEL_ROWS))
        {
            let mut morsel = GroupedSums::new(backend, groups);
            morsel.update(ids, values)?;
            merged.merge(morsel)?;
        }
        merged.finalize_checked()
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
                if built.build(&gids, groups) {
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

    #[test]
    fn push_groups_and_merge_slot_match_dense_merge() {
        // Exactly merging backends only: their keyed merge is exact, so the
        // split halves must finalize to the one-shot bits. (A Double merge
        // adds subtotals — deterministic, but not the sequential bit
        // pattern.)
        let (ids, values) = workload();
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 64 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 32,
            },
            SumBackend::SortedDouble,
        ] {
            let reference = sum_grouped(backend, &ids, &values, 4).unwrap();
            // Split the input, aggregate the halves into states whose
            // group slots were grown incrementally and *permuted* relative
            // to each other, then merge slot-by-slot via merge_slot.
            let mid = ids.len() / 2;
            let mut a = GroupedSums::new(backend, 0);
            a.push_groups(4); // slot g <-> group g
            a.update(&ids[..mid], &values[..mid]).unwrap();
            let mut b = GroupedSums::new(backend, 2);
            b.push_groups(2); // slot s <-> group 3 - s
            let flipped: Vec<u32> = ids[mid..].iter().map(|&g| 3 - g).collect();
            b.update(&flipped, &values[mid..]).unwrap();
            assert_eq!(b.groups(), 4);
            for g in 0..4usize {
                a.merge_slot(g, &b, 3 - g).unwrap();
            }
            let out = a.finalize();
            for g in 0..4 {
                assert_eq!(
                    reference[g].to_bits(),
                    out[g].to_bits(),
                    "{backend:?} group {g}"
                );
            }
        }
        // Double: merge_slot is a checked addition of subtotals —
        // numerically equal, overflow still detected.
        let reference = sum_grouped(SumBackend::Double, &ids, &values, 4).unwrap();
        let mid = ids.len() / 2;
        let mut a = GroupedSums::new(SumBackend::Double, 4);
        a.update(&ids[..mid], &values[..mid]).unwrap();
        let mut b = GroupedSums::new(SumBackend::Double, 4);
        b.update(&ids[mid..], &values[mid..]).unwrap();
        for g in 0..4 {
            a.merge_slot(g, &b, g).unwrap();
        }
        let out = a.finalize();
        for g in 0..4 {
            assert!((reference[g] - out[g]).abs() <= 1e-9 * reference[g].abs().max(1.0));
        }
        let mut x = GroupedSums::new(SumBackend::Double, 1);
        x.update(&[0], &[f64::MAX]).unwrap();
        let mut y = GroupedSums::new(SumBackend::Double, 1);
        y.update(&[0], &[f64::MAX]).unwrap();
        assert_eq!(x.merge_slot(0, &y, 0), Err(OverflowError));
    }

    #[test]
    fn grouped_states_compose_all_kinds_and_merge_exactly() {
        let (ids, values) = workload();
        let backend = SumBackend::ReproBuffered { buffer_size: 96 };
        // One-shot reference.
        let mut whole = GroupedStates::new(backend, 4, 1, 1, 1);
        whole.add_counts(&ids);
        whole.update_sum(0, &ids, &values).unwrap();
        whole.update_min(0, &ids, &values);
        whole.update_max(0, &ids, &values);
        let whole = whole.finalize().unwrap();
        // Batched halves merged like two morsels.
        let mid = ids.len() / 2 + 7;
        let mut left = GroupedStates::new(backend, 4, 1, 1, 1);
        left.add_counts(&ids[..mid]);
        left.update_sum(0, &ids[..mid], &values[..mid]).unwrap();
        left.update_min(0, &ids[..mid], &values[..mid]);
        left.update_max(0, &ids[..mid], &values[..mid]);
        let mut right = GroupedStates::new(backend, 4, 1, 1, 1);
        right.add_counts(&ids[mid..]);
        right.update_sum(0, &ids[mid..], &values[mid..]).unwrap();
        right.update_min(0, &ids[mid..], &values[mid..]);
        right.update_max(0, &ids[mid..], &values[mid..]);
        left.merge(right).unwrap();
        let merged = left.finalize().unwrap();
        assert_eq!(whole.counts, merged.counts);
        for g in 0..4 {
            assert_eq!(whole.sums[0][g].to_bits(), merged.sums[0][g].to_bits());
            assert_eq!(whole.mins[0][g].to_bits(), merged.mins[0][g].to_bits());
            assert_eq!(whole.maxs[0][g].to_bits(), merged.maxs[0][g].to_bits());
        }
        // Reference semantics of the extrema.
        for g in 0..4u32 {
            let min = ids
                .iter()
                .zip(&values)
                .filter(|(&i, _)| i == g)
                .map(|(_, &v)| v)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(whole.mins[0][g as usize], min);
        }
    }

    #[test]
    fn grouped_states_single_group_fast_paths_match_grouped() {
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.125 - 6.0)
            .collect();
        let ids = vec![0u32; values.len()];
        let backend = SumBackend::ReproUnbuffered;
        let mut grouped = GroupedStates::new(backend, 1, 1, 1, 1);
        grouped.add_counts(&ids);
        grouped.update_sum(0, &ids, &values).unwrap();
        grouped.update_min(0, &ids, &values);
        grouped.update_max(0, &ids, &values);
        let grouped = grouped.finalize().unwrap();
        let mut single = GroupedStates::new(backend, 1, 1, 1, 1);
        for chunk in values.chunks(997) {
            single.add_count_single(chunk.len() as u64);
            single.update_sum_single(0, chunk).unwrap();
            single.update_min_single(0, chunk);
            single.update_max_single(0, chunk);
        }
        let single = single.finalize().unwrap();
        assert_eq!(grouped.counts, single.counts);
        assert_eq!(grouped.sums[0][0].to_bits(), single.sums[0][0].to_bits());
        assert_eq!(grouped.mins[0][0].to_bits(), single.mins[0][0].to_bits());
        assert_eq!(grouped.maxs[0][0].to_bits(), single.maxs[0][0].to_bits());
    }

    #[test]
    fn run_blocked_updates_match_per_row_updates_bitwise() {
        // RLE grouped aggregation's contract: depositing each run of
        // same-group rows as one block call finalizes to the same bits as
        // per-row (group_id, value) updates, for every backend.
        let (ids, values) = workload();
        // Sort rows by group so runs exist, keeping the relative row
        // order inside each group (this is what a sorted RLE table is).
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by_key(|&i| ids[i]);
        let sids: Vec<u32> = order.iter().map(|&i| ids[i]).collect();
        let svalues: Vec<f64> = order.iter().map(|&i| values[i]).collect();
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
            let mut per_row = GroupedStates::new(backend, 4, 1, 1, 1);
            per_row.add_counts(&sids);
            per_row.update_sum(0, &sids, &svalues).unwrap();
            per_row.update_min(0, &sids, &svalues);
            per_row.update_max(0, &sids, &svalues);
            let per_row = per_row.finalize().unwrap();

            let mut blocked = GroupedStates::new(backend, 4, 1, 1, 1);
            let mut i = 0;
            while i < sids.len() {
                let g = sids[i];
                let mut j = i;
                while j < sids.len() && sids[j] == g {
                    j += 1;
                }
                blocked.add_count_run(g as usize, (j - i) as u64);
                blocked
                    .update_sum_run(0, g as usize, &svalues[i..j])
                    .unwrap();
                blocked.update_min_run(0, g as usize, &svalues[i..j]);
                blocked.update_max_run(0, g as usize, &svalues[i..j]);
                i = j;
            }
            let blocked = blocked.finalize().unwrap();

            assert_eq!(per_row.counts, blocked.counts, "{backend:?}");
            for g in 0..4 {
                assert_eq!(
                    per_row.sums[0][g].to_bits(),
                    blocked.sums[0][g].to_bits(),
                    "{backend:?} group {g}"
                );
                assert_eq!(per_row.mins[0][g].to_bits(), blocked.mins[0][g].to_bits());
                assert_eq!(per_row.maxs[0][g].to_bits(), blocked.maxs[0][g].to_bits());
            }
        }
    }

    #[test]
    fn scaled_deposits_match_per_row_updates_bitwise() {
        // The algebraic-pushdown contract: depositing k copies of v as one
        // update_scaled call finalizes to the same bits as k per-row
        // deposits — for every backend, including Double (which takes a
        // literal per-element loop rather than an algebraic fold).
        let runs: Vec<(u32, f64, u64)> = (0..200)
            .map(|i| {
                let g = (i % 4) as u32;
                let v = ((i * 37) % 101) as f64 * 0.017 - 0.85;
                let k = (i * 2_654_435_761u64) % 23;
                (g, v, k)
            })
            .collect();
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
            let mut per_row = GroupedStates::new(backend, 4, 1, 1, 1);
            let mut scaled = GroupedStates::new(backend, 4, 1, 1, 1);
            for &(g, v, k) in &runs {
                for _ in 0..k {
                    per_row.update_sum(0, &[g], &[v]).unwrap();
                }
                per_row.update_min_run(0, g as usize, &vec![v; k as usize]);
                per_row.update_max_run(0, g as usize, &vec![v; k as usize]);
                per_row.add_count_run(g as usize, k);

                scaled.deposit_scaled(0, g as usize, v, k).unwrap();
                if k > 0 {
                    scaled.update_min_value(0, g as usize, v);
                    scaled.update_max_value(0, g as usize, v);
                }
                scaled.add_count_run(g as usize, k);
            }
            let per_row = per_row.finalize().unwrap();
            let scaled = scaled.finalize().unwrap();
            assert_eq!(per_row.counts, scaled.counts, "{backend:?}");
            for g in 0..4 {
                assert_eq!(
                    per_row.sums[0][g].to_bits(),
                    scaled.sums[0][g].to_bits(),
                    "{backend:?} group {g}"
                );
                assert_eq!(per_row.mins[0][g].to_bits(), scaled.mins[0][g].to_bits());
                assert_eq!(per_row.maxs[0][g].to_bits(), scaled.maxs[0][g].to_bits());
            }
        }
    }

    #[test]
    fn scaled_deposit_double_detects_overflow() {
        let mut s = GroupedStates::new(SumBackend::Double, 1, 1, 0, 0);
        assert_eq!(s.deposit_scaled(0, 0, f64::MAX, 3), Err(OverflowError));
    }

    #[test]
    fn run_blocked_double_detects_overflow() {
        let mut s = GroupedStates::new(SumBackend::Double, 2, 1, 0, 0);
        assert_eq!(
            s.update_sum_run(0, 1, &[f64::MAX, f64::MAX]),
            Err(OverflowError)
        );
    }

    #[test]
    fn grouped_states_ensure_groups_grows_all_arrays() {
        let mut s = GroupedStates::new(
            SumBackend::RsumBuffered {
                levels: 2,
                buffer_size: 16,
            },
            0,
            2,
            1,
            1,
        );
        assert_eq!(s.groups(), 0);
        s.ensure_groups(3);
        s.ensure_groups(2); // shrink requests are no-ops
        assert_eq!(s.groups(), 3);
        s.update_sum(1, &[2], &[1.5]).unwrap();
        s.update_min(0, &[0], &[4.0]);
        s.update_max(0, &[1], &[-4.0]);
        let out = s.finalize().unwrap();
        assert_eq!(out.counts, vec![0, 0, 0]);
        assert_eq!(out.sums[1][2], 1.5);
        assert_eq!(out.mins[0][0], 4.0);
        assert_eq!(out.mins[0][1], f64::INFINITY);
        assert_eq!(out.maxs[0][1], -4.0);
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

//! The fused zero-copy scan pipeline: batch-at-a-time
//! filter → project → aggregate with no n-sized intermediates.
//!
//! A materializing pipeline walks the table three times before the §III
//! kernel ever runs: it builds an n-sized selection vector, gathers every
//! projected column into fresh vectors, and only then aggregates. This
//! module instead walks the table once in fixed cache-resident batches
//! ([`FUSED_BATCH_ROWS`] rows): each batch is filtered into a small
//! reused selection vector, projected through *one* compiled program for
//! all of the query's aggregate inputs into reused scratch registers
//! ([`crate::expr`]: a shared column or subexpression is evaluated once
//! per batch), and deposited straight into the query's per-group state
//! arrays ([`crate::sum_op`]: COUNT plus one array per aggregate) — the
//! MonetDB/X100 vectorized execution model. Peak intermediate footprint
//! is O(batch + groups), independent of n.
//!
//! **One deposit.** How a batch reaches the states is decided once per
//! batch, by its grouping: `Single` (ungrouped: one block), `Rows` (one
//! group id per row), `Partitioned` (the same, plus a partition by
//! group). Every aggregate's input is the evaluated values of its
//! expression, whatever the storage of the columns it reads. One generic
//! deposit function takes any such batch into any kind of state array; a
//! state's kind — a SUM backend's, MIN's, MAX's — is matched once per
//! batch and aggregate to enter it, and each kind answers the deposit its
//! own fastest way (a block kernel, a register sum checked once). One
//! deposit sees several arrays at once: a partitioned batch's `Double`
//! SUMs advance together, one pass over the partition for all of them.
//!
//! This is the *physical* executor the plan layer ([`crate::plan`])
//! lowers onto: a [`FusedQuery`] names the filter conjuncts, the SUM /
//! MIN / MAX input expressions (one per-group state array each — COUNT is
//! always maintained, and AVG is pure plan-level finalization over a SUM
//! state), and the [`GroupKey`] grouping mode.
//!
//! **Filters** are conjunctions of compiled [`BoolExpr`] predicates
//! ([`crate::expr`]): the first conjunct fills the batch's selection
//! vector branchlessly, later conjuncts refine it in place.
//!
//! **One closed interval per filtered column.** A conjunct that compares
//! one column with constants (`<`, `<=`, `>`, `>=`, `=`, `BETWEEN`) is a
//! closed interval over the column's values, and when the filter is bound
//! (`ScanFilter`, once per query) all the intervals over one column
//! intersect into a single conjunct at the position of the first: Q6's
//! `l_shipdate >= lo AND l_shipdate < hi` is one range fill over the date
//! window, not a fill that keeps every row after `lo` and a refine that
//! walks them all. The merged interval binds to a range loop in the
//! column's own domain (f64, integer, dictionary keep-set — or, below,
//! row ranges). A conjunction keeps a row iff every conjunct does, so the
//! selection and its row order are untouched. Everything else (`OR`,
//! `NOT`, `<>`, arithmetic comparisons) runs the mask program per batch,
//! in its written position.
//!
//! **Group keys** come in three shapes:
//!
//! * [`GroupKey::None`] — a single accumulator (group id 0), taking the
//!   vectorized single-group fast paths;
//! * [`GroupKey::Hash`] — an `I32`/`U32`/`U8` key column. Group ids are
//!   handed out in first-seen row order, unseen keys are appended to a
//!   gid→key list, and the per-group state arrays grow on demand.
//!   Parallel partials merge *by key*: the reduction walks the other
//!   side's gid→key list and folds each slot into the local slot of the
//!   same key.
//! * [`GroupKey::HashPair`] — two `U8` columns packed into one `u32` key
//!   (`(a << 8) | b`): Q1's flag / status pair, a SQL `GROUP BY a, b`
//!   over byte columns. Only observed pairs materialize group state, and
//!   the packed key sorts output rows in `(a, b)` lexicographic order.
//!
//! **The bind is the validation.** One function (`bind_query`) takes a
//! query from its written form to what the scan reads: it compiles the
//! filter conjuncts and the aggregate inputs, binds them and the grouping
//! to the table's storage, and checks the backend. Every way a query can
//! fail to fit its table — a missing column, one an expression cannot
//! read, a group key of the wrong logical type under any encoding — or
//! its backend is a typed [`PlanError`] from that one pass, in a fixed
//! order; there is no earlier check for it to agree with and no later
//! one. [`run_fused`] is that bind plus the scan; preparing a SQL
//! statement runs the bind alone. Columns need no check at all: a
//! [`Table`] only ever holds well-formed encodings
//! ([`Table::add_column`]).
//!
//! **Group ids at the price of their key.** How a key becomes a group id
//! is decided once, when the query is bound, from the key's *storage*. A
//! key at most 16 bits wide — a byte, a byte pair, a `Dict` / `Dict16`
//! column's *code* — indexes a `NO_GROUP`-initialised table of its whole
//! domain (256 or 65 536 entries): one load per row, and the first
//! sighting of an index is the rare branch that assigns the id (and
//! resolves a dictionary code to its key), in row order. 32-bit key
//! values go through each scan range's
//! [`AggHashTable`] and its SIMD batched probe
//! ([`AggHashTable::probe_gids`], §IV). A batch's keys are laid down by
//! one read per key leg through the column's storage (`Storage::read`
//! in [`crate::column`], the one reader of plain, `Dict`, `Dict16` and
//! RLE storage) — the batch's range for a dense or
//! near-dense batch, a gather otherwise. Ids, first-seen order and the
//! data-dependent [`PlanError::ReservedKey`] are those of a per-row walk
//! over the selected rows either way.
//!
//! **Why fusion preserves bit-identity** (paper footnote 3, extended to
//! batched evaluation): the per-row expression dag is evaluated with the
//! identical operations in the identical row order — batching only changes
//! *when* rows are processed, never *what* is computed or in which order
//! per accumulator slot. Every SUM slot therefore receives the
//! same value sequence as a per-row walk of the table, so every backend
//! — including order-sensitive plain doubles — finalizes to the same bits
//! as serial per-row execution. The single-group fast path may swap
//! per-row deposits for the vectorized block kernel (`simd::add_slice`),
//! which §III-D proves bit-transparent.
//!
//! **Partition, then aggregate** (paper §V, at batch granularity). A
//! grouped batch of a [buffered](SumBackend::buffered) backend or of
//! `Double` that holds few groups relative to its rows
//! ([`crate::sum_op::MIN_SEG`], [`crate::sum_op::DOUBLE_MIN_SEG`]) is
//! counting-sorted by group id once; COUNT
//! reads the segment lengths, every repro SUM state gathers its evaluated
//! values through the permutation and deposits one block-kernel call per
//! group, and the `Double` SUM states read them through the permutation
//! together, into one register sum per group and SUM, each checked once.
//! (MIN and MAX fold that batch per row: a compare per row costs less
//! than the gather.)
//! The sort is stable and only the *values* are permuted: the selection
//! vector and the group ids stay in row order, so predicates and column
//! reads never see it.
//!
//! **Range pruning.** An interval conjunct over an RLE column is
//! *decided* when it is bound — once per run, once per query — into the
//! coalesced `[start, end)` row ranges of its matching runs; an interval
//! nothing can satisfy (`x >= 5 AND x < 3`, a NaN literal) is decided on
//! any storage: no row. Those conjuncts never reach a batch: their ranges are
//! intersected (`ScanFilter`), and the scan keeps its batch grid —
//! multiples of `batch_rows` from row 0 — but visits only the batches
//! that overlap a range, starting each from `batch ∩ range`; the
//! remaining conjuncts fill and refine from there. The selected rows and their order are exactly those
//! of the unpruned walk, so no output bit moves on any backend;
//! [`FusedRun::batches_visited`] / [`FusedRun::batches_pruned`] say how
//! much of the grid was skipped.
//!
//! **Dense and near-dense batches read slices.** How a batch's rows are
//! read is decided once, after the filter ([`Sel`]). A selection that is
//! one row range is read as column slices by every consumer with a slice
//! form: key legs are bulk-extracted, the expression program loads
//! `col[start..start + n]`, and a bare plain-`F64` input reaches the
//! deposit as a borrowed slice of the column. A *near-dense* selection —
//! one keeping at least [`crate::sum_op::NEAR_DENSE`] of its covering
//! range `[first, last]`, like Q1's 98.7 % — is read over that range the
//! same way wherever the selection can be applied afterwards at no cost:
//! keys are compacted once, before any is looked up; a partition's
//! permutation lists covering-range offsets, so the gather every SUM
//! state performs anyway selects and partitions in one pass; per-row
//! deposits read their values through the row ids. A dropped row's value
//! is computed and discarded — never deposited, folded or
//! overflow-checked — its key never reaches a group-id map, and COUNT
//! comes from the selected rows' group ids. Sparser batches gather, as do
//! ungrouped ones, whose block kernel wants its values in a row
//! (compacting each output measured no better than the gathers); an
//! empty batch stops right after the filter.
//!
//! **Encoded columns are read, never decoded.** A SUM / MIN / MAX input
//! over a `Dict`, `Dict16` or `Rle` column — bare or inside an expression
//! — is evaluated by the expression program like any other and deposited
//! the way the batch's grouping says; a group key of any storage goes
//! through the same key fill and group-id map. Both read the column
//! through the same reader: a code lookup per row, or one value per run
//! span from a binary search for the batch's first row.
//!
//! **Parallelism.** The batch is the only unit of work. With `threads > 1`
//! the scan lists the grid's live batches (those a kept range overlaps),
//! cuts that list into `min(threads, rayon::current_num_threads())`
//! contiguous runs of nearly equal length (one per live batch if there
//! are fewer), and scans each run into private states on a fork-join
//! over scoped threads (`rayon::join`): one partial per run, merged in
//! run order along the deterministic split tree. Exact state merging
//! makes the repro backends and the sorted baseline (whose state is each
//! group's value multiset) bit-identical to serial execution at any
//! thread count; MIN/MAX merge by comparison folds whose ties resolve to
//! the earlier range, and the hash arm's first-seen key order is
//! schedule-independent because the split tree always merges the earlier
//! range into the left operand. Plain doubles cannot merge exactly — the
//! *only* way to parallelize them without changing the answer would be to
//! sort, which is [`SumBackend::SortedDouble`] — so the fused executor
//! deliberately runs [`SumBackend::Double`] serially at any requested
//! thread count: the engine's answers are then independent of `threads`
//! for every backend, which the proptests assert.

// A query is outside input: nothing here may panic on one. What survives
// is an `expect` stating an internal invariant, allowed where it stands.
#![deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use crate::column::{type_mismatch, ColRef, Column, Storage, Table, TableError};
use crate::expr::{
    extend_clipped, intersect_ranges, BoolExpr, BoundExpr, BoundPredicate, CompiledExpr,
    CompiledPredicate, EvalScratch, Expr, RowRange, Sel,
};
use crate::plan::PlanError;
use crate::sum_op::{
    dispatch, double_partitioned, BatchPartition, GroupedStates, OverflowError, State, States,
    SumBackend,
};
use rayon::prelude::*;
use rfa_agg::{AggHashTable, HashKind};
use rfa_core::{faults, CancelToken};
use std::time::{Duration, Instant};

/// Rows per scan batch. 4096 rows keep one selection vector, one group-id
/// vector and a handful of f64 registers (~32 KiB each) L2-resident while
/// amortizing per-batch dispatch — the X100 sweet spot.
pub const FUSED_BATCH_ROWS: usize = 4096;

/// Grouping mode of a fused scan.
#[derive(Clone, Debug)]
pub enum GroupKey {
    /// No GROUP BY: one un-grouped accumulator (group id 0).
    None,
    /// Grouping on an `I32`, `U32` or `U8` key column, group ids in
    /// first-seen order. 32-bit key values go through a per-range
    /// [`AggHashTable`] with the paper's identity hashing (§VI-A); a `U8`
    /// column and the codes of a dictionary-encoded one index a
    /// direct-mapped table. The key value `u32::MAX` (`-1_i32`) is
    /// reserved; a selected row carrying it surfaces as
    /// [`PlanError::ReservedKey`].
    Hash { col: ColRef },
    /// Grouping on a pair of `U8` columns packed into one `u32` key
    /// (`(a << 8) | b`), first-seen ids — Q1's flag / status pair, the SQL
    /// `GROUP BY a, b` shape over byte columns. The pair indexes a
    /// direct-mapped table of its 65 536-key domain.
    HashPair { a: ColRef, b: ColRef },
}

/// A fused scan-aggregate query in physical form: conjunctive filter, the
/// input expression of every SUM / MIN / MAX state array (COUNT is always
/// maintained), and the grouping mode. The plan layer lowers a logical
/// [`crate::plan::QueryPlan`] into this shape.
pub struct FusedQuery {
    /// Conjuncts of the scan filter (all must hold).
    pub filter: Vec<BoolExpr>,
    /// One SUM state array of the scan's backend per entry (a
    /// `sum_op::State`, the type MIN and MAX entries get too).
    pub sums: Vec<Expr>,
    /// One per-group minimum array per entry.
    pub mins: Vec<Expr>,
    /// One per-group maximum array per entry.
    pub maxs: Vec<Expr>,
    pub group_by: GroupKey,
}

/// Execution options of the fused pipeline.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// 1 runs serial; >1 splits the scan into that many contiguous runs of
    /// batches, one per scoped thread — but never more runs than
    /// `rayon::current_num_threads()` (`RFA_THREADS`, else the core count)
    /// or than batches to scan, whatever the value. Results are
    /// bit-identical either way (see module doc).
    pub threads: usize,
    /// Rows per batch (default [`FUSED_BATCH_ROWS`]; tests shrink it to
    /// force many batches on small inputs).
    pub batch_rows: usize,
    /// Wall-clock budget, measured from [`run_fused`] entry. `None` (the
    /// default) never expires. `Some(Duration::ZERO)` is an *immediate*
    /// typed timeout — checked before the first batch, so it errors even
    /// on an empty table; it is never clamped, hung on, or UB. A budget
    /// too large for the platform clock behaves like `None`.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token, polled at every batch boundary. A
    /// token cancelled before execution starts fails before the first
    /// batch with [`PlanError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            batch_rows: FUSED_BATCH_ROWS,
            deadline: None,
            cancel: None,
        }
    }
}

impl ExecOptions {
    /// Serial execution with default batch sizing.
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// `threads` set to `rayon::current_num_threads()`, default batch
    /// sizing.
    pub fn parallel() -> Self {
        ExecOptions {
            threads: rayon::current_num_threads().max(1),
            ..ExecOptions::default()
        }
    }

    /// Returns a copy with every zero *sizing* field clamped to 1. A zero
    /// thread or batch budget means "the minimum", never a hang or
    /// a divide-by-zero downstream — [`run_fused`] normalizes its options
    /// through this before executing. The deadline and cancellation fields
    /// pass through untouched: a zero deadline is a meaningful request
    /// ("fail now, typed"), not a degenerate sizing value.
    pub fn normalized(&self) -> Self {
        ExecOptions {
            threads: self.threads.max(1),
            batch_rows: self.batch_rows.max(1),
            deadline: self.deadline,
            cancel: self.cancel.clone(),
        }
    }
}

/// Resolved interruption state of one `run_fused` call: the token plus the
/// deadline converted to an absolute instant once, at query start. Checked
/// at every batch boundary (two branches when neither is set); explicit
/// cancellation wins over an expired deadline when both hold.
struct CancelCheck {
    cancel: Option<CancelToken>,
    deadline_at: Option<Instant>,
    deadline: Duration,
}

impl CancelCheck {
    fn new(opts: &ExecOptions) -> CancelCheck {
        CancelCheck {
            cancel: opts.cancel.clone(),
            // An unrepresentable absolute deadline (now + huge Duration
            // overflows the platform clock) can never be reached: None.
            deadline_at: opts.deadline.and_then(|d| Instant::now().checked_add(d)),
            deadline: opts.deadline.unwrap_or_default(),
        }
    }

    #[inline]
    fn check(&self) -> Result<(), PlanError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(PlanError::Cancelled);
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(PlanError::DeadlineExceeded {
                    deadline: self.deadline,
                });
            }
        }
        Ok(())
    }
}

/// CPU-time split of a query execution (Table IV's rows, with the scan
/// broken out of the paper's "other" bucket).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTiming {
    /// Selection, group-id computation and expression projection.
    pub scan: Duration,
    /// Deposits into the SUM states and their merges.
    pub aggregation: Duration,
    /// Everything else: finalization — for [`SumBackend::SortedDouble`],
    /// the sort of every group's values with it.
    pub other: Duration,
}

impl PhaseTiming {
    pub fn total(&self) -> Duration {
        self.scan + self.aggregation + self.other
    }
}

/// Result of a fused scan: finalized per-state per-group values, group
/// counts, the first-seen group keys, and the CPU-time phase split (scan
/// vs aggregation; summed across workers on the parallel path, like the
/// paper's CPU-time accounting).
#[derive(Debug)]
pub struct FusedRun {
    /// `sums[s][g]` — SUM of state array `s` over group `g`.
    pub sums: Vec<Vec<f64>>,
    /// `mins[s][g]` — MIN (`+∞` for groups that matched no row).
    pub mins: Vec<Vec<f64>>,
    /// `maxs[s][g]` — MAX (`-∞` for groups that matched no row).
    pub maxs: Vec<Vec<f64>>,
    /// `counts[g]` — COUNT(*) per group.
    pub counts: Vec<u64>,
    /// [`GroupKey::Hash`] / [`GroupKey::HashPair`] only: the key of each
    /// group slot, in first-seen row order (schedule-independent; see
    /// module doc).
    pub keys: Option<Vec<u32>>,
    /// Whether `keys` are the bit patterns of an `I32` column's values
    /// (the reader restores the sign).
    pub key_signed: bool,
    pub timing: PhaseTiming,
    /// Batches of the scan grid the filter was run on (those overlapping
    /// a row range the bind-time-decided conjuncts keep — all of them when
    /// there is no such conjunct). Exact and independent of `threads`:
    /// the grid is a function of the table and `batch_rows`.
    pub batches_visited: u64,
    /// Batches of the grid never touched; `visited + pruned` is the grid.
    pub batches_pruned: u64,
}

/// A query bound to a table: everything the scan reads, resolved once and
/// shared by every scan range and by the merge.
struct BoundQuery<'q> {
    filter: ScanFilter<'q>,
    group: Option<GroupBind<'q>>,
    /// Every aggregate input — SUMs, then MINs, then MAXs, the order of
    /// `GroupedStates::aggs`: one program, one output each.
    prog: BoundExpr<'q>,
    /// State arrays per kind: SUM, MIN, MAX.
    states: (usize, usize, usize),
    backend: SumBackend,
}

/// The one path from a query to the scan. Compiles the filter conjuncts
/// and the aggregate inputs (one program for all that are evaluated),
/// binds them and the grouping to `table`'s storage, checks the backend,
/// and hands the bound query to `then`. Binding *is* the validation: every
/// way the query can fail to fit the table or the backend surfaces here,
/// typed, in this order — filter columns (conjunct order), group-key
/// columns, aggregate input columns, `RSUM` levels — and what reaches
/// `then` can fail only on the data. (`then`,
/// not a return value: the bound forms borrow the compiled programs,
/// which live in this frame.)
fn bind_query<R>(
    table: &Table,
    query: &FusedQuery,
    backend: SumBackend,
    then: impl FnOnce(&BoundQuery<'_>) -> Result<R, PlanError>,
) -> Result<R, PlanError> {
    let filter: Vec<CompiledPredicate> = query.filter.iter().map(BoolExpr::compile).collect();
    let prog = CompiledExpr::compile_all(query.sums.iter().chain(&query.mins).chain(&query.maxs));
    let bound = BoundQuery {
        filter: ScanFilter::bind(table, &filter)?,
        group: GroupBind::bind(table, &query.group_by)?,
        prog: prog.bind(table)?,
        states: (query.sums.len(), query.mins.len(), query.maxs.len()),
        backend,
    };
    backend
        .check_levels()
        .map_err(|levels| PlanError::RsumLevels { levels })?;
    then(&bound)
}

/// Whether `query` binds to `table`: exactly what [`run_fused`] refuses
/// before it scans, on any backend this executor runs. Preparing a SQL
/// statement calls this once, so a statement in the plan cache is known
/// to bind.
pub(crate) fn check_query(table: &Table, query: &FusedQuery) -> Result<(), PlanError> {
    bind_query(table, query, SumBackend::ReproUnbuffered, |_| Ok(()))
}

/// Executes a fused query over a table: binds it (`bind_query` — the only
/// validation there is, every failure a typed error) and scans.
///
/// Never panics on its arguments. A query that does not fit the table or
/// the backend is [`PlanError::Table`] / [`PlanError::RsumLevels`]
/// before any row is read. The scan returns [`PlanError::Overflow`]
/// exactly when a per-row [`crate::sum_grouped`] over the selected rows
/// would return [`OverflowError`], the data-dependent
/// [`PlanError::ReservedKey`], and the interruption errors. Options are
/// [`ExecOptions::normalized`] first, so zero fields mean "minimum"
/// rather than a hang.
pub fn run_fused(
    table: &Table,
    query: &FusedQuery,
    backend: SumBackend,
    opts: &ExecOptions,
) -> Result<FusedRun, PlanError> {
    let opts = opts.normalized();
    // The deadline runs from entry, resolved to an absolute instant once.
    let check = CancelCheck::new(&opts);
    bind_query(table, query, backend, |bound| {
        scan(bound, table.rows(), &opts, &check)
    })
}

/// Scans a bound query over a `rows`-row table.
fn scan(
    bound: &BoundQuery<'_>,
    rows: usize,
    opts: &ExecOptions,
    check: &CancelCheck,
) -> Result<FusedRun, PlanError> {
    // Before any work: a pre-cancelled token or a zero deadline fails here
    // with a typed error even on an empty table.
    check.check()?;
    let BoundQuery { filter, group, .. } = bound;
    let group = group.as_ref();

    // Plain doubles cannot merge exactly: parallel execution would change
    // the answer, so they always scan serially (module doc). Runs never
    // outnumber the fork budget, whatever `threads` asks for.
    let threads = if bound.backend.merges_exactly() {
        opts.threads.min(rayon::current_num_threads())
    } else {
        1
    };
    let batch = opts.batch_rows;
    // The grid's live batches, those a kept range reaches, in row order.
    let mut live: Vec<usize> = Vec::new();
    if threads > 1 {
        for &(start, end) in &filter.ranges {
            let first = live.last().map_or(0, |&b| b + 1);
            live.extend((start as usize / batch).max(first)..(end as usize).div_ceil(batch));
        }
    }
    let runs = threads.min(live.len()).max(1);
    #[cfg(test)]
    count(|c| c.scan_ranges += runs);

    // The `expect` states an invariant, not a check on input: the parallel
    // arm runs with at least two runs, every run maps to `Some` partial,
    // and merging two `Some`s (or a `Some` and the identity) stays `Some`.
    #[allow(clippy::expect_used)]
    let partial = if runs == 1 {
        scan_range(bound, opts, check, 0, rows)?
    } else {
        // Run `r` is the `r`-th of `runs` contiguous, nearly equal slices
        // of `live`, scanned from its first batch to the end of its last.
        (0..runs)
            .into_par_iter()
            .with_min_len(1)
            .map(|r| {
                let first = live[r * live.len() / runs];
                let last = live[(r + 1) * live.len() / runs - 1];
                let hi = ((last + 1) * batch).min(rows);
                scan_range(bound, opts, check, first * batch, hi).map(Some)
            })
            .reduce(
                || Ok(None),
                |a: Result<Option<Partial>, PlanError>, b| match (a?, b?) {
                    (Some(mut x), Some(y)) => {
                        x.merge(y, group)?;
                        Ok(Some(x))
                    }
                    (x, y) => Ok(x.or(y)),
                },
            )?
            .expect("at least two runs")
    };

    let t0 = Instant::now();
    let (counts, mut sums) = partial.states.finalize()?;
    let (s, m, _) = bound.states;
    let maxs = sums.split_off(s + m);
    let mins = sums.split_off(s);
    let mut timing = partial.timing;
    timing.other += t0.elapsed();
    Ok(FusedRun {
        sums,
        mins,
        maxs,
        counts,
        keys: group
            .zip(partial.groups)
            .map(|(bind, groups)| bind.output_keys(groups.keys)),
        key_signed: group.is_some_and(|bind| bind.signed),
        timing,
        batches_visited: partial.batches_visited,
        batches_pruned: rows.div_ceil(batch) as u64 - partial.batches_visited,
    })
}

/// The scan filter, bound once per query and shared by every run.
struct ScanFilter<'t> {
    /// The rows that survive every conjunct binding could decide outright
    /// (intervals over RLE columns; an empty interval, which leaves no
    /// row): coalesced, increasing, intersected across those conjuncts.
    /// The whole table when there is none.
    ranges: Vec<RowRange>,
    /// The conjuncts left to evaluate per batch: one per column filtered
    /// by intervals, one per conjunct of any other shape.
    preds: Vec<BoundPredicate<'t>>,
}

/// Test-only tally of the per-query work done on this thread, so tests
/// can assert what is done once per execution — and what not at all.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct BindCounts {
    /// [`ScanFilter::bind`] calls.
    pub filter_binds: usize,
    /// `preds.len()` of the last [`ScanFilter::bind`].
    pub bound_preds: usize,
    /// [`GroupBind::bind`] calls that bound a grouping.
    pub group_binds: usize,
    /// Expression and predicate programs compiled.
    pub compiles: usize,
    /// [`CompiledExpr::bind`] calls.
    pub expr_binds: usize,
    /// [`Column::validate_encoding`] calls.
    pub validations: usize,
    /// Scan ranges run, one per partial.
    pub scan_ranges: usize,
}

#[cfg(test)]
thread_local! {
    pub(crate) static BIND_COUNTS: std::cell::Cell<BindCounts> = std::cell::Cell::default();
}

/// Updates this thread's [`BindCounts`].
#[cfg(test)]
pub(crate) fn count(f: impl FnOnce(&mut BindCounts)) {
    BIND_COUNTS.with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        c.set(counts);
    });
}

impl<'t> ScanFilter<'t> {
    /// Binds the query's conjuncts. Those that are an interval over a
    /// column ([`CompiledPredicate::range`]) merge: all that name one
    /// column intersect into a single conjunct at the position of the
    /// first — `d >= lo AND d < hi` fills one selection vector, not a
    /// wide one and its refinement. A conjunction keeps a row iff every
    /// conjunct does, in any order, so the selection — rows and row order
    /// — is the one the conjuncts would have produced one by one.
    fn bind(
        table: &'t Table,
        filter: &'t [CompiledPredicate],
    ) -> Result<ScanFilter<'t>, TableError> {
        let mut ranges = vec![(0, table.rows() as u32)];
        let mut preds = Vec::new();
        for (i, p) in filter.iter().enumerate() {
            let bound = match p.range() {
                Some((col, range)) => {
                    let on_col = |q: &'t CompiledPredicate| q.range().filter(|(c, _)| *c == col);
                    if filter[..i].iter().any(|q| on_col(q).is_some()) {
                        continue; // merged into the column's first conjunct
                    }
                    let later = filter[i + 1..].iter().filter_map(on_col);
                    let merged = later.fold(range, |m, (_, r)| m.intersect(r));
                    BoundPredicate::range(table, col, merged)
                }
                None => p.bind(table),
            };
            match bound?.into_decided_ranges() {
                Ok(kept) => ranges = intersect_ranges(&ranges, &kept),
                Err(pred) => preds.push(pred),
            }
        }
        #[cfg(test)]
        count(|c| {
            c.filter_binds += 1;
            c.bound_preds = preds.len();
        });
        Ok(ScanFilter { ranges, preds })
    }

    /// Index of the first range that ends after `row`.
    fn first_after(&self, row: usize) -> usize {
        self.ranges.partition_point(|r| r.1 as usize <= row)
    }
}

/// "No group id assigned yet" in both key → group-id maps (distinct from
/// the hash table's own empty-*key* sentinel).
const NO_GROUP: u32 = u32::MAX;

/// A group-key column (or byte pair) bound to its storage and read
/// through it ([`Storage::read`]), never decompressed. `I32` keys are
/// mapped to `u32` by bit pattern (a bijection), so negative keys group
/// correctly — except `-1`, which is the reserved key.
enum KeyCol<'t> {
    I32(Storage<'t, i32>),
    U32(Storage<'t, u32>),
    /// The raw codes of a `Dict16` key column.
    U16(Storage<'t, u16>),
    /// At most 16 physical bits: one byte leg (a `U8` column's values or
    /// a `Dict` key column's raw codes), or a pair packed `(a << 8) | b`.
    Bytes(Storage<'t, u8>, Option<Storage<'t, u8>>),
}

impl KeyCol<'_> {
    /// One key per selected row, in `buf`. A dense batch reads its range;
    /// a near-dense one reads its covering range the same way and
    /// compacts the keys through the selection, once, before anything
    /// looks at them; any other gathers.
    fn fill<'a>(&self, batch: Sel, buf: &'a mut Vec<u32>) -> &'a [u32] {
        if buf.len() < batch.len() {
            buf.resize(batch.len(), 0);
        }
        let out = &mut buf[..batch.len()];
        match self {
            KeyCol::I32(s) => s.read(batch, out, |_, v| v as u32),
            KeyCol::U32(s) => s.read(batch, out, |_, v| v),
            KeyCol::U16(s) => s.read(batch, out, |_, v| v.into()),
            KeyCol::Bytes(a, None) => a.read(batch, out, |_, v| v.into()),
            KeyCol::Bytes(a, Some(b)) => {
                a.read(batch, out, |_, v| u32::from(v) << 8);
                b.read(batch, out, |o, v| o | u32::from(v));
            }
        }
        let sel = batch.rows;
        if batch.selection().is_some() {
            // Offsets never trail their position: a forward pass reads
            // every key before overwriting it.
            for (k, &row) in sel.iter().enumerate() {
                out[k] = out[(row - sel[0]) as usize];
            }
        }
        &buf[..sel.len()]
    }
}

/// The logical types a hash group key can have.
const HASH_KEY_TYPES: &str = "I32, U32 or U8";

/// The `u32` keys of a dictionary key column's entries — one widening
/// pass that never touches n rows — and whether they are `I32` bit
/// patterns. Which logical types can be a hash group key is decided here
/// and in the value arms of [`GroupBind::bind`], nowhere else in the
/// engine.
fn inner_keys(name: &ColRef, col: &Column) -> Result<(Vec<u32>, bool), TableError> {
    Ok(match col {
        Column::I32(v) => (v.iter().map(|&x| x as u32).collect(), true),
        Column::U32(v) => (v.to_vec(), false),
        Column::U8(v) => (v.iter().map(|&x| x as u32).collect(), false),
        other => return Err(type_mismatch(name, HASH_KEY_TYPES, other)),
    })
}

/// Per dictionary code: the key it stands for and the first code holding
/// the same key, so duplicate dictionary entries share one group.
fn dict_keys(keys: Vec<u32>) -> Vec<(u32, u32)> {
    let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
    by_key.sort_unstable_by_key(|&c| (keys[c as usize], c));
    let mut out = vec![(0, 0); keys.len()];
    for same in by_key.chunk_by(|&a, &b| keys[a as usize] == keys[b as usize]) {
        for &c in same {
            out[c as usize] = (keys[c as usize], same[0]);
        }
    }
    out
}

/// A query's grouping, bound once and shared by every scan range and by
/// the merge. Whether keys index a table or hash into one is decided
/// here, from the key column's storage alone. Group ids are handed out in
/// first-seen row order, per scan range; partials merge by key.
struct GroupBind<'t> {
    /// The column [`PlanError::ReservedKey`] names.
    col: &'t ColRef,
    key_col: KeyCol<'t>,
    map: MapKind,
    /// A dictionary key column's table is indexed by *code*: its
    /// [`dict_keys`].
    dict: Option<Vec<(u32, u32)>>,
    /// The keys are `I32` values by bit pattern.
    signed: bool,
}

/// Which key → group-id map every scan range of a query builds.
#[derive(Clone, Copy)]
enum MapKind {
    /// A table indexed by the physical key, with an entry for its whole
    /// domain: 256 for a byte or a `u8` code, 65 536 for a byte pair or a
    /// `u16` code.
    Direct(usize),
    /// An identity-hashed [`AggHashTable`], for 32-bit key values.
    Hash,
}

impl<'t> GroupBind<'t> {
    /// Binds the grouping by the key columns' *logical* type, whatever
    /// their encoding: a pair leg must be `U8`, a hash key `I32`, `U32` or
    /// `U8`.
    fn bind(table: &'t Table, group_by: &'t GroupKey) -> Result<Option<GroupBind<'t>>, TableError> {
        let leg = |name: &'t ColRef| -> Result<Storage<'t, u8>, TableError> {
            let col = table.column(name.as_str())?;
            col.storage().ok_or_else(|| type_mismatch(name, "U8", col))
        };
        let (byte, pair) = (MapKind::Direct(1 << 8), MapKind::Direct(1 << 16));
        #[cfg(test)]
        count(|c| c.group_binds += !matches!(group_by, GroupKey::None) as usize);
        Ok(Some(match group_by {
            GroupKey::None => return Ok(None),
            GroupKey::HashPair { a, b } => GroupBind {
                col: a,
                key_col: KeyCol::Bytes(leg(a)?, Some(leg(b)?)),
                map: pair,
                dict: None,
                signed: false,
            },
            GroupKey::Hash { col } => {
                let column = table.column(col.as_str())?;
                let bound = match (column, column.logical()) {
                    (Column::Dict { codes, dict }, _) => {
                        let (keys, signed) = inner_keys(col, dict)?;
                        let codes = KeyCol::Bytes(Storage::Plain(codes), None);
                        Some((codes, byte, Some(dict_keys(keys)), signed))
                    }
                    (Column::Dict16 { codes, dict }, _) => {
                        let (keys, signed) = inner_keys(col, dict)?;
                        let codes = KeyCol::U16(Storage::Plain(codes));
                        Some((codes, pair, Some(dict_keys(keys)), signed))
                    }
                    // Plain or RLE storage: the key values themselves.
                    (_, Column::I32(_)) => {
                        let hash = |s| (KeyCol::I32(s), MapKind::Hash, None, true);
                        column.storage().map(hash)
                    }
                    (_, Column::U32(_)) => {
                        let hash = |s| (KeyCol::U32(s), MapKind::Hash, None, false);
                        column.storage().map(hash)
                    }
                    (_, Column::U8(_)) => {
                        let bytes = |s| (KeyCol::Bytes(s, None), byte, None, false);
                        column.storage().map(bytes)
                    }
                    _ => None,
                };
                let (key_col, map, dict, signed) =
                    bound.ok_or_else(|| type_mismatch(col, HASH_KEY_TYPES, column))?;
                GroupBind {
                    col,
                    key_col,
                    map,
                    dict,
                    signed,
                }
            }
        }))
    }

    fn reserved_key(&self) -> PlanError {
        PlanError::ReservedKey {
            col: self.col.to_string(),
        }
    }

    /// The group keys [`FusedRun::keys`] reports for a range's first-seen
    /// list: a dictionary key column's codes become their key values.
    fn output_keys(&self, keys: Vec<u32>) -> Vec<u32> {
        match &self.dict {
            None => keys,
            Some(dict) => keys.iter().map(|&c| dict[c as usize].0).collect(),
        }
    }
}

/// A scan range's key → group-id map: indexed by the key itself where its
/// domain is small, an open-addressing table for 32-bit keys.
enum GidMap {
    /// `NO_GROUP` until the key (pair, or dictionary code) is first seen.
    Direct(Vec<u32>),
    Hash(AggHashTable<u32>),
}

/// Group-id assignment state of one scan range: the map and its inverse,
/// the keys (dictionary codes, for a dictionary key column) in first-seen
/// row order.
struct Groups {
    map: GidMap,
    keys: Vec<u32>,
}

/// A direct-mapped key's first sighting. Rare (once per distinct key per
/// range) and in row order, so first-seen ids and
/// [`PlanError::ReservedKey`] are those of a per-row walk.
#[cold]
fn first_sight(
    lut: &mut [u32],
    keys: &mut Vec<u32>,
    bind: &GroupBind<'_>,
    key: u32,
) -> Result<u32, PlanError> {
    let first = match &bind.dict {
        Some(dict) => {
            let (value, first) = dict[key as usize];
            if value == u32::MAX {
                return Err(bind.reserved_key());
            }
            first as usize
        }
        None => key as usize,
    };
    if lut[first] == NO_GROUP {
        lut[first] = keys.len() as u32;
        keys.push(first as u32);
    }
    lut[key as usize] = lut[first];
    Ok(lut[first])
}

impl Groups {
    /// `rows` is the scan range's row count: a hash table is pre-sized
    /// for `rows / 4` distinct keys (capped at 64 Ki ≈ 1 MiB of table) so
    /// the common analytics shape — cardinality well below row count —
    /// reaches its final size without walking the doubling chain, whose
    /// rehashes otherwise re-insert every key once per doubling. Capacity
    /// is bit-invisible: group ids are assigned in first-seen row order
    /// whatever the slot count.
    fn new(bind: &GroupBind<'_>, rows: usize) -> Self {
        let map = match bind.map {
            MapKind::Direct(slots) => GidMap::Direct(vec![NO_GROUP; slots]),
            MapKind::Hash => GidMap::Hash(AggHashTable::with_capacity(
                (rows / 4).clamp(64, 1 << 16),
                HashKind::Identity,
                &NO_GROUP,
            )),
        };
        Groups {
            map,
            keys: Vec::new(),
        }
    }

    /// The group id of one key of a merged partial.
    #[inline]
    fn gid(&mut self, bind: &GroupBind<'_>, key: u32) -> Result<u32, PlanError> {
        let Groups { map, keys } = self;
        match map {
            GidMap::Direct(lut) => match lut[key as usize] {
                NO_GROUP => first_sight(lut, keys, bind, key),
                gid => Ok(gid),
            },
            GidMap::Hash(table) => {
                if key == u32::MAX {
                    return Err(bind.reserved_key());
                }
                let slot = table.slot_mut(key, &NO_GROUP);
                if *slot == NO_GROUP {
                    *slot = keys.len() as u32;
                    keys.push(key);
                }
                Ok(*slot)
            }
        }
    }

    /// One group id per key of a batch into `gids`, in row order. Narrow
    /// keys are one table load each; 32-bit keys go through the table's
    /// fused gather-compare-gather probe ([`AggHashTable::probe_gids`]):
    /// hit lanes produce their gid straight from the kernel, only
    /// first-seen keys and collision chains run scalar code
    /// (`RFA_SIMD=scalar`: all of them, the bit-identity reference).
    fn assign(
        &mut self,
        bind: &GroupBind<'_>,
        batch_keys: &[u32],
        gids: &mut Vec<u32>,
    ) -> Result<(), PlanError> {
        let Groups { map, keys } = self;
        gids.clear();
        match map {
            GidMap::Direct(lut) => {
                gids.resize(batch_keys.len(), 0);
                for (gid, &key) in gids.iter_mut().zip(batch_keys) {
                    *gid = match lut[key as usize] {
                        NO_GROUP => first_sight(lut, keys, bind, key)?,
                        gid => gid,
                    };
                }
            }
            GidMap::Hash(table) => {
                if batch_keys.contains(&u32::MAX) {
                    return Err(bind.reserved_key());
                }
                table.probe_gids(batch_keys, gids, |k| {
                    let g = keys.len() as u32;
                    keys.push(k);
                    g
                });
            }
        }
        Ok(())
    }
}

/// Per-run (or whole-input) accumulation state.
struct Partial {
    states: GroupedStates,
    /// `Some` for a grouped scan: this range's key → group-id mapping.
    groups: Option<Groups>,
    timing: PhaseTiming,
    batches_visited: u64,
}

impl Partial {
    fn merge(&mut self, other: Partial, bind: Option<&GroupBind<'_>>) -> Result<(), PlanError> {
        let Partial { states, groups, .. } = self;
        let slots = match (bind, groups.as_mut(), &other.groups) {
            // Group ids are per range: fold the other side's slots in by
            // *key*. `self` holds the earlier row range (the reduction
            // merges runs in index order), so appending unseen keys
            // here reproduces the global first-seen order, and
            // tie-breaking folds keep earlier rows.
            (Some(bind), Some(g), Some(og)) => {
                let slots = (og.keys.iter().enumerate())
                    .map(|(src, &key)| Ok((g.gid(bind, key)? as usize, src)))
                    .collect::<Result<Vec<_>, PlanError>>()?;
                states.ensure_groups(g.keys.len());
                slots
            }
            // Un-grouped: one slot on both sides.
            _ => vec![(0, 0)],
        };
        states.merge(&other.states, &slots)?;
        self.timing.scan += other.timing.scan;
        self.timing.aggregation += other.timing.aggregation;
        self.timing.other += other.timing.other;
        self.batches_visited += other.batches_visited;
        Ok(())
    }
}

/// How a batch's selected rows deposit into the group states.
#[derive(Clone, Copy, Default, PartialEq)]
pub(crate) enum Deposit {
    /// Ungrouped: every row in group 0, one block deposit.
    #[default]
    Single,
    /// One group id per selected row (`gids`).
    Rows,
    /// `gids` as for `Rows`, plus the batch's [`BatchPartition`] built
    /// over them: a repro SUM gathers its evaluated values through it and
    /// deposits one block call per group, the `Double` SUMs read them
    /// through it together, one register sum per group and SUM; every
    /// other state reads it like `Rows`.
    Partitioned,
}

impl Deposit {
    /// The rows a batch that deposits this way evaluates over. Per-row
    /// deposits and a partition's gather apply a selection themselves, so
    /// their near-dense batches read the covering range; the block kernel
    /// of an ungrouped batch wants one value per selected row, in a row.
    fn rows(self, sel: &[u32]) -> Sel<'_> {
        match self {
            Deposit::Rows | Deposit::Partitioned => Sel::near_dense(sel),
            Deposit::Single => Sel::new(sel),
        }
    }
}

/// One batch, as every aggregate's deposit reads it.
#[derive(Default)]
pub(crate) struct Batch<'a> {
    pub(crate) shape: Deposit,
    /// `Rows` / `Partitioned`: the group id of each selected row.
    pub(crate) gids: &'a [u32],
    /// A near-dense batch's selection, through which per-row deposits
    /// read their values out of the covering range's ([`States::rows`]).
    pub(crate) rows: Option<&'a [u32]>,
}

/// The one deposit: one batch's evaluated `values` of one aggregate —
/// one per selected row, or one per row of the covering range for a batch
/// with [`Batch::rows`] — into that aggregate's state array, the way the
/// batch's shape says. The state's kind is matched here, once per batch
/// and aggregate, to enter [`deposit_as`] for that kind.
pub(crate) fn deposit(
    state: &mut State,
    batch: &Batch<'_>,
    part: &mut BatchPartition,
    values: &[f64],
) -> Result<(), OverflowError> {
    dispatch!(state, |s| deposit_as(s, batch, part, values))
}

/// [`deposit`] into one kind of state array.
fn deposit_as<S: States>(
    s: &mut S,
    b: &Batch<'_>,
    part: &mut BatchPartition,
    values: &[f64],
) -> Result<(), OverflowError> {
    match b.shape {
        Deposit::Single => s.run(0, values),
        Deposit::Rows => s.rows(b.gids, values, b.rows),
        Deposit::Partitioned => s.partitioned(part, b.gids, values, b.rows),
    }
}

/// One scan range's working state: the range's group-id map, its states,
/// and the batch-sized scratch every batch reuses.
struct RangeScan<'q> {
    query: &'q BoundQuery<'q>,
    /// `Some` for a grouped query.
    groups: Option<Groups>,
    states: GroupedStates,
    sel: Vec<u32>,
    gids: Vec<u32>,
    key_buf: Vec<u32>,
    part: BatchPartition,
    eval: EvalScratch,
}

impl<'q> RangeScan<'q> {
    fn new(query: &'q BoundQuery<'q>, rows: usize) -> Self {
        // A grouped range starts with no group; an un-grouped one has its
        // single slot.
        let groups = query.group.is_none() as usize;
        RangeScan {
            query,
            groups: query.group.as_ref().map(|bind| Groups::new(bind, rows)),
            states: GroupedStates::new(query.backend, groups, query.states),
            sel: Vec::new(),
            gids: Vec::new(),
            key_buf: Vec::new(),
            part: BatchPartition::default(),
            eval: EvalScratch::new(),
        }
    }

    /// The selection vector of batch `[blo, bhi)`, starting from batch ∩
    /// kept ranges (`filter.ranges[range..]`). One piece (the rule: a
    /// sorted column, or no decided conjunct at all) is the first
    /// remaining conjunct's fill window; several pieces are laid down,
    /// then refined.
    fn filter(&mut self, range: usize, blo: usize, bhi: usize) {
        let (ScanFilter { ranges, preds }, sel) = (&self.query.filter, &mut self.sel);
        let (start, end) = ranges[range];
        sel.clear();
        let one_piece =
            end as usize >= bhi || ranges.get(range + 1).is_none_or(|r| r.0 as usize >= bhi);
        match preds.split_first() {
            Some((first, rest)) if one_piece => {
                let (flo, fhi) = (blo.max(start as usize), bhi.min(end as usize));
                first.fill(flo, fhi, sel, &mut self.eval);
                for p in rest {
                    p.refine(sel, &mut self.eval);
                }
            }
            _ => {
                extend_clipped(&ranges[range..], blo, bhi, sel);
                for p in preds {
                    p.refine(sel, &mut self.eval);
                }
            }
        }
    }

    /// Group-id assignment + COUNT(*), and with them how the batch
    /// deposits.
    fn group(&mut self) -> Result<Deposit, PlanError> {
        let RangeScan {
            query, sel, states, ..
        } = self;
        Ok(match (&query.group, &mut self.groups) {
            (Some(bind), Some(groups)) => {
                let batch = Sel::near_dense(sel);
                let keys = bind.key_col.fill(batch, &mut self.key_buf);
                groups.assign(bind, keys, &mut self.gids)?;
                states.ensure_groups(groups.keys.len());
                // A batch is partitioned by group id when its backend
                // partitions at all and has few groups for its rows.
                let groups = states.groups();
                let min_seg = query.backend.min_seg();
                if min_seg.is_some_and(|min| self.part.build(&self.gids, groups, min)) {
                    // A near-dense batch's partition lists covering-range
                    // offsets (if there is anything for it to gather).
                    if let Some(rows) = batch.selection().filter(|_| query.prog.outputs() > 0) {
                        self.part.select(rows);
                    }
                    // The segment lengths are the batch's COUNT.
                    let mut start = 0;
                    for &(g, end) in self.part.segs() {
                        states.add_count(g as usize, end - start);
                        start = end;
                    }
                    Deposit::Partitioned
                } else {
                    states.add_counts(&self.gids);
                    Deposit::Rows
                }
            }
            _ => {
                states.add_count(0, sel.len());
                Deposit::Single
            }
        })
    }

    /// Evaluates every aggregate input of the batch, once.
    fn project(&mut self, deposit: Deposit) {
        let rows = deposit.rows(&self.sel);
        self.query.prog.eval(rows, &mut self.eval);
    }

    /// Deposits every aggregate of the batch; the partition's permutation
    /// and the per-row deposits read a near-dense batch's selected rows
    /// out of its covering-range outputs (module docs). A partitioned
    /// batch's `Double` SUMs deposit together, in one pass over the
    /// partition ([`double_partitioned`]).
    fn deposit(&mut self, shape: Deposit) -> Result<(), PlanError> {
        let query = self.query;
        let batch = Batch {
            shape,
            gids: &self.gids,
            rows: shape.rows(&self.sel).selection(),
        };
        let mut together = 0;
        if shape == Deposit::Partitioned && query.backend == SumBackend::Double {
            together = query.states.0;
            let (sums, eval) = (&mut self.states.aggs[..together], &self.eval);
            double_partitioned(&self.part, sums, |k| query.prog.output(k, eval))?;
        }
        for (k, state) in self.states.aggs.iter_mut().enumerate().skip(together) {
            let values = query.prog.output(k, &self.eval);
            deposit(state, &batch, &mut self.part, values)?;
        }
        Ok(())
    }
}

/// Scans `[lo, hi)` batch-at-a-time into fresh per-call states. Each
/// visited batch is a cancellation point (`check`) and a fault-injection
/// point ([`faults::scan_point`]), and is timed as two intervals: filter,
/// group ids and projection (`scan`), then the deposits (`aggregation`).
fn scan_range(
    bound: &BoundQuery<'_>,
    opts: &ExecOptions,
    check: &CancelCheck,
    lo: usize,
    hi: usize,
) -> Result<Partial, PlanError> {
    let filter = &bound.filter;
    let mut scan = RangeScan::new(bound, hi - lo);
    let mut timing = PhaseTiming::default();
    let ranges = &filter.ranges;
    let mut range = filter.first_after(lo);
    let mut batches_visited = 0u64;
    let mut blo = lo;
    while blo < hi {
        // The next batch of the grid that holds a row of a kept range.
        while ranges.get(range).is_some_and(|r| r.1 as usize <= blo) {
            range += 1;
        }
        let Some(&(start, _)) = ranges.get(range) else {
            break;
        };
        if start as usize >= hi {
            break;
        }
        // Batches sit on multiples of `batch_rows` from row 0, so a serial
        // scan walks the same batches as the runs of a parallel one.
        blo = blo.max(start as usize / opts.batch_rows * opts.batch_rows);
        let bhi = (blo + opts.batch_rows).min(hi);
        check.check()?;
        faults::scan_point();
        batches_visited += 1;
        let t0 = Instant::now();
        scan.filter(range, blo, bhi);
        blo = bhi;
        // A batch whose selection is empty stops right after the filter.
        if scan.sel.is_empty() {
            timing.scan += t0.elapsed();
            continue;
        }
        let deposit = scan.group()?;
        scan.project(deposit);
        let t1 = Instant::now();
        timing.scan += t1 - t0;
        scan.deposit(deposit)?;
        timing.aggregation += t1.elapsed();
    }

    Ok(Partial {
        states: scan.states,
        groups: scan.groups,
        timing,
        batches_visited,
    })
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn pair(a: &str, b: &str) -> GroupKey {
        GroupKey::HashPair {
            a: a.into(),
            b: b.into(),
        }
    }

    fn sample_table(n: usize) -> Table {
        let mut t = Table::new("t");
        t.add_column(
            "x",
            Column::f64(
                (0..n)
                    .map(|i| (i % 97) as f64 * 0.25 - 8.0)
                    .collect::<Vec<_>>(),
            ),
        )
        .unwrap();
        t.add_column(
            "y",
            Column::f64((0..n).map(|i| (i % 13) as f64 * 0.01).collect::<Vec<_>>()),
        )
        .unwrap();
        t.add_column(
            "k",
            Column::i32((0..n).map(|i| (i % 31) as i32).collect::<Vec<_>>()),
        )
        .unwrap();
        t.add_column(
            "ga",
            Column::u8((0..n).map(|i| (i % 3) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
        t.add_column(
            "gb",
            Column::u8((0..n).map(|i| (i % 5) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
        t
    }

    fn sample_query() -> FusedQuery {
        FusedQuery {
            filter: vec![
                // 3 <= k < 27 on the I32 column (two typed fast conjuncts).
                Expr::col("k")
                    .ge(Expr::lit(3.0))
                    .and(Expr::col("k").lt(Expr::lit(27.0))),
                Expr::col("x").lt(Expr::lit(11.0)),
            ],
            sums: vec![
                Expr::col("x").mul(Expr::lit(1.0).sub(Expr::col("y"))),
                Expr::col("x"),
            ],
            mins: vec![],
            maxs: vec![],
            group_by: pair("ga", "gb"),
        }
    }

    /// Rows where every filter conjunct holds, via the materializing
    /// [`BoolExpr::eval`] reference (general mask program, no fast path).
    fn selected_rows(table: &Table, filter: &[BoolExpr]) -> Vec<u32> {
        let all: Vec<u32> = (0..table.rows() as u32).collect();
        let masks: Vec<Vec<bool>> = filter
            .iter()
            .map(|p| p.eval(table, &all).unwrap())
            .collect();
        all.into_iter()
            .filter(|&i| masks.iter().all(|m| m[i as usize]))
            .collect()
    }

    /// Per-row reference: n-sized selection vector, Expr::eval,
    /// sum_grouped — the pipeline fusion must be bit-identical to. Pair
    /// groups are numbered in first-seen row order; returns their keys
    /// (`None` un-grouped), the SUMs and the counts.
    fn reference(
        table: &Table,
        query: &FusedQuery,
        backend: SumBackend,
    ) -> (Option<Vec<u32>>, Vec<Vec<f64>>, Vec<u64>) {
        let sel = selected_rows(table, &query.filter);
        let (gids, keys): (Vec<u32>, Option<Vec<u32>>) = match &query.group_by {
            GroupKey::HashPair { a, b } => {
                let a = table.column(a.as_str()).unwrap().as_u8();
                let b = table.column(b.as_str()).unwrap().as_u8();
                let mut keys = Vec::new();
                let gids = sel
                    .iter()
                    .map(|&i| {
                        let key = (a[i as usize] as u32) << 8 | b[i as usize] as u32;
                        let seen = keys.iter().position(|&k| k == key);
                        seen.unwrap_or_else(|| {
                            keys.push(key);
                            keys.len() - 1
                        }) as u32
                    })
                    .collect();
                (gids, Some(keys))
            }
            GroupKey::None => (vec![0; sel.len()], None),
            GroupKey::Hash { .. } => unreachable!("hash reference is separate"),
        };
        let groups = keys.as_ref().map_or(1, Vec::len);
        let sums = query
            .sums
            .iter()
            .map(|e| {
                let vals = e.eval(table, &sel).unwrap();
                crate::sum_op::sum_grouped(backend, &gids, &vals, groups).unwrap()
            })
            .collect();
        (keys, sums, crate::sum_op::count_grouped(&gids, groups))
    }

    #[test]
    fn fused_matches_a_per_row_reference_across_batch_and_thread_shapes() {
        let table = sample_table(10_000);
        let query = sample_query();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 128 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 64,
            },
        ] {
            let (ref_keys, ref_sums, ref_counts) = reference(&table, &query, backend);
            assert_eq!(ref_keys.as_ref().map(Vec::len), Some(15));
            for (threads, batch_rows) in [(1, 64), (1, 4096), (2, 128), (8, 33)] {
                let opts = ExecOptions {
                    threads,
                    batch_rows,
                    ..ExecOptions::default()
                };
                let run = run_fused(&table, &query, backend, &opts).unwrap();
                assert_eq!(run.keys, ref_keys, "{backend:?} {opts:?}");
                assert_eq!(run.counts, ref_counts, "{backend:?} {opts:?}");
                for (a, (rs, fs)) in ref_sums.iter().zip(run.sums.iter()).enumerate() {
                    for (g, (r, f)) in rs.iter().zip(fs.iter()).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            f.to_bits(),
                            "{backend:?} {opts:?} agg {a} group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hash_grouping_matches_dense_grouping_bitwise() {
        // Group by the i32 column "k" (domain 0..31) through the hash arm
        // and through an equivalent dense reference computed per key.
        let table = sample_table(8_000);
        let query = FusedQuery {
            filter: vec![Expr::col("x").lt(Expr::lit(9.5))],
            sums: vec![Expr::col("x").mul(Expr::col("y"))],
            mins: vec![Expr::col("x")],
            maxs: vec![Expr::col("x")],
            group_by: GroupKey::Hash { col: "k".into() },
        };
        // Dense reference: key is its own dense id (domain 0..31).
        let k = table.column("k").unwrap().as_i32().to_vec();
        let x = table.column("x").unwrap().as_f64().to_vec();
        let y = table.column("y").unwrap().as_f64().to_vec();
        let sel: Vec<usize> = (0..table.rows()).filter(|&i| x[i] < 9.5).collect();
        let gids: Vec<u32> = sel.iter().map(|&i| k[i] as u32).collect();
        let vals: Vec<f64> = sel.iter().map(|&i| x[i] * y[i]).collect();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::RsumBuffered {
                levels: 2,
                buffer_size: 32,
            },
        ] {
            let ref_sums = crate::sum_op::sum_grouped(backend, &gids, &vals, 31).unwrap();
            let ref_counts = crate::sum_op::count_grouped(&gids, 31);
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 129,
                    ..ExecOptions::default()
                };
                let run = run_fused(&table, &query, backend, &opts).unwrap();
                let keys = run.keys.as_ref().unwrap();
                assert_eq!(keys.len(), 31, "{backend:?} t{threads}");
                for (slot, &key) in keys.iter().enumerate() {
                    assert_eq!(run.counts[slot], ref_counts[key as usize]);
                    assert_eq!(
                        run.sums[0][slot].to_bits(),
                        ref_sums[key as usize].to_bits(),
                        "{backend:?} t{threads} key {key}"
                    );
                    let min = sel
                        .iter()
                        .filter(|&&i| k[i] as u32 == key)
                        .map(|&i| x[i])
                        .fold(f64::INFINITY, f64::min);
                    let max = sel
                        .iter()
                        .filter(|&&i| k[i] as u32 == key)
                        .map(|&i| x[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!(run.mins[0][slot].to_bits(), min.to_bits());
                    assert_eq!(run.maxs[0][slot].to_bits(), max.to_bits());
                }
            }
        }
    }

    #[test]
    fn hash_group_key_order_is_thread_count_independent() {
        let table = sample_table(6_000);
        let query = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::Hash { col: "k".into() },
        };
        let serial = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        // Serial first-seen order over `k = i % 31` is simply 0, 1, 2, …
        assert_eq!(
            serial.keys.as_ref().unwrap()[..5],
            [0, 1, 2, 3, 4],
            "first-seen key order"
        );
        // 60 batches of 100 rows: at up to 8 runs no run starts on a
        // multiple of 31 rows, so each run after the first sees the keys
        // of `k = i % 31` from mid-cycle, and only merging the runs in
        // row order gives the serial key order.
        for threads in [2usize, 8] {
            let opts = ExecOptions {
                threads,
                batch_rows: 100,
                ..ExecOptions::default()
            };
            let run = run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap();
            assert_eq!(run.keys, serial.keys, "t{threads}");
            assert_eq!(run.counts, serial.counts);
            for (a, b) in serial.sums[0].iter().zip(run.sums[0].iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "t{threads}");
            }
        }
    }

    /// Scan ranges a fused run of `query` under `opts` runs, and the run.
    fn scan_ranges(table: &Table, query: &FusedQuery, opts: &ExecOptions) -> (usize, FusedRun) {
        let before = BIND_COUNTS.get().scan_ranges;
        let run = run_fused(table, query, SumBackend::ReproUnbuffered, opts).unwrap();
        (BIND_COUNTS.get().scan_ranges - before, run)
    }

    /// A scan runs one contiguous run of batches per thread: one run at
    /// `threads = 1`, else `min(threads, pool, live batches)`, each with
    /// the serial bits.
    #[test]
    fn a_parallel_scan_runs_one_range_per_thread() {
        let pool = rayon::current_num_threads();
        let table = sample_table(1_000);
        let query = sample_query();
        let serial = ExecOptions {
            batch_rows: 100,
            ..ExecOptions::default()
        };
        let (runs, want) = scan_ranges(&table, &query, &serial);
        assert_eq!(runs, 1);
        for (threads, batch_rows) in [(2, 100), (8, 100), (8, 300), (8, 1000), (8, 4096), (3, 7)] {
            let opts = ExecOptions {
                threads,
                batch_rows,
                ..ExecOptions::default()
            };
            let (runs, got) = scan_ranges(&table, &query, &opts);
            let live = 1_000usize.div_ceil(batch_rows);
            assert_eq!(runs, threads.min(pool).min(live), "{opts:?}");
            assert_runs_bitwise(&got, &want, &format!("{opts:?}"));
        }

        // Pruned to rows 100..300 of 1000: the live batches, not the rows,
        // are split, so both threads get a run inside that window.
        let mut pruned = Table::new("t");
        let d = Column::i32((0..1_000).map(|i| i / 10).collect::<Vec<_>>());
        pruned.add_column("d", d.rle_encode().unwrap()).unwrap();
        pruned
            .add_column("x", table.column("x").unwrap().clone())
            .unwrap();
        let query = FusedQuery {
            filter: vec![
                Expr::col("d").ge(Expr::lit(10.0)),
                Expr::col("d").lt(Expr::lit(30.0)),
            ],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::None,
        };
        let opts = |threads| ExecOptions {
            threads,
            batch_rows: 16,
            ..ExecOptions::default()
        };
        let (_, want) = scan_ranges(&pruned, &query, &opts(1));
        let (runs, got) = scan_ranges(&pruned, &query, &opts(2));
        assert_eq!(runs, pool.min(2));
        assert_runs_bitwise(&got, &want, "pruned t2");
        assert_eq!((got.batches_visited, got.batches_pruned), (13, 50));
    }

    /// A hostile thread count (a wire request may carry `u32::MAX`) runs
    /// at most the pool's runs — the fork budget bounds the threads — and
    /// returns the serial bits.
    #[test]
    fn a_hostile_thread_count_runs_at_most_the_pool() {
        let table = sample_table(5_000);
        let query = sample_query();
        let opts = |threads| ExecOptions {
            threads,
            batch_rows: 16,
            ..ExecOptions::default()
        };
        let (_, want) = scan_ranges(&table, &query, &opts(1));
        let (runs, got) = scan_ranges(&table, &query, &opts(usize::MAX));
        assert!(runs <= rayon::current_num_threads(), "{runs} runs");
        assert_runs_bitwise(&got, &want, "threads usize::MAX");
    }

    #[test]
    fn min_max_match_reference_per_dense_group() {
        let table = sample_table(5_000);
        let mut query = sample_query();
        query.mins = vec![Expr::col("x")];
        query.maxs = vec![Expr::col("x").mul(Expr::col("y"))];
        let run = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions {
                threads: 4,
                batch_rows: 61,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Scalar reference, per packed pair.
        let a = table.column("ga").unwrap().as_u8();
        let b = table.column("gb").unwrap().as_u8();
        let x = table.column("x").unwrap().as_f64();
        let y = table.column("y").unwrap().as_f64();
        let mut folds = std::collections::BTreeMap::new();
        for i in selected_rows(&table, &query.filter) {
            let i = i as usize;
            let (min, max) = folds
                .entry((a[i] as u32) << 8 | b[i] as u32)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY));
            *min = min.min(x[i]);
            *max = max.max(x[i] * y[i]);
        }
        let keys = run.keys.as_ref().unwrap();
        assert_eq!(keys.len(), folds.len());
        for (g, key) in keys.iter().enumerate() {
            let (min, max) = folds[key];
            assert_eq!(run.mins[0][g].to_bits(), min.to_bits(), "pair {key:#x}");
            assert_eq!(run.maxs[0][g].to_bits(), max.to_bits(), "pair {key:#x}");
        }
    }

    #[test]
    fn ungrouped_single_sink_path() {
        let table = sample_table(5_000);
        let query = FusedQuery {
            filter: vec![Expr::col("y").between(Expr::lit(0.02), Expr::lit(0.09))],
            sums: vec![Expr::col("x").mul(Expr::col("y"))],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::None,
        };
        for backend in [
            SumBackend::Double,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
        ] {
            let (_, ref_sums, ref_counts) = reference(&table, &query, backend);
            let run = run_fused(&table, &query, backend, &ExecOptions::serial()).unwrap();
            assert_eq!(run.counts, ref_counts);
            assert_eq!(
                run.sums[0][0].to_bits(),
                ref_sums[0][0].to_bits(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn empty_table_and_empty_filter() {
        let table = sample_table(0);
        let query = sample_query();
        let run = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        // A grouped scan of no rows has no group.
        assert_eq!(run.keys, Some(vec![]));
        assert!(run.counts.is_empty());
        assert!(run.sums.iter().all(|s| s.is_empty()));

        // No filter at all: every row selected.
        let table = sample_table(100);
        let all = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::None,
        };
        let run = run_fused(
            &table,
            &all,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(run.counts[0], 100);

        // Empty table through the hash arm: zero group slots.
        let table = sample_table(0);
        let hashed = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::Hash { col: "k".into() },
        };
        let run = run_fused(
            &table,
            &hashed,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(run.keys, Some(vec![]));
        assert!(run.counts.is_empty());
    }

    #[test]
    fn double_overflow_is_detected_in_fused_scan() {
        let mut t = Table::new("o");
        t.add_column("x", Column::f64(vec![f64::MAX, f64::MAX]))
            .unwrap();
        let q = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::None,
        };
        for backend in [SumBackend::Double, SumBackend::SortedDouble] {
            assert_eq!(
                run_fused(&t, &q, backend, &ExecOptions::serial()).unwrap_err(),
                PlanError::Overflow(OverflowError)
            );
        }
    }

    #[test]
    fn reserved_hash_key_is_an_error_not_a_panic() {
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(vec![1, 2, -1, 3])).unwrap();
        t.add_column("x", Column::f64(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        let q = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("x")],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::Hash { col: "k".into() },
        };
        for opts in [
            ExecOptions::serial(),
            ExecOptions {
                threads: 4,
                batch_rows: 2,
                ..ExecOptions::default()
            },
        ] {
            assert_eq!(
                run_fused(&t, &q, SumBackend::ReproUnbuffered, &opts).unwrap_err(),
                PlanError::ReservedKey { col: "k".into() }
            );
        }
    }

    /// Satellite: a zero in any `ExecOptions` field is clamped to 1, not a
    /// hang or panic downstream — one test per field.
    #[test]
    fn zero_batch_rows_is_clamped() {
        let table = sample_table(500);
        let query = sample_query();
        let reference = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        let run = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions {
                batch_rows: 0,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.counts, reference.counts);
        assert_eq!(run.sums[0][0].to_bits(), reference.sums[0][0].to_bits());
    }

    #[test]
    fn zero_threads_is_clamped() {
        let table = sample_table(500);
        let query = sample_query();
        let reference = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        let run = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions {
                threads: 0,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.counts, reference.counts);
        assert_eq!(run.sums[0][0].to_bits(), reference.sums[0][0].to_bits());
    }

    #[test]
    fn normalized_clamps_only_zero_fields() {
        let opts = ExecOptions {
            threads: 0,
            batch_rows: 0,
            ..ExecOptions::default()
        }
        .normalized();
        assert_eq!((opts.threads, opts.batch_rows), (1, 1));
        let opts = ExecOptions {
            threads: 3,
            batch_rows: 7,
            ..ExecOptions::default()
        }
        .normalized();
        assert_eq!((opts.threads, opts.batch_rows), (3, 7));
    }

    /// Satellite: the deadline and cancellation fields pass through
    /// `normalized()` untouched — a zero deadline is a meaningful request,
    /// not a degenerate sizing value to clamp.
    #[test]
    fn normalized_preserves_deadline_and_cancel() {
        let token = CancelToken::new();
        let opts = ExecOptions {
            deadline: Some(Duration::ZERO),
            cancel: Some(token.clone()),
            ..ExecOptions::default()
        }
        .normalized();
        assert_eq!(opts.deadline, Some(Duration::ZERO));
        // The clone shares the original flag.
        token.cancel();
        assert!(opts.cancel.as_ref().unwrap().is_cancelled());
        let opts = ExecOptions::default().normalized();
        assert_eq!(opts.deadline, None);
        assert!(opts.cancel.is_none());
    }

    /// Satellite: `deadline: Some(Duration::ZERO)` is an immediate typed
    /// timeout — before the first batch, even on an empty table, on both
    /// the serial and parallel paths. Never UB, never a hang.
    #[test]
    fn zero_deadline_times_out_immediately() {
        for rows in [0usize, 5_000] {
            let table = sample_table(rows);
            let query = sample_query();
            for threads in [1usize, 4] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 64,
                    deadline: Some(Duration::ZERO),
                    ..ExecOptions::default()
                };
                assert_eq!(
                    run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap_err(),
                    PlanError::DeadlineExceeded {
                        deadline: Duration::ZERO
                    },
                    "rows {rows} threads {threads}"
                );
            }
        }
    }

    /// Satellite: an absurdly large deadline must behave like "no
    /// deadline" (the absolute instant overflows the platform clock), and
    /// a generous one must not perturb results — bit-identical to a run
    /// without any deadline.
    #[test]
    fn huge_deadline_never_expires_and_does_not_perturb_results() {
        let table = sample_table(2_000);
        let query = sample_query();
        let plain = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        for deadline in [Duration::MAX, Duration::from_secs(3600)] {
            let opts = ExecOptions {
                deadline: Some(deadline),
                ..ExecOptions::default()
            };
            let run = run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap();
            assert_eq!(run.counts, plain.counts);
            for (a, b) in plain.sums[0].iter().zip(run.sums[0].iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Satellite: a token cancelled before execution fails up front with
    /// the typed error; an untripped token changes nothing.
    #[test]
    fn pre_cancelled_token_is_a_typed_error() {
        let table = sample_table(1_000);
        let query = sample_query();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let opts = ExecOptions {
                threads,
                cancel: Some(token.clone()),
                ..ExecOptions::default()
            };
            assert_eq!(
                run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap_err(),
                PlanError::Cancelled
            );
        }
        let plain = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        )
        .unwrap();
        let armed = run_fused(
            &table,
            &query,
            SumBackend::ReproUnbuffered,
            &ExecOptions {
                cancel: Some(CancelToken::new()),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.counts, armed.counts);
        assert_eq!(plain.sums[0][0].to_bits(), armed.sums[0][0].to_bits());
    }

    /// A scan slow enough (one batch, two clock reads and a cancellation
    /// point per row) that a clock or another thread overtakes it.
    fn slow_scan(n: usize) -> (Table, FusedQuery, ExecOptions) {
        let mut query = sample_query();
        query.filter.clear();
        let opts = ExecOptions {
            batch_rows: 1,
            ..ExecOptions::default()
        };
        (sample_table(n), query, opts)
    }

    /// Cancellation lands *mid-scan*: another thread trips the token while
    /// this one scans, and the next batch-boundary check must surface
    /// `Cancelled` — not a panic, not a hang. A scan the canceller was too
    /// slow for completes with the undisturbed answer; the one after it
    /// fails up front, so the loop ends either way.
    #[test]
    fn cancel_mid_scan_surfaces_typed_error() {
        let (table, query, opts) = slow_scan(200_000);
        let want = run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap();
        let token = CancelToken::new();
        let opts = ExecOptions {
            cancel: Some(token.clone()),
            ..opts
        };
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                token.cancel();
            });
            start.wait();
            loop {
                match run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts) {
                    Ok(run) => assert_runs_bitwise(&run, &want, "finished before the cancel"),
                    Err(err) => break assert_eq!(err, PlanError::Cancelled),
                }
            }
        });
    }

    /// Tentpole: the same logical table with dictionary- and RLE-encoded
    /// group keys and measure columns must produce bit-identical results
    /// to the plain layout, across grouping modes, backends, threads and
    /// batch shapes — the executor reads the encodings, never decodes.
    #[test]
    fn encoded_tables_match_plain_tables_bitwise() {
        let n = 6_000;
        // Sorted-by-group layout so the RLE group keys have long runs.
        let mut rows: Vec<(u8, u8, f64, i32)> = (0..n)
            .map(|i| {
                (
                    (i % 3) as u8,
                    (i % 5) as u8,
                    (i % 97) as f64 * 0.25 - 8.0 + 2.5e-16,
                    i % 31,
                )
            })
            .collect();
        rows.sort_by_key(|&(a, b, ..)| (a, b));
        let ga: Vec<u8> = rows.iter().map(|r| r.0).collect();
        let gb: Vec<u8> = rows.iter().map(|r| r.1).collect();
        let x: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let k: Vec<i32> = rows.iter().map(|r| r.3).collect();

        let mut plain = Table::new("t");
        plain.add_column("ga", Column::u8(ga.clone())).unwrap();
        plain.add_column("gb", Column::u8(gb.clone())).unwrap();
        plain.add_column("x", Column::f64(x.clone())).unwrap();
        plain.add_column("k", Column::i32(k.clone())).unwrap();

        // Encoded twin: RLE group keys (sorted => few runs), dictionary
        // measure and RLE hash key.
        let mut enc = Table::new("t");
        enc.add_column("ga", Column::rle_encode(&Column::u8(ga)).unwrap())
            .unwrap();
        enc.add_column("gb", Column::dict_encode(&Column::u8(gb)).unwrap())
            .unwrap();
        enc.add_column("x", Column::dict_encode(&Column::f64(x)).unwrap())
            .unwrap();
        enc.add_column("k", Column::rle_encode(&Column::i32(k)).unwrap())
            .unwrap();
        // And a fully-RLE twin: both legs of the group-key pair, the
        // measure and the hash key.
        let mut enc_rle = Table::new("t");
        for (name, col) in [
            ("ga", enc.column("ga").unwrap().decode()),
            ("gb", plain.column("gb").unwrap().clone()),
            ("x", plain.column("x").unwrap().clone()),
            ("k", plain.column("k").unwrap().clone()),
        ] {
            enc_rle
                .add_column(name, Column::rle_encode(&col).unwrap())
                .unwrap();
        }

        let queries = [
            FusedQuery {
                filter: vec![Expr::col("x").lt(Expr::lit(9.5))],
                sums: vec![Expr::col("x")],
                mins: vec![Expr::col("x")],
                maxs: vec![Expr::col("x")],
                group_by: pair("ga", "gb"),
            },
            FusedQuery {
                filter: vec![],
                sums: vec![Expr::col("x")],
                mins: vec![],
                maxs: vec![],
                group_by: pair("ga", "gb"),
            },
            FusedQuery {
                filter: vec![Expr::col("x").ge(Expr::lit(-7.0))],
                sums: vec![Expr::col("x")],
                mins: vec![],
                maxs: vec![],
                group_by: GroupKey::Hash { col: "k".into() },
            },
        ];
        for (q, query) in queries.iter().enumerate() {
            for backend in [SumBackend::Double, SumBackend::ReproUnbuffered] {
                for (threads, batch_rows) in [(1, 4096), (1, 73), (4, 128)] {
                    let opts = ExecOptions {
                        threads,
                        batch_rows,
                        ..ExecOptions::default()
                    };
                    let want = run_fused(&plain, query, backend, &opts).unwrap();
                    for (t, table) in [(0, &enc), (1, &enc_rle)] {
                        let got = run_fused(table, query, backend, &opts).unwrap();
                        assert_eq!(got.counts, want.counts, "q{q} {backend:?} {opts:?} t{t}");
                        assert_eq!(got.keys, want.keys, "q{q} {backend:?} {opts:?} t{t}");
                        for (arrays, ref_arrays) in [
                            (&got.sums, &want.sums),
                            (&got.mins, &want.mins),
                            (&got.maxs, &want.maxs),
                        ] {
                            for (a, (xs, ys)) in arrays.iter().zip(ref_arrays.iter()).enumerate() {
                                for (g, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "q{q} {backend:?} {opts:?} t{t} agg {a} group {g}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Satellite: `Dict16` group keys — a wide-dictionary hash key column
    /// (1000 distinct `I32` keys, `u16` codes) and a hand-built
    /// `Dict16<U8>` pair key leg — group bit-identically to plain keys.
    #[test]
    fn dict16_group_keys_match_plain() {
        use std::sync::Arc;
        let n = 8_000usize;
        let k: Vec<i32> = (0..n).map(|i| (i * 7 % 1000) as i32).collect();
        let ga: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let gb: Vec<u8> = (0..n).map(|i| (i % 5) as u8).collect();
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.25 - 8.0).collect();

        let mut plain = Table::new("t");
        plain.add_column("k", Column::i32(k.clone())).unwrap();
        plain.add_column("ga", Column::u8(ga.clone())).unwrap();
        plain.add_column("gb", Column::u8(gb)).unwrap();
        plain.add_column("x", Column::f64(x.clone())).unwrap();

        let mut enc = Table::new("t");
        let k16 = Column::dict_encode(&Column::i32(k)).unwrap();
        assert_eq!(k16.storage_name(), "Dict16<I32>");
        enc.add_column("k", k16).unwrap();
        // dict_encode never widens a U8 dictionary past 256 entries, so
        // build the Dict16<U8> leg by hand (identity codes into a 3-entry
        // dictionary).
        enc.add_column(
            "ga",
            Column::dict16(
                Arc::new(ga.iter().map(|&a| a as u16).collect()),
                Column::u8(vec![0, 1, 2]),
            )
            .unwrap(),
        )
        .unwrap();
        enc.add_column("gb", plain.column("gb").unwrap().clone())
            .unwrap();
        enc.add_column("x", Column::f64(x)).unwrap();

        let queries = [
            FusedQuery {
                filter: vec![Expr::col("x").lt(Expr::lit(9.5))],
                sums: vec![Expr::col("x")],
                mins: vec![Expr::col("x")],
                maxs: vec![Expr::col("x")],
                group_by: GroupKey::Hash { col: "k".into() },
            },
            FusedQuery {
                filter: vec![],
                sums: vec![Expr::col("x")],
                mins: vec![],
                maxs: vec![],
                group_by: pair("ga", "gb"),
            },
        ];
        for (q, query) in queries.iter().enumerate() {
            for threads in [1usize, 4] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 129,
                    ..ExecOptions::default()
                };
                let want = run_fused(&plain, query, SumBackend::ReproUnbuffered, &opts).unwrap();
                let got = run_fused(&enc, query, SumBackend::ReproUnbuffered, &opts).unwrap();
                assert_eq!(got.keys, want.keys, "q{q} t{threads}");
                assert_eq!(got.counts, want.counts, "q{q} t{threads}");
                for (a, b) in want.sums[0].iter().zip(got.sums[0].iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "q{q} t{threads}");
                }
            }
        }
    }

    /// A wide dictionary under many hash groups (1000 groups × 6000
    /// `u16`-coded entries): SUM / MIN / MAX over the `Dict16` input are
    /// evaluated through the code lookup and deposited per row, and match
    /// the plain twin bit for bit.
    #[test]
    fn wide_dictionary_input_under_many_groups_matches_plain_bitwise() {
        let n = 12_000usize;
        let k: Vec<i32> = (0..n).map(|i| (i % 1000) as i32).collect();
        let vw: Vec<f64> = (0..n)
            .map(|i| (i % 6000) as f64 * 0.015625 - 42.0)
            .collect();
        let mut plain = Table::new("t");
        plain.add_column("k", Column::i32(k.clone())).unwrap();
        plain.add_column("vw", Column::f64(vw.clone())).unwrap();
        let mut enc = Table::new("t");
        enc.add_column("k", Column::i32(k)).unwrap();
        let dict = Column::dict_encode(&Column::f64(vw)).unwrap();
        assert_eq!(dict.storage_name(), "Dict16<F64>");
        enc.add_column("vw", dict).unwrap();
        let query = FusedQuery {
            filter: vec![],
            sums: vec![Expr::col("vw")],
            mins: vec![Expr::col("vw")],
            maxs: vec![Expr::col("vw")],
            group_by: GroupKey::Hash { col: "k".into() },
        };
        for threads in [1usize, 4] {
            let opts = ExecOptions {
                threads,
                batch_rows: 4096,
                ..ExecOptions::default()
            };
            let want = run_fused(&plain, &query, SumBackend::ReproUnbuffered, &opts).unwrap();
            let got = run_fused(&enc, &query, SumBackend::ReproUnbuffered, &opts).unwrap();
            assert_eq!(got.keys, want.keys);
            assert_eq!(got.counts, want.counts);
            for arrays in [
                (&got.sums, &want.sums),
                (&got.mins, &want.mins),
                (&got.maxs, &want.maxs),
            ] {
                for (xs, ys) in arrays.0.iter().zip(arrays.1.iter()) {
                    for (x, y) in xs.iter().zip(ys.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "t{threads}");
                    }
                }
            }
        }
    }

    fn assert_runs_bitwise(got: &FusedRun, want: &FusedRun, tag: &str) {
        assert_eq!(got.counts, want.counts, "{tag}");
        assert_eq!(got.keys, want.keys, "{tag}");
        for (arrays, ref_arrays) in [
            (&got.sums, &want.sums),
            (&got.mins, &want.mins),
            (&got.maxs, &want.maxs),
        ] {
            assert_eq!(arrays.len(), ref_arrays.len(), "{tag}");
            for (a, (xs, ys)) in arrays.iter().zip(ref_arrays.iter()).enumerate() {
                assert_eq!(xs.len(), ys.len(), "{tag} agg {a}");
                for (g, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{tag} agg {a} group {g}");
                }
            }
        }
    }

    /// Grid batches holding at least one row that `keep` selects — what
    /// a pruned scan may visit, by brute force — and the grid's size.
    fn batches_holding(n: usize, opts: &ExecOptions, keep: impl Fn(usize) -> bool) -> (u64, u64) {
        let grid = n.div_ceil(opts.batch_rows);
        let holding = (0..grid)
            .filter(|b| (b * opts.batch_rows..((b + 1) * opts.batch_rows).min(n)).any(&keep))
            .count();
        (holding as u64, grid as u64)
    }

    /// Acceptance: Q6 over the shipdate-sorted, `encode_auto`-ed lineitem
    /// visits only the batches its date window overlaps, the visited and
    /// pruned counts add up to the grid at every thread count, and the
    /// filter — ranges included — is bound once per query, not per run.
    #[test]
    fn q6_over_rle_shipdate_visits_only_its_date_window() {
        use crate::q6::{q6_plan, Q6_DATE_HI, Q6_DATE_LO};
        let li = rfa_workloads::Lineitem::generate(50_000, 11).sorted_by_shipdate();
        let encoded = crate::q1::lineitem_table_encoded(&li);
        assert_eq!(
            encoded.column("l_shipdate").unwrap().storage_name(),
            "Rle<I32>"
        );
        let plain = crate::q1::lineitem_table(&li);
        let in_window = |r: usize| (Q6_DATE_LO..Q6_DATE_HI).contains(&li.shipdate[r]);
        let window_rows = (0..li.len()).filter(|&r| in_window(r)).count();
        assert!(window_rows > 0);
        let plan = q6_plan();
        for batch_rows in [4096, 512, 100, 7] {
            let mut visited_at = Vec::new();
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions {
                    threads,
                    batch_rows,
                    ..ExecOptions::default()
                };
                let binds = BIND_COUNTS.get().filter_binds;
                let got = plan
                    .execute(&encoded, SumBackend::ReproUnbuffered, &opts)
                    .unwrap();
                assert_eq!(BIND_COUNTS.get().filter_binds, binds + 1, "{opts:?}");
                let want = plan
                    .execute(&plain, SumBackend::ReproUnbuffered, &opts)
                    .unwrap();
                assert_eq!(got.columns, want.columns, "{opts:?}");
                let (holding, grid) = batches_holding(li.len(), &opts, in_window);
                assert_eq!(got.batches_visited, holding, "{opts:?}");
                assert!(
                    got.batches_visited <= window_rows.div_ceil(batch_rows) as u64 + 1,
                    "{opts:?}: {} batches for {window_rows} rows",
                    got.batches_visited
                );
                assert_eq!(got.batches_visited + got.batches_pruned, grid, "{opts:?}");
                assert_eq!((want.batches_visited, want.batches_pruned), (grid, 0));
                visited_at.push(got.batches_visited);
            }
            assert!(
                visited_at.windows(2).all(|w| w[0] == w[1]),
                "{visited_at:?}"
            );
        }
    }

    /// Range boundaries inside a batch and on a batch edge; a single-run column; no run kept; every run kept; an
    /// unsorted column leaving many disjoint ranges in one batch — each
    /// against the plain twin, bit for bit, with the exact set of batches
    /// visited.
    #[test]
    fn pruned_ranges_clip_batches_exactly() {
        let n = 1000usize;
        // Sorted runs of 10 rows; unsorted runs of 3 cycling 0..4; one run.
        let d: Vec<i32> = (0..n).map(|i| (i / 10) as i32).collect();
        let u: Vec<i32> = (0..n).map(|i| (i / 3 % 4) as i32).collect();
        let one = vec![5i32; n];
        let x: Vec<f64> = (0..n)
            .map(|i| (i % 97) as f64 * 0.25 - 8.0 + 2.5e-16)
            .collect();
        let k: Vec<i32> = (0..n).map(|i| ((n - i) % 7) as i32).collect();
        let mut plain = Table::new("t");
        let mut enc = Table::new("t");
        for (name, col) in [("d", d.clone()), ("u", u.clone()), ("one", one), ("k", k)] {
            let col = Column::i32(col);
            let encoded = if name == "k" {
                col.clone()
            } else {
                col.rle_encode().unwrap()
            };
            enc.add_column(name, encoded).unwrap();
            plain.add_column(name, col).unwrap();
        }
        for t in [&mut plain, &mut enc] {
            t.add_column("x", Column::f64(x.clone())).unwrap();
        }
        type Keep = Box<dyn Fn(usize) -> bool>;
        let between = |lo: i32, hi: i32| -> (Vec<BoolExpr>, Keep) {
            let d = d.clone();
            (
                vec![
                    Expr::col("d").ge(Expr::lit(lo as f64)),
                    Expr::col("d").lt(Expr::lit(hi as f64)),
                ],
                Box::new(move |r| (lo..hi).contains(&d[r])),
            )
        };
        let u_mid = {
            let u = u.clone();
            (
                vec![
                    Expr::col("u").ge(Expr::lit(1.0)),
                    Expr::col("u").le(Expr::lit(2.0)),
                ],
                Box::new(move |r| (1..=2).contains(&u[r])) as Keep,
            )
        };
        let filters: Vec<(Vec<BoolExpr>, Keep)> = vec![
            between(64, 70),   // starts on row 640, a batch edge at 16 rows
            between(65, 80),   // starts inside a batch, ends on a batch edge (800)
            between(3, 4),     // one run, inside one batch
            between(0, 100),   // every run kept
            between(100, 200), // no run kept
            u_mid,             // many disjoint ranges per batch
            (
                vec![Expr::col("one").eq(Expr::lit(5.0))],
                Box::new(|_| true),
            ),
            (
                vec![Expr::col("one").gt(Expr::lit(5.0))],
                Box::new(|_| false),
            ),
        ];
        for (f, (filter, keep)) in filters.into_iter().enumerate() {
            for group_by in [GroupKey::None, GroupKey::Hash { col: "k".into() }] {
                let query = FusedQuery {
                    filter: filter.clone(),
                    sums: vec![Expr::col("x"), Expr::col("d")],
                    mins: vec![Expr::col("x")],
                    maxs: vec![Expr::col("u")],
                    group_by,
                };
                for backend in [
                    SumBackend::Double,
                    SumBackend::ReproBuffered { buffer_size: 64 },
                ] {
                    for (threads, batch_rows) in
                        [(1, 16), (4, 16), (1, 1), (8, 1), (3, 7), (1, 4096)]
                    {
                        let opts = ExecOptions {
                            threads,
                            batch_rows,
                            ..ExecOptions::default()
                        };
                        let tag = format!("filter {f} {backend:?} {opts:?}");
                        let want = run_fused(&plain, &query, backend, &opts).unwrap();
                        let got = run_fused(&enc, &query, backend, &opts).unwrap();
                        assert_runs_bitwise(&got, &want, &tag);
                        let (holding, grid) = batches_holding(n, &opts, &keep);
                        assert_eq!(got.batches_visited, holding, "{tag}");
                        assert_eq!(got.batches_pruned, grid - holding, "{tag}");
                        if holding == 0 {
                            // Empty result, typed: a zero count and the
                            // fold identities, or no hash group at all.
                            match &got.keys {
                                Some(keys) => assert!(keys.is_empty(), "{tag}"),
                                None => assert_eq!(got.counts, [0], "{tag}"),
                            }
                        }
                    }
                }
            }
        }
    }

    /// Shapes binding cannot decide — `OR`, `NOT`, `<>`, a comparison of
    /// an expression — run on every batch, over RLE columns too.
    #[test]
    fn undecidable_shapes_over_rle_columns_are_not_pruned() {
        let n = 600usize;
        let d = Column::i32((0..n).map(|i| (i / 50) as i32).collect::<Vec<_>>());
        let x = Column::f64((0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        let mut plain = Table::new("t");
        plain.add_column("d", d.clone()).unwrap();
        plain.add_column("x", x.clone()).unwrap();
        let mut enc = Table::new("t");
        enc.add_column("d", d.rle_encode().unwrap()).unwrap();
        enc.add_column("x", x).unwrap();
        let col = || Expr::col("d");
        for filter in [
            col().lt(Expr::lit(2.0)).or(col().gt(Expr::lit(9.0))),
            col().ge(Expr::lit(3.0)).not(),
            col().ne(Expr::lit(3.0)),
            col().add(Expr::lit(1.0)).lt(Expr::lit(4.0)),
            col().lt(Expr::col("x")),
        ] {
            let query = FusedQuery {
                filter: vec![filter],
                sums: vec![Expr::col("x")],
                mins: vec![],
                maxs: vec![],
                group_by: GroupKey::None,
            };
            for threads in [1usize, 4] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 32,
                    ..ExecOptions::default()
                };
                let want = run_fused(&plain, &query, SumBackend::Double, &opts).unwrap();
                let got = run_fused(&enc, &query, SumBackend::Double, &opts).unwrap();
                assert_runs_bitwise(&got, &want, &format!("{:?}", query.filter));
                assert_eq!((got.batches_visited, got.batches_pruned), (19, 0));
            }
        }
    }

    /// `preds.len()` of the [`ScanFilter`] a fused run of `filter` binds.
    fn bound_preds(table: &Table, filter: Vec<BoolExpr>) -> usize {
        let query = FusedQuery {
            filter,
            sums: vec![],
            mins: vec![],
            maxs: vec![],
            group_by: GroupKey::None,
        };
        run_fused(table, &query, SumBackend::Double, &ExecOptions::serial()).unwrap();
        BIND_COUNTS.get().bound_preds
    }

    /// Acceptance: same-column interval conjuncts merge at bind. Q6 binds
    /// three per-batch conjuncts (its date window is one), Q15 one —
    /// through the plan builder and through SQL alike — while the plan
    /// itself still holds the query as written.
    #[test]
    fn same_column_conjuncts_bind_as_one() {
        use crate::sql::sql_query;
        let li = rfa_workloads::Lineitem::generate(5_000, 3);
        let table = crate::q1::lineitem_table(&li);
        let bound = |plan: &crate::plan::QueryPlan| {
            let opts = ExecOptions::serial();
            plan.execute(&table, SumBackend::ReproUnbuffered, &opts)
                .unwrap();
            BIND_COUNTS.get().bound_preds
        };
        let (q6, q15) = (crate::q6::q6_plan(), crate::q15::q15_plan());
        assert_eq!(q6.lower(&table).unwrap().query.filter.len(), 4);
        assert_eq!(bound(&q6), 3);
        assert_eq!(bound(&q15), 1);
        let q6 = sql_query(&crate::q6::q6_sql(), &table).unwrap();
        let q15 = sql_query(&crate::q15::q15_sql(), &table).unwrap();
        assert_eq!(bound(&q6.plan), 3);
        assert_eq!(bound(&q15.plan), 1);

        // The merged conjunct sits where the column's first one stood, and
        // only intervals merge: `<>` and compositions keep their slot.
        let t = sample_table(300);
        let (x, k) = (|| Expr::col("x"), || Expr::col("k"));
        let lit = Expr::lit;
        for (filter, want) in [
            (
                vec![x().ge(lit(-1.0)), k().lt(lit(9.0)), x().lt(lit(5.0))],
                2,
            ),
            (
                vec![x().ge(lit(-1.0)), x().ne(lit(2.0)), x().lt(lit(5.0))],
                2,
            ),
            (
                vec![x().lt(lit(5.0)).or(x().gt(lit(7.0))), x().gt(lit(-9.0))],
                2,
            ),
            (
                vec![
                    k().eq(lit(4.0)),
                    k().between(lit(2.5), lit(7.5)),
                    k().le(lit(4.0)),
                ],
                1,
            ),
            (vec![x().ge(lit(1.0)).and(x().lt(lit(5.0)))], 1),
            (vec![], 0),
            // Decided at bind: an empty window is no per-batch conjunct.
            (
                vec![x().ge(lit(5.0)), k().lt(lit(9.0)), x().lt(lit(3.0))],
                1,
            ),
        ] {
            let tag = format!("{filter:?}");
            assert_eq!(bound_preds(&t, filter), want, "{tag}");
        }
    }

    /// Random conjunct lists: the filter binds one per-batch conjunct per
    /// column that interval conjuncts name plus one per conjunct of any
    /// other shape — however often a column repeats, wherever it stands.
    #[test]
    fn bound_conjuncts_are_distinct_interval_columns_plus_the_rest() {
        let mut t = sample_table(200);
        let x = t.column("x").unwrap().clone();
        t.add_column("xd", x.dict_encode().unwrap()).unwrap();
        const COLS: [&str; 5] = ["x", "y", "k", "ga", "xd"];
        let mut rng = rfa_workloads::SplitMix64::new(22);
        for case in 0..200 {
            let mut filter = Vec::new();
            let mut interval_cols = std::collections::BTreeSet::new();
            let mut others = 0;
            for _ in 0..rng.below(7) {
                let name = COLS[rng.below(5) as usize];
                let col = || Expr::col(name);
                // Lower bounds below zero, upper bounds above: no merged
                // interval is empty.
                let below = Expr::lit(-1.0 - rng.below(9) as f64 * 0.5);
                let above = Expr::lit(0.5 + rng.below(9) as f64 * 0.5);
                let shape = rng.below(9);
                filter.push(match shape {
                    0 => col().gt(below),
                    1 => col().ge(below),
                    2 => col().lt(above),
                    3 => col().le(above),
                    4 => col().between(below, above),
                    5 => below.le(col()),
                    6 => col().ne(above),
                    7 => col().lt(above).or(col().gt(below)),
                    _ => col().add(Expr::lit(1.0)).ge(below),
                });
                if shape < 6 {
                    interval_cols.insert(name);
                } else {
                    others += 1;
                }
            }
            let want = interval_cols.len() + others;
            assert_eq!(
                bound_preds(&t, filter.clone()),
                want,
                "case {case}: {filter:?}"
            );
        }
    }

    /// ROADMAP H.2 "all-filtered", pinned: a conjunction no value can
    /// satisfy — crossed bounds, a NaN literal, a strict bound at the
    /// infinity it excludes, no integer between the bounds of an integer
    /// column — is decided when the filter is bound. No batch is visited,
    /// and the answer is the one the scan that visits every batch and
    /// keeps no row gives: COUNT 0, SUM +0.0, MIN +∞, MAX −∞, no hash
    /// group — on every backend, serial and two threads.
    #[test]
    fn empty_intervals_visit_no_batch_and_answer_like_the_full_scan() {
        let n = 1000;
        let t = sample_table(n);
        let (x, k) = (|| Expr::col("x"), || Expr::col("k"));
        let lit = Expr::lit;
        let filters = [
            vec![x().ge(lit(5.0)), x().lt(lit(3.0))],
            vec![x().ge(lit(5.0)), k().lt(lit(9.0)), x().lt(lit(5.0))],
            vec![x().le(lit(f64::NAN))],
            vec![x().between(lit(f64::NAN), lit(1.0))],
            vec![x().lt(lit(f64::NEG_INFINITY))],
            vec![lit(f64::INFINITY).lt(x())],
            vec![k().between(lit(2.25), lit(2.75))],
            vec![k().gt(lit(2.0)), k().lt(lit(3.0)), x().lt(lit(1.0))],
            vec![k().ge(lit(3e9))],
        ];
        let group_bys = || {
            [
                GroupKey::None,
                sample_query().group_by,
                GroupKey::Hash { col: "k".into() },
            ]
        };
        for filter in filters {
            // The same truth table in a shape binding cannot decide.
            let all = filter.iter().cloned().reduce(BoolExpr::and).unwrap();
            let undecided = vec![all.not().not()];
            for group_by in group_bys() {
                let query = |filter: &Vec<BoolExpr>| FusedQuery {
                    filter: filter.clone(),
                    sums: vec![Expr::col("x"), Expr::col("x").mul(Expr::col("y"))],
                    mins: vec![Expr::col("y")],
                    maxs: vec![Expr::col("k")],
                    group_by: group_by.clone(),
                };
                for backend in [
                    SumBackend::Double,
                    SumBackend::ReproUnbuffered,
                    SumBackend::ReproBuffered { buffer_size: 64 },
                    SumBackend::Rsum { levels: 2 },
                    SumBackend::RsumBuffered {
                        levels: 3,
                        buffer_size: 48,
                    },
                ] {
                    for threads in [1usize, 2] {
                        let opts = ExecOptions {
                            threads,
                            batch_rows: 64,
                            ..ExecOptions::default()
                        };
                        let tag = format!("{filter:?} {group_by:?} {backend:?} t{threads}");
                        let got = run_fused(&t, &query(&filter), backend, &opts).unwrap();
                        let want = run_fused(&t, &query(&undecided), backend, &opts).unwrap();
                        let grid = n.div_ceil(opts.batch_rows) as u64;
                        assert_eq!(
                            (got.batches_visited, got.batches_pruned),
                            (0, grid),
                            "{tag}"
                        );
                        assert_eq!((want.batches_visited, want.batches_pruned), (grid, 0));
                        assert_runs_bitwise(&got, &want, &tag);
                        assert!(got.counts.iter().all(|&c| c == 0), "{tag}");
                        let bits = |v: f64| v.to_bits();
                        let all_are = |arrays: &Vec<Vec<f64>>, v: f64| {
                            arrays.iter().flatten().all(|&a| bits(a) == bits(v))
                        };
                        assert!(all_are(&got.sums, 0.0), "{tag}: {:?}", got.sums);
                        assert!(all_are(&got.mins, f64::INFINITY), "{tag}");
                        assert!(all_are(&got.maxs, f64::NEG_INFINITY), "{tag}");
                        match &group_by {
                            GroupKey::None => assert_eq!(got.counts, [0], "{tag}"),
                            _ => assert_eq!(got.keys.as_deref(), Some(&[][..]), "{tag}"),
                        }
                    }
                }
            }
        }
    }

    /// One path from a plan to the scan: preparing a statement binds it
    /// once, and a serial execution binds the filter once, the grouping
    /// once and the aggregate-input program once, compiles every conjunct
    /// and that program once — and validates no column: the encoded table
    /// was checked when its columns entered it.
    #[test]
    fn an_execution_binds_and_compiles_once_and_validates_nothing() {
        use crate::sql::sql_query;
        let li = rfa_workloads::Lineitem::generate(20_000, 5).sorted_by_shipdate();
        let table = crate::q1::lineitem_table_encoded(&li);
        assert!(table.column("l_shipdate").unwrap().is_encoded());
        let since = |before: BindCounts| {
            let now = BIND_COUNTS.get();
            BindCounts {
                filter_binds: now.filter_binds - before.filter_binds,
                bound_preds: now.bound_preds,
                group_binds: now.group_binds - before.group_binds,
                compiles: now.compiles - before.compiles,
                expr_binds: now.expr_binds - before.expr_binds,
                validations: now.validations - before.validations,
                scan_ranges: now.scan_ranges - before.scan_ranges,
            }
        };
        for (sql, grouped) in [
            (crate::q1::q1_sql(), 1),
            (crate::q6::q6_sql(), 0),
            (crate::q15::q15_sql(), 1),
        ] {
            let before = BIND_COUNTS.get();
            let query = sql_query(&sql, &table).unwrap();
            let prepared = since(before);
            let conjuncts = query.plan.lower(&table).unwrap().query.filter.len();
            let before = BIND_COUNTS.get();
            query
                .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
                .unwrap();
            let executed = since(before);
            let want = BindCounts {
                filter_binds: 1,
                bound_preds: executed.bound_preds,
                group_binds: grouped,
                compiles: conjuncts + 1,
                expr_binds: 1,
                validations: 0,
                scan_ranges: 0,
            };
            let scanned = BindCounts {
                scan_ranges: 1,
                ..want
            };
            assert_eq!(executed, scanned, "{sql}");
            assert_eq!(prepared, want, "preparing {sql}");
        }
    }

    /// A deadline expires *mid-scan* (not just up front): the scan cannot
    /// finish inside its budget, and the boundary check that notices
    /// raises the typed error carrying the original budget.
    #[test]
    fn deadline_expiry_mid_scan_surfaces_typed_error() {
        let (table, query, opts) = slow_scan(1 << 18);
        let deadline = Duration::from_millis(2);
        let opts = ExecOptions {
            deadline: Some(deadline),
            ..opts
        };
        let err = run_fused(&table, &query, SumBackend::ReproUnbuffered, &opts).unwrap_err();
        assert_eq!(err, PlanError::DeadlineExceeded { deadline });
    }
}

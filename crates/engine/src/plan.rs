//! The logical query-plan layer: declarative scan-filter-group-aggregate
//! plans lowered onto the fused batch executor ([`crate::fused`]).
//!
//! The paper's thesis is that reproducible SUM is a *drop-in operator*
//! inside a real query engine (§VI-E) — which means queries should be
//! expressible as plans over arbitrary aggregates and group keys, not as
//! hand-written `run_qN` functions. A [`QueryPlan`] names the source
//! table, a conjunctive filter, a [`GroupKey`] and a list of
//! [`AggCall`]s; [`QueryPlan::execute`] lowers it to a physical
//! [`FusedQuery`], runs the fused zero-copy scan — whose bind step is the
//! validation: missing or mistyped columns surface as [`TableError`]s,
//! not panics — and finalizes the per-group states into a [`PlanResult`].
//!
//! ```
//! use rfa_engine::plan::{AggCall, QueryPlan};
//! use rfa_engine::{Column, ExecOptions, Expr, SumBackend, Table};
//!
//! let mut t = Table::new("sensors");
//! t.add_column("station", Column::i32(vec![3, 1, 3, 7])).unwrap();
//! t.add_column("temp", Column::f64(vec![21.5, 19.0, 22.5, 18.0])).unwrap();
//!
//! let plan = QueryPlan::scan("sensors")
//!     .filter(Expr::col("temp").lt(Expr::lit(22.0)))
//!     .group_by_key("station")
//!     .agg(AggCall::Count)
//!     .agg(AggCall::Avg(Expr::col("temp")));
//! let result = plan
//!     .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
//!     .unwrap();
//! assert_eq!(result.keys, vec![1, 3, 7]); // hash groups, sorted by key
//! assert_eq!(result.columns[0].u64s(), &[1, 1, 1]);
//! ```
//!
//! **Aggregate kinds and reproducibility.** SUM runs on any of the six
//! [`SumBackend`]s with unchanged bit-identity guarantees. COUNT is exact
//! integer arithmetic. AVG is *finalized* from a reproducible SUM state
//! and the group's COUNT — one IEEE division of two bit-reproducible
//! inputs, hence itself bit-reproducible (the same argument as the
//! paper's footnote 2 for derived aggregates). MIN/MAX are comparison
//! folds whose merges keep the earlier row range on ties, making them
//! bit-identical at any thread count. `AVG(e)` shares the per-group SUM
//! state of a `SUM(e)` over the structurally identical expression, so
//! requesting both costs one state array, exactly like the hand-written
//! Q1 operator did.
//!
//! **Output order** is deterministic: groups ascend by key value (a byte
//! pair by its packed `(a << 8) | b` key, i.e. in `(a, b)` order), and only
//! keys some selected row carries have a group (SQL GROUP BY semantics).
//! An un-grouped plan always yields
//! exactly one row, even when no row matched (SQL aggregate semantics;
//! the engine has no NULL, so over zero rows SUM yields `0.0`, COUNT
//! `0`, AVG `NaN` (`0.0 / 0`), MIN `+∞` and MAX `-∞` — the closest f64
//! stand-ins for SQL's NULL).

// A query is outside input: nothing here may panic on one. What survives
// is an `expect` stating an internal invariant, allowed where it stands.
#![deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use crate::column::{ColRef, Table, TableError};
use crate::expr::{BoolExpr, Expr};
use crate::fused::{check_query, run_fused, ExecOptions, FusedQuery, GroupKey, PhaseTiming};
use crate::sum_op::{OverflowError, SumBackend};
use std::fmt;
use std::time::Instant;

/// One aggregate output column of a [`QueryPlan`].
#[derive(Clone, Debug, PartialEq)]
pub enum AggCall {
    /// `SUM(expr)` through the configured [`SumBackend`].
    Sum(Expr),
    /// `COUNT(*)` — exact integer count of the group's rows.
    Count,
    /// `AVG(expr)` — finalized as reproducible SUM ÷ COUNT. Over the
    /// zero-row group of an un-grouped plan this yields `NaN` (`0.0/0`),
    /// the engine's stand-in for SQL's NULL; grouped plans never expose
    /// the case because empty groups are dropped.
    Avg(Expr),
    /// `MIN(expr)`.
    Min(Expr),
    /// `MAX(expr)`.
    Max(Expr),
}

/// A logical scan-filter-group-aggregate plan, built with the fluent
/// constructors and executed with [`QueryPlan::execute`].
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Source table name, checked against [`Table::name`] at execution.
    pub table: String,
    /// Conjunctive filter (all predicates must hold). Lowering splits
    /// top-level `AND`s into further conjuncts, so single-comparison
    /// pieces take the typed fast filter loops.
    pub filter: Vec<BoolExpr>,
    pub group_by: GroupKey,
    /// Aggregate outputs, in result-column order.
    pub aggs: Vec<AggCall>,
}

/// Errors of plan lowering, binding and execution — the executor's one
/// error type. [`run_fused`] returns it too, raising every variant but
/// the two plan-level ones (`WrongTable`, `Unsupported`): `Table` and
/// `RsumLevels` when the query is bound, before any row is read; the rest
/// from the data or the clock, during the scan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan references a column the table lacks, or one whose logical
    /// type its role cannot read: an `F32` column in an expression, a
    /// group key that is not `I32` / `U32` / `U8`, a pair leg that is not
    /// `U8` — whatever the column's encoding.
    Table(TableError),
    /// The plan was executed against a table with a different name.
    WrongTable { expected: String, found: String },
    /// A Double or SortedDouble sum went non-finite (MonetDB aborts the
    /// query).
    Overflow(OverflowError),
    /// The hash group-key column contains the reserved value `u32::MAX`
    /// (`-1` on an `I32` column) — a data-dependent error the scan
    /// reports, since nothing short of reading the rows can rule it out.
    ReservedKey { col: String },
    /// The plan cannot run as written: it has no aggregates.
    Unsupported(&'static str),
    /// An `RSUM` backend asked for a precision outside `1..=4` levels
    /// ([`SumBackend::check_levels`]).
    RsumLevels { levels: u8 },
    /// The query's [`ExecOptions::cancel`] token tripped. Cooperative: the
    /// scan noticed at a batch boundary and unwound with this typed error
    /// — never a panic. Because accumulators are associative, a cancelled
    /// query retried later returns bit-identical results.
    Cancelled,
    /// The query ran past its [`ExecOptions::deadline`]. A zero deadline
    /// times out immediately (before the first batch), by design.
    DeadlineExceeded {
        /// The budget that was exceeded.
        deadline: std::time::Duration,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Table(e) => write!(f, "plan validation failed: {e}"),
            PlanError::WrongTable { expected, found } => {
                write!(
                    f,
                    "plan targets table {expected:?}, executed against {found:?}"
                )
            }
            PlanError::Overflow(e) => write!(f, "{e}"),
            PlanError::ReservedKey { col } => write!(
                f,
                "group key column {col:?} contains the reserved value u32::MAX (-1_i32)"
            ),
            PlanError::Unsupported(what) => write!(f, "unsupported plan: {what}"),
            PlanError::RsumLevels { levels } => {
                write!(f, "RSUM levels must be in 1..=4, got {levels}")
            }
            PlanError::Cancelled => write!(f, "query cancelled"),
            PlanError::DeadlineExceeded { deadline } => {
                write!(f, "query exceeded its {deadline:?} deadline")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<TableError> for PlanError {
    fn from(e: TableError) -> Self {
        PlanError::Table(e)
    }
}

impl From<OverflowError> for PlanError {
    fn from(e: OverflowError) -> Self {
        PlanError::Overflow(e)
    }
}

/// One finalized aggregate output column of a [`PlanResult`]: `f64` for
/// SUM/AVG/MIN/MAX, exact `u64` for COUNT.
#[derive(Clone, Debug, PartialEq)]
pub enum AggColumn {
    F64(Vec<f64>),
    U64(Vec<u64>),
}

impl AggColumn {
    /// The values of a SUM/AVG/MIN/MAX column.
    ///
    /// # Panics
    /// If this is a COUNT column.
    // A typed accessor's documented panic on a caller's own mix-up of its
    // plan's columns — no query or table can cause it.
    #[allow(clippy::panic)]
    pub fn f64s(&self) -> &[f64] {
        match self {
            AggColumn::F64(v) => v,
            AggColumn::U64(_) => panic!("expected an f64 aggregate column, found COUNT"),
        }
    }

    /// The values of a COUNT column.
    ///
    /// # Panics
    /// If this is not a COUNT column.
    #[allow(clippy::panic)] // as for `f64s`
    pub fn u64s(&self) -> &[u64] {
        match self {
            AggColumn::U64(v) => v,
            AggColumn::F64(_) => panic!("expected a COUNT column, found an f64 aggregate"),
        }
    }

    /// Number of group rows.
    pub fn len(&self) -> usize {
        match self {
            AggColumn::F64(v) => v.len(),
            AggColumn::U64(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of executing a [`QueryPlan`]: one row per (non-empty) group in
/// deterministic order, with one [`AggColumn`] per [`AggCall`].
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The group key of each output row: the (sign-restored) key value
    /// for [`GroupKey::Hash`], the packed `(a << 8) | b` pair for
    /// [`GroupKey::HashPair`], and `0` for the single row of an un-grouped
    /// plan. Rows ascend by this value.
    pub keys: Vec<i64>,
    /// `columns[a]` parallels `plan.aggs[a]`; each holds one value per
    /// entry of [`PlanResult::keys`].
    pub columns: Vec<AggColumn>,
    pub timing: PhaseTiming,
    /// Scan-grid batches the filter ran on / never touched
    /// ([`crate::FusedRun::batches_visited`]).
    pub batches_visited: u64,
    pub batches_pruned: u64,
}

impl QueryPlan {
    /// Starts a plan scanning `table` (no filter, un-grouped, no
    /// aggregates yet).
    pub fn scan(table: impl Into<String>) -> Self {
        QueryPlan {
            table: table.into(),
            filter: Vec::new(),
            group_by: GroupKey::None,
            aggs: Vec::new(),
        }
    }

    /// Adds a filter conjunct.
    pub fn filter(mut self, pred: BoolExpr) -> Self {
        self.filter.push(pred);
        self
    }

    /// Sets the grouping mode directly.
    pub fn group_by(mut self, key: GroupKey) -> Self {
        self.group_by = key;
        self
    }

    /// Groups by an arbitrary-cardinality `I32`/`U32`/`U8` key column
    /// through the hash arm, with the paper's identity hashing (§VI-A:
    /// domain-encoded keys are dense).
    pub fn group_by_key(self, col: impl Into<ColRef>) -> Self {
        self.group_by(GroupKey::Hash { col: col.into() })
    }

    /// Groups by a pair of `U8` columns packed into one key as
    /// `(a << 8) | b` — the Q1 shape, a SQL `GROUP BY a, b`. Only observed
    /// pairs materialize state, and output rows ascend in `(a, b)`
    /// lexicographic order.
    pub fn group_by_u8_pair(self, a: impl Into<ColRef>, b: impl Into<ColRef>) -> Self {
        self.group_by(GroupKey::HashPair {
            a: a.into(),
            b: b.into(),
        })
    }

    /// Appends an aggregate output column.
    pub fn agg(mut self, call: AggCall) -> Self {
        self.aggs.push(call);
        self
    }

    /// Shorthand for `.agg(AggCall::Sum(e))`.
    pub fn sum(self, e: Expr) -> Self {
        self.agg(AggCall::Sum(e))
    }

    /// Shorthand for `.agg(AggCall::Count)`.
    pub fn count(self) -> Self {
        self.agg(AggCall::Count)
    }

    /// Shorthand for `.agg(AggCall::Avg(e))`.
    pub fn avg(self, e: Expr) -> Self {
        self.agg(AggCall::Avg(e))
    }

    /// Shorthand for `.agg(AggCall::Min(e))`.
    pub fn min(self, e: Expr) -> Self {
        self.agg(AggCall::Min(e))
    }

    /// Shorthand for `.agg(AggCall::Max(e))`.
    pub fn max(self, e: Expr) -> Self {
        self.agg(AggCall::Max(e))
    }

    /// Lowers the plan and executes it on the fused zero-copy scan
    /// pipeline, whose bind step validates it against `table`.
    ///
    /// Errors — never panics — when the plan targets a different table,
    /// has no aggregates, references a missing or mistyped column, or
    /// requests an `RSUM` precision outside `1..=4` levels — in that
    /// order. Conditions only the rows can decide surface as errors from
    /// the scan itself: a hash key column containing the reserved
    /// `u32::MAX`/`-1_i32` value ([`PlanError::ReservedKey`]) and Double /
    /// SortedDouble overflow ([`PlanError::Overflow`]).
    pub fn execute(
        &self,
        table: &Table,
        backend: SumBackend,
        opts: &ExecOptions,
    ) -> Result<PlanResult, PlanError> {
        let lowered = self.lower(table)?;
        let run = run_fused(table, &lowered.query, backend, opts)?;
        let t0 = Instant::now();

        // Output group rows, in deterministic order.
        let mut rows: Vec<(i64, usize)> = match run.keys.as_deref() {
            None => vec![(0, 0)],
            Some(keys) => sort_hash_groups(keys, run.key_signed),
        };
        // (Groups only exist once seen; the single un-grouped row is kept
        // even at count 0.)
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));

        let columns = self
            .aggs
            .iter()
            .zip(&lowered.outputs)
            .map(|(_, out)| match *out {
                Output::Sum(slot) => {
                    AggColumn::F64(rows.iter().map(|&(_, g)| run.sums[slot][g]).collect())
                }
                Output::Count => AggColumn::U64(rows.iter().map(|&(_, g)| run.counts[g]).collect()),
                Output::Avg(slot) => AggColumn::F64(
                    rows.iter()
                        .map(|&(_, g)| run.sums[slot][g] / run.counts[g] as f64)
                        .collect(),
                ),
                Output::Min(slot) => {
                    AggColumn::F64(rows.iter().map(|&(_, g)| run.mins[slot][g]).collect())
                }
                Output::Max(slot) => {
                    AggColumn::F64(rows.iter().map(|&(_, g)| run.maxs[slot][g]).collect())
                }
            })
            .collect();
        let keys = rows.drain(..).map(|(k, _)| k).collect();
        let mut timing = run.timing;
        timing.other += t0.elapsed();
        Ok(PlanResult {
            keys,
            columns,
            timing,
            batches_visited: run.batches_visited,
            batches_pruned: run.batches_pruned,
        })
    }

    /// Whether the plan lowers and binds to `table`: everything
    /// [`QueryPlan::execute`] would refuse before scanning, on any backend
    /// the fused executor runs.
    pub(crate) fn check(&self, table: &Table) -> Result<(), PlanError> {
        check_query(table, &self.lower(table)?.query)
    }

    /// Lowers the logical plan to the physical [`FusedQuery`] — the
    /// logical half only: the table name, a non-empty aggregate list, one
    /// SUM state shared between SUM and AVG calls over structurally
    /// identical expressions, and top-level `AND` conjunctions split into
    /// conjuncts, as written (the scan filter recognizes those that
    /// compare one column with constants as intervals and binds one range
    /// loop per such column). Whether the columns exist and fit their
    /// roles is the executor's bind to say ([`crate::fused`]).
    pub(crate) fn lower(&self, table: &Table) -> Result<Lowered, PlanError> {
        if self.table != table.name {
            return Err(PlanError::WrongTable {
                expected: self.table.clone(),
                found: table.name.clone(),
            });
        }
        if self.aggs.is_empty() {
            return Err(PlanError::Unsupported("plan has no aggregates"));
        }

        // A conjunction of conjuncts filters the identical rows in the
        // identical order.
        let mut filter = Vec::new();
        for pred in &self.filter {
            split_conjuncts(pred, &mut filter);
        }
        let mut query = FusedQuery {
            filter,
            sums: Vec::new(),
            mins: Vec::new(),
            maxs: Vec::new(),
            group_by: self.group_by.clone(),
        };
        let mut outputs = Vec::with_capacity(self.aggs.len());
        for call in &self.aggs {
            outputs.push(match call {
                AggCall::Sum(e) => Output::Sum(intern(&mut query.sums, e)),
                AggCall::Avg(e) => Output::Avg(intern(&mut query.sums, e)),
                AggCall::Count => Output::Count,
                AggCall::Min(e) => Output::Min(intern(&mut query.mins, e)),
                AggCall::Max(e) => Output::Max(intern(&mut query.maxs, e)),
            });
        }
        Ok(Lowered { query, outputs })
    }
}

/// Orders the hash arm's first-seen group slots by output key.
///
/// Keys are distinct by construction (one table slot per key), so the
/// order is fully decided by the key alone. That lets the sort run on a
/// packed `u64` — the key biased into 33 unsigned bits (covering both
/// `i32` and `u32` source domains) above the 31-bit group id — with a
/// three-pass LSD radix over just the key bits. Counting sort per digit
/// is deterministic, and ties cannot arise, so the result is the exact
/// permutation `sort_unstable` on `(key, gid)` tuples produced before.
fn sort_hash_groups(keys: &[u32], signed: bool) -> Vec<(i64, usize)> {
    const BIAS: i64 = 1 << 31;
    const GID_BITS: u32 = 31;
    debug_assert!(keys.len() < (1 << GID_BITS));
    let mut a: Vec<u64> = if signed {
        keys.iter()
            .enumerate()
            .map(|(g, &k)| (((k as i32 as i64 + BIAS) as u64) << GID_BITS) | g as u64)
            .collect()
    } else {
        keys.iter()
            .enumerate()
            .map(|(g, &k)| (((k as i64 + BIAS) as u64) << GID_BITS) | g as u64)
            .collect()
    };
    let mut b = vec![0u64; a.len()];
    // Three 11-bit digits cover bits 31..64 — the full biased key range
    // [0, 3·2^31) < 2^33; the gid bits below never decide the order.
    for shift in [GID_BITS, GID_BITS + 11, GID_BITS + 22] {
        let mut hist = [0u32; 1 << 11];
        for &x in &a {
            hist[((x >> shift) & 0x7FF) as usize] += 1;
        }
        let mut sum = 0u32;
        for h in hist.iter_mut() {
            let c = *h;
            *h = sum;
            sum += c;
        }
        for &x in &a {
            let d = ((x >> shift) & 0x7FF) as usize;
            b[hist[d] as usize] = x;
            hist[d] += 1;
        }
        core::mem::swap(&mut a, &mut b);
    }
    a.iter()
        .map(|&p| {
            (
                (p >> GID_BITS) as i64 - BIAS,
                (p & ((1 << GID_BITS) - 1)) as usize,
            )
        })
        .collect()
}

/// Finds or appends `e` in the state-input list, returning its slot.
fn intern(exprs: &mut Vec<Expr>, e: &Expr) -> usize {
    if let Some(i) = exprs.iter().position(|x| x == e) {
        i
    } else {
        exprs.push(e.clone());
        exprs.len() - 1
    }
}

/// Splits top-level `AND`s into individual conjuncts (recursively):
/// `a AND b AND c` reaches the scan filter as three conjuncts, in order.
/// Nothing is merged or reordered here — a plan holds the query as
/// written; the filter's bind step intersects same-column intervals.
fn split_conjuncts(e: &BoolExpr, out: &mut Vec<BoolExpr>) {
    if let BoolExpr::And(a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e.clone());
    }
}

/// A plan lowered to physical form.
pub(crate) struct Lowered {
    pub(crate) query: FusedQuery,
    /// Per [`AggCall`]: which state array (by kind and slot) finalizes it.
    outputs: Vec<Output>,
}

enum Output {
    Sum(usize),
    Count,
    Avg(usize),
    Min(usize),
    Max(usize),
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn sensor_table() -> Table {
        let mut t = Table::new("sensors");
        t.add_column("station", Column::i32(vec![3, 1, 3, 7, 1, 3]))
            .unwrap();
        t.add_column(
            "temp",
            Column::f64(vec![21.5, 19.0, 22.5, 18.0, 20.0, 25.0]),
        )
        .unwrap();
        t.add_column(
            "humidity",
            Column::f64(vec![0.50, 0.40, 0.55, 0.35, 0.45, 0.60]),
        )
        .unwrap();
        t.add_column("flag", Column::u8(vec![0, 1, 0, 1, 0, 1]))
            .unwrap();
        t.add_column("noise", Column::f32(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
            .unwrap();
        t
    }

    #[test]
    fn hash_grouped_plan_with_all_aggregate_kinds() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors")
            .group_by_key("station")
            .sum(Expr::col("temp"))
            .count()
            .avg(Expr::col("temp"))
            .min(Expr::col("temp"))
            .max(Expr::col("temp"));
        let r = plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.keys, vec![1, 3, 7]);
        assert_eq!(r.columns[0].f64s(), &[39.0, 69.0, 18.0]);
        assert_eq!(r.columns[1].u64s(), &[2, 3, 1]);
        assert_eq!(r.columns[2].f64s(), &[19.5, 23.0, 18.0]);
        assert_eq!(r.columns[3].f64s(), &[19.0, 21.5, 18.0]);
        assert_eq!(r.columns[4].f64s(), &[20.0, 25.0, 18.0]);
    }

    /// Lowering is encoding-agnostic: the same plan over a table whose
    /// measure and hash-key columns are `Dict16`-encoded (u16 codes)
    /// validates, executes, and finalizes bit-identically to the plain
    /// twin — the encoded measure is evaluated through its code lookup.
    #[test]
    fn plans_over_dict16_columns_match_plain_bitwise() {
        let n = 5_000usize;
        let key: Vec<i32> = (0..n).map(|i| (i * 13 % 700) as i32).collect();
        let val: Vec<f64> = (0..n).map(|i| (i % 400) as f64 * 0.1875 - 31.0).collect();
        let mut plain = Table::new("t");
        plain.add_column("key", Column::i32(key.clone())).unwrap();
        plain.add_column("val", Column::f64(val.clone())).unwrap();
        let mut enc = Table::new("t");
        for (name, col) in [("key", Column::i32(key)), ("val", Column::f64(val))] {
            let encoded = Column::dict_encode(&col).unwrap();
            assert!(encoded.storage_name().starts_with("Dict16<"), "{name}");
            enc.add_column(name, encoded).unwrap();
        }
        let plan = QueryPlan::scan("t")
            .filter(Expr::col("val").ge(Expr::lit(-30.0)))
            .group_by_key("key")
            .sum(Expr::col("val"))
            .avg(Expr::col("val"))
            .min(Expr::col("val"))
            .max(Expr::col("val"))
            .count();
        for backend in [SumBackend::ReproUnbuffered, SumBackend::Double] {
            let want = plan
                .execute(&plain, backend, &ExecOptions::serial())
                .unwrap();
            let got = plan.execute(&enc, backend, &ExecOptions::serial()).unwrap();
            assert_eq!(got.keys, want.keys, "{backend:?}");
            for (c, (a, b)) in want.columns.iter().zip(got.columns.iter()).enumerate() {
                match (a, b) {
                    (AggColumn::F64(xs), AggColumn::F64(ys)) => {
                        for (x, y) in xs.iter().zip(ys.iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{backend:?} col {c}");
                        }
                    }
                    (AggColumn::U64(xs), AggColumn::U64(ys)) => assert_eq!(xs, ys),
                    _ => panic!("mismatched result column kinds"),
                }
            }
        }
    }

    #[test]
    fn avg_shares_the_sum_state_and_divides_its_bits() {
        let t = sensor_table();
        let e = || Expr::col("temp").mul(Expr::col("humidity"));
        let plan = QueryPlan::scan("sensors")
            .group_by_key("station")
            .sum(e())
            .avg(e())
            .count();
        let lowered = plan.lower(&t).unwrap();
        assert_eq!(lowered.query.sums.len(), 1, "SUM and AVG share one state");
        let r = plan
            .execute(
                &t,
                SumBackend::ReproBuffered { buffer_size: 32 },
                &ExecOptions::serial(),
            )
            .unwrap();
        for g in 0..r.keys.len() {
            let sum = r.columns[0].f64s()[g];
            let count = r.columns[2].u64s()[g];
            assert_eq!(
                r.columns[1].f64s()[g].to_bits(),
                (sum / count as f64).to_bits()
            );
        }
    }

    #[test]
    fn ungrouped_plan_yields_one_row_even_when_empty() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors")
            .filter(Expr::col("temp").lt(Expr::lit(-100.0)))
            .sum(Expr::col("temp"))
            .count();
        let r = plan
            .execute(&t, SumBackend::Double, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.keys, vec![0]);
        assert_eq!(r.columns[0].f64s(), &[0.0]);
        assert_eq!(r.columns[1].u64s(), &[0]);
    }

    /// The pair's 65 536-entry key domain is direct-mapped, but only pairs
    /// some row carries become groups, and rows ascend by the packed key.
    #[test]
    fn dense_grouping_drops_empty_groups_and_orders_by_id() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors")
            .group_by_u8_pair("flag", "flag")
            .count()
            .max(Expr::col("temp"));
        let r = plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        // Pairs (0, 0) and (1, 1); (0, 1) and (1, 0) never occur.
        assert_eq!(r.keys, vec![0, (1 << 8) | 1]);
        assert_eq!(r.columns[0].u64s(), &[3, 3]);
        // flag 0 rows: 21.5, 22.5, 20.0; flag 1 rows: 19.0, 18.0, 25.0.
        assert_eq!(r.columns[1].f64s(), &[22.5, 25.0]);
    }

    #[test]
    fn u8_pair_grouping_matches_dense_encoding_bitwise() {
        // The same (flag, grade)-style pair grouped (a) through the
        // direct-mapped pair arm and (b) as an I32 column holding the
        // packed key, which hashes: identical keys and per-group bits,
        // in lexicographic pair order.
        let n = 4_000;
        let mut t = Table::new("t");
        let a: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let b: Vec<u8> = (0..n).map(|i| (i % 5) as u8).collect();
        let v: Vec<f64> = (0..n)
            .map(|i| (i % 101) as f64 * 0.125 - 4.0 + 2.5e-16)
            .collect();
        let packed: Vec<i32> = a
            .iter()
            .zip(&b)
            .map(|(&a, &b)| (a as i32) << 8 | b as i32)
            .collect();
        t.add_column("a", Column::u8(a)).unwrap();
        t.add_column("b", Column::u8(b)).unwrap();
        t.add_column("packed", Column::i32(packed)).unwrap();
        t.add_column("v", Column::f64(v)).unwrap();
        let aggs = |p: QueryPlan| p.sum(Expr::col("v")).count().avg(Expr::col("v"));
        let hashed = aggs(QueryPlan::scan("t").group_by_key("packed"));
        let pair = aggs(QueryPlan::scan("t").group_by_u8_pair("a", "b"));
        for backend in [SumBackend::ReproUnbuffered, SumBackend::Double] {
            let d = hashed.execute(&t, backend, &ExecOptions::serial()).unwrap();
            assert_eq!(d.keys.len(), 15);
            for opts in [
                ExecOptions::serial(),
                ExecOptions {
                    threads: 4,
                    batch_rows: 57,
                    ..ExecOptions::default()
                },
            ] {
                let h = pair.execute(&t, backend, &opts).unwrap();
                assert_eq!(d.keys, h.keys, "{backend:?} {opts:?}");
                assert_eq!(d.columns[1], h.columns[1]);
                for c in [0usize, 2] {
                    for (x, y) in d.columns[c].f64s().iter().zip(h.columns[c].f64s()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{backend:?} {opts:?} col {c}");
                    }
                }
            }
        }
    }

    /// Satellite: plan-level diagnostics name the column and both types —
    /// pinned as exact strings.
    #[test]
    fn plan_error_messages_are_actionable() {
        assert_eq!(
            PlanError::Table(TableError::TypeMismatch {
                column: "station".into(),
                expected: crate::expr::NUMERIC_EXPECTED,
                found: "F32",
            })
            .to_string(),
            "plan validation failed: column \"station\" is F32, expected F64, I32, U32 or U8"
        );
        assert_eq!(
            PlanError::WrongTable {
                expected: "lineitem".into(),
                found: "sensors".into(),
            }
            .to_string(),
            "plan targets table \"lineitem\", executed against \"sensors\""
        );
        assert_eq!(
            PlanError::ReservedKey { col: "k".into() }.to_string(),
            "group key column \"k\" contains the reserved value u32::MAX (-1_i32)"
        );
    }

    #[test]
    fn negative_i32_keys_round_trip_sign() {
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(vec![-5, 3, -5, 3, 9]))
            .unwrap();
        t.add_column("v", Column::f64(vec![1.0, 2.0, 3.0, 4.0, 5.0]))
            .unwrap();
        let plan = QueryPlan::scan("t").group_by_key("k").sum(Expr::col("v"));
        let r = plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.keys, vec![-5, 3, 9]);
        assert_eq!(r.columns[0].f64s(), &[4.0, 6.0, 5.0]);
    }

    #[test]
    fn u32_key_columns_group_through_the_hash_arm() {
        let mut t = Table::new("t");
        t.add_column("k", Column::u32(vec![2_000_000_000u32, 7, 2_000_000_000]))
            .unwrap();
        t.add_column("v", Column::f64(vec![1.5, 2.0, 0.5])).unwrap();
        let plan = QueryPlan::scan("t").group_by_key("k").sum(Expr::col("v"));
        let r = plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.keys, vec![7, 2_000_000_000]);
        assert_eq!(r.columns[0].f64s(), &[2.0, 2.0]);
    }

    // --- satellite: error paths surface TableError, never panic ---------

    #[test]
    fn missing_filter_column_errors() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors")
            .filter(Expr::col("nope").lt(Expr::lit(1.0)))
            .count();
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::NoSuchColumn("nope".into()))
        );
    }

    #[test]
    fn non_numeric_filter_column_errors() {
        let t = sensor_table();
        // noise is F32, which no expression can read.
        let plan = QueryPlan::scan("sensors")
            .filter(Expr::col("noise").lt(Expr::lit(1.0)))
            .count();
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::TypeMismatch {
                column: "noise".into(),
                expected: crate::expr::NUMERIC_EXPECTED,
                found: "F32",
            })
        );
        // Integer columns, in contrast, are valid scalar operands: the
        // widened comparison filters the I32 station column.
        let plan = QueryPlan::scan("sensors")
            .filter(Expr::col("station").le(Expr::lit(3.0)))
            .count();
        let r = plan
            .execute(&t, SumBackend::Double, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.columns[0].u64s(), &[5]);
    }

    #[test]
    fn missing_and_mistyped_aggregate_columns_error() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors").sum(Expr::col("nope"));
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::NoSuchColumn("nope".into()))
        );
        let plan = QueryPlan::scan("sensors").avg(Expr::col("noise"));
        assert!(matches!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::TypeMismatch {
                expected: crate::expr::NUMERIC_EXPECTED,
                ..
            })
        ));
    }

    #[test]
    fn bad_group_keys_error() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors").group_by_key("absent").count();
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::NoSuchColumn("absent".into()))
        );
        // A float column cannot be a hash key.
        let plan = QueryPlan::scan("sensors").group_by_key("temp").count();
        assert!(matches!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::TypeMismatch {
                expected: "I32, U32 or U8",
                ..
            })
        ));
        // Neither leg of a U8 pair may be anything but U8.
        let plan = QueryPlan::scan("sensors")
            .group_by_u8_pair("flag", "station")
            .count();
        assert!(matches!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::TypeMismatch { expected: "U8", .. })
        ));
        let plan = QueryPlan::scan("sensors")
            .group_by_u8_pair("station", "flag")
            .count();
        assert!(matches!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::TypeMismatch { expected: "U8", .. })
        ));
    }

    #[test]
    fn wrong_table_and_unsupported_plans_error() {
        let t = sensor_table();
        let plan = QueryPlan::scan("lineitem").count();
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::WrongTable {
                expected: "lineitem".into(),
                found: "sensors".into(),
            }
        );
        let plan = QueryPlan::scan("sensors");
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Unsupported("plan has no aggregates")
        );
        // Every backend runs a plan that binds — the sorted baseline too.
        let plan = QueryPlan::scan("sensors").count();
        let r = plan
            .execute(&t, SumBackend::SortedDouble, &ExecOptions::serial())
            .unwrap();
        assert_eq!(r.columns[0].u64s(), &[t.rows() as u64]);
    }

    #[test]
    fn data_dependent_scan_errors_surface_through_execute() {
        // Reserved hash key value -1.
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(vec![5, -1])).unwrap();
        t.add_column("v", Column::f64(vec![1.0, 2.0])).unwrap();
        let plan = QueryPlan::scan("t").group_by_key("k").sum(Expr::col("v"));
        assert_eq!(
            plan.execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::ReservedKey { col: "k".into() }
        );
        // Double overflow.
        let mut t = Table::new("t");
        t.add_column("v", Column::f64(vec![f64::MAX, f64::MAX]))
            .unwrap();
        let plan = QueryPlan::scan("t").sum(Expr::col("v"));
        assert_eq!(
            plan.execute(&t, SumBackend::Double, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Overflow(OverflowError)
        );
    }

    #[test]
    fn ungrouped_avg_over_zero_rows_is_nan() {
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors")
            .filter(Expr::col("temp").lt(Expr::lit(-100.0)))
            .avg(Expr::col("temp"))
            .min(Expr::col("temp"))
            .max(Expr::col("temp"));
        let r = plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert!(r.columns[0].f64s()[0].is_nan(), "AVG of no rows is NaN");
        assert_eq!(r.columns[1].f64s()[0], f64::INFINITY);
        assert_eq!(r.columns[2].f64s()[0], f64::NEG_INFINITY);
    }

    #[test]
    fn validation_runs_before_execution_errors() {
        // A broken plan on a SortedDouble backend reports the *table*
        // error: the columns are bound before the backend is checked.
        let t = sensor_table();
        let plan = QueryPlan::scan("sensors").sum(Expr::col("nope"));
        assert!(matches!(
            plan.execute(&t, SumBackend::SortedDouble, &ExecOptions::serial())
                .unwrap_err(),
            PlanError::Table(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn hash_grouped_plan_is_thread_count_invariant() {
        // 2^12 keys over 20k rows, all aggregate kinds, exactly merging
        // backends: {1, 2, 8} threads must agree bitwise.
        let n = 20_000;
        let mut t = Table::new("wide");
        t.add_column(
            "k",
            Column::i32(
                (0..n)
                    .map(|i| ((i * 2_654_435_761usize) % 4096) as i32)
                    .collect::<Vec<_>>(),
            ),
        )
        .unwrap();
        t.add_column(
            "v",
            Column::f64(
                (0..n)
                    .map(|i| ((i * 31) % 1009) as f64 * 1e-3 - 0.5 + 2.5e-16)
                    .collect::<Vec<_>>(),
            ),
        )
        .unwrap();
        let plan = QueryPlan::scan("wide")
            .group_by_key("k")
            .sum(Expr::col("v"))
            .count()
            .avg(Expr::col("v"))
            .min(Expr::col("v"))
            .max(Expr::col("v"));
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::RsumBuffered {
                levels: 2,
                buffer_size: 64,
            },
            SumBackend::SortedDouble,
        ] {
            let serial = plan.execute(&t, backend, &ExecOptions::serial()).unwrap();
            assert_eq!(serial.keys.len(), 4096);
            for threads in [2usize, 8] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 256,
                    ..ExecOptions::default()
                };
                let run = plan.execute(&t, backend, &opts).unwrap();
                assert_eq!(run.keys, serial.keys, "{backend:?} t{threads}");
                for (c, (a, b)) in serial.columns.iter().zip(&run.columns).enumerate() {
                    match (a, b) {
                        (AggColumn::F64(x), AggColumn::F64(y)) => {
                            for (u, v) in x.iter().zip(y) {
                                assert_eq!(
                                    u.to_bits(),
                                    v.to_bits(),
                                    "{backend:?} t{threads} column {c}"
                                );
                            }
                        }
                        (AggColumn::U64(x), AggColumn::U64(y)) => {
                            assert_eq!(x, y, "{backend:?} t{threads} column {c}")
                        }
                        _ => panic!("column kind mismatch"),
                    }
                }
            }
        }
    }
}

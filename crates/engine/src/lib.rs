//! # rfa-engine — a columnar execution engine with reproducible SUM
//!
//! A small column-store executor standing in for MonetDB in the paper's
//! end-to-end experiment (§VI-E, Table IV) and for PostgreSQL in the
//! motivating example (Algorithm 1):
//!
//! * [`mod@column`] — typed columns and tables with explicit *physical* row
//!   order, `Arc`-shared zero-copy storage, schema introspection
//!   ([`Table::schema`]) and owned column references ([`ColRef`]),
//!   including an MVCC-style UPDATE that reorders rows exactly like the
//!   paper's PostgreSQL example;
//! * [`expr`] — typed scalar *and* boolean expressions over numeric
//!   columns (`F64`/`I32`/`U32`/`U8`), compiled to batch-at-a-time
//!   register programs with constant folding (no per-node vectors) — all
//!   of a query's aggregate inputs into *one* program that evaluates a
//!   shared column or subexpression once; boolean predicates
//!   ([`BoolExpr`]) build branchless selection vectors, with typed fast
//!   paths for `col ⟨cmp⟩ const` shapes;
//! * [`sum_op`] — the per-group aggregate states, one vocabulary for all
//!   of them: a SUM of any backend — plain overflow-checked doubles
//!   (MonetDB behaviour), `repro<double, L>` deposited per row or
//!   batch-partitioned through the block kernel ([`MIN_SEG`]), the
//!   sorted-input baseline — a MIN and a MAX each answer the same
//!   deposits, merges and finalize, and sit next to an exact COUNT in one
//!   query's states. [`GroupedSums`] is one SUM state array on its own,
//!   [`sum_grouped`] the one-shot grouped SUM;
//! * [`fused`] — the fused zero-copy scan pipeline:
//!   filter → project → aggregate in cache-resident batches with no
//!   n-sized intermediates, serial or split into contiguous runs of batches, grouping on
//!   nothing, dense dictionary pairs, or arbitrary-cardinality hash keys
//!   ([`GroupKey`]);
//! * [`plan`] — the logical query-plan layer: [`QueryPlan`]s over
//!   SUM / COUNT / AVG / MIN / MAX ([`AggCall`]) validated against a
//!   table (`TableError`, no panics) and lowered onto the fused executor;
//! * [`sql`] — the SQL frontend: lexer → recursive-descent parser →
//!   AST → name-resolution/type-check against a table's schema →
//!   lowering onto [`QueryPlan`], with typed errors (never panics) and a
//!   canonical pretty-printer;
//! * [`q1`], [`q6`], [`q15`] — TPC-H Query 1, 6 and the Q15 revenue view
//!   expressed as plans *and* as pinned SQL texts
//!   ([`q1_sql`]/[`q6_sql`]/[`q15_sql`], proptested bit-identical to the
//!   builder plans), reporting the CPU-time split (scan / aggregation /
//!   other) that Table IV builds on. Every backend, the sorted-double
//!   baseline included, runs every query through the one fused pipeline,
//!   and parallel execution is bit-identical to serial for every backend.
//!
//! ```
//! use rfa_engine::{lineitem_table, q1_plan, ExecOptions, SumBackend};
//! use rfa_workloads::Lineitem;
//!
//! let table = lineitem_table(&Lineitem::generate(10_000, 42));
//! let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
//! let result = q1_plan().execute(&table, backend, &ExecOptions::serial()).unwrap();
//! assert_eq!(result.keys.len(), 4); // A/F, N/F, N/O, R/F
//! assert!(result.timing.total().as_nanos() > 0);
//! ```
//!
//! Ad-hoc queries go through SQL (or the equivalent plan builder):
//!
//! ```
//! use rfa_engine::{lineitem_table, sql_query, ExecOptions, SumBackend};
//! use rfa_workloads::Lineitem;
//!
//! let table = lineitem_table(&Lineitem::generate(10_000, 42));
//! let query = sql_query(
//!     "SELECT l_suppkey, SUM(l_quantity), AVG(l_discount), COUNT(*) \
//!      FROM lineitem WHERE l_quantity < 30 GROUP BY l_suppkey",
//!     &table,
//! ).unwrap();
//! let result = query
//!     .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::parallel())
//!     .unwrap();
//! assert_eq!(result.columns.len(), 4); // suppkey, SUM, AVG, COUNT
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod column;
pub mod expr;
pub mod fused;
pub mod plan;
pub mod q1;
pub mod q15;
pub mod q6;
pub(crate) mod simd_sel;
pub mod sql;
pub mod sum_op;

#[cfg(test)]
extern crate self as rfa_engine;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod test_support;

pub use column::{ColRef, Column, EncodingError, Table, TableError};
pub use expr::{
    BoolExpr, BoundExpr, BoundPredicate, CmpOp, CompiledExpr, CompiledPredicate, EvalScratch, Expr,
    Sel,
};
pub use fused::{
    run_fused, ExecOptions, FusedQuery, FusedRun, GroupKey, PhaseTiming, FUSED_BATCH_ROWS,
};
pub use plan::{AggCall, AggColumn, PlanError, PlanResult, QueryPlan};
pub use q1::{lineitem_table, lineitem_table_encoded, q1_plan, q1_sql};
pub use q15::{q15_plan, q15_sql};
pub use q6::{q6_plan, q6_sql};
pub use sql::{
    parse_select, resolve_select, sql_query, PlanCache, PlanCacheStats, SelectItem, SelectStmt,
    SqlColumn, SqlError, SqlQuery, SqlResult,
};
pub use sum_op::{
    count_grouped, sum_grouped, GroupedSums, OverflowError, SumBackend, DOUBLE_MIN_SEG, MIN_SEG,
    NEAR_DENSE,
};

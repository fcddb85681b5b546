//! Allocation audit of the fused scan pipeline — the "no n-sized
//! intermediates" acceptance check, enforced with a counting global
//! allocator rather than by inspection.
//!
//! The audit runs the serial paths only (the parallel path allocates
//! batch-sized scratch per run of batches — still O(batch) per thread,
//! but scheduling makes byte totals nondeterministic), and asserts:
//!
//! 1. building the zero-copy table view allocates O(columns) bytes —
//!    no per-query column clones;
//! 2. a fused Q1 run over 1M rows allocates far less than one n-sized
//!    vector (its footprint is batch-sized scratch + 6 group states);
//! 3. the buffered backend's footprint is O(batch + groups) like every
//!    other's: its staging is one batch-sized partition per scan range,
//!    not a buffer per group — SQL Q1 (the byte-pair grouping path) and a
//!    2^14-group `SUM … GROUP BY` stay within a few MiB;
//! 4. a byte-pair key builds no hash table: the only allocation of SQL Q1
//!    that reaches 256 KiB is the direct-mapped group-id table, one per
//!    scan range (one per thread at 2 threads, as the pool allows — a
//!    count, so it is exact under any schedule);
//! 5. nothing allocates per batch: SQL Q1 on `Double` and on the buffered
//!    backend allocates the same bytes in the same number of calls over
//!    2^16 rows (16 batches) as over 2^20 (256 batches).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting cumulative allocated bytes and
/// allocation calls.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// `alloc` and `realloc` calls.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Size of a 65 536-entry `u32` group-id table, the threshold of "large".
const LARGE: usize = 256 * 1024;
/// Allocations of at least [`LARGE`] bytes, and the largest of them.
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note_large(size: usize) {
    if size >= LARGE {
        LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        note_large(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth; shrinking is free.
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            note_large(new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

/// Bytes and calls `f` allocates.
fn allocations_during(f: impl FnOnce()) -> (usize, usize) {
    let calls = CALLS.load(Ordering::Relaxed);
    let bytes = allocated_during(f);
    (bytes, CALLS.load(Ordering::Relaxed) - calls)
}

/// (5): a steady-state serial SQL Q1 allocates the same at 2^16 rows as
/// at 2^20, per backend — its scratch is sized by the batch and the
/// groups, and reused by every batch.
fn sql_q1_allocates_nothing_per_batch() {
    use rfa_engine::{lineitem_table, q1_sql, sql_query, ExecOptions, SumBackend};
    use rfa_workloads::Lineitem;

    let opts = ExecOptions::serial();
    for backend in [
        SumBackend::Double,
        SumBackend::ReproBuffered { buffer_size: 1024 },
    ] {
        let per_size = [1 << 16, 1 << 20].map(|rows| {
            let table = lineitem_table(&Lineitem::generate(rows, 5));
            let q1 = sql_query(&q1_sql(), &table).unwrap();
            q1.execute(&table, backend, &opts).unwrap();
            allocations_during(|| {
                q1.execute(&table, backend, &opts).unwrap();
            })
        });
        assert_eq!(
            per_size[0], per_size[1],
            "{backend:?}: SQL Q1 (bytes, calls) at 2^16 rows vs 2^20 rows"
        );
    }
}

#[test]
fn fused_pipeline_performs_no_n_sized_allocations() {
    use rfa_engine::{
        lineitem_table, q1_plan, q1_sql, q6_plan, sql_query, Column, ExecOptions, SumBackend, Table,
    };
    use rfa_workloads::{GroupedPairs, Lineitem, ValueDist};

    // First, while no other table is alive; the audits share one counter,
    // so they run in this one test, one after another.
    sql_q1_allocates_nothing_per_batch();

    const N: usize = 1_000_000;
    let t = Lineitem::generate(N, 5);
    let n_vector_bytes = N * std::mem::size_of::<f64>(); // one 8 MB column

    // (1) Zero-copy table view: refcount bumps plus name strings — far
    // under even 1% of a single column.
    let view_bytes = allocated_during(|| {
        let table = lineitem_table(&t);
        assert_eq!(table.rows(), N);
        drop(table);
    });
    assert!(
        view_bytes < 16 * 1024,
        "table view allocated {view_bytes} bytes — expected O(columns), not clones"
    );

    let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
    let opts = ExecOptions::serial();
    let table = lineitem_table(&t);
    let (q1, q6) = (q1_plan(), q6_plan());

    // Warm-up run (so one-time lazy initialization is not billed), then
    // audit a steady-state fused execution.
    q1.execute(&table, backend, &opts).unwrap();
    let fused_bytes = allocated_during(|| {
        q1.execute(&table, backend, &opts).unwrap();
    });
    // (2) Fused budget: selection + group-id vectors (2 × 16 KiB), one
    // output register + expression scratch (few × 32 KiB), the batch
    // partition (permutation + gathered values, 48 KiB), 6 group states
    // × 5 aggregates (< 4 KiB), output rows. Allow 2 MiB of slack — still
    // 4× under ONE n-sized vector.
    assert!(
        fused_bytes < 2 * 1024 * 1024,
        "fused Q1 allocated {fused_bytes} bytes — expected O(batch + groups)"
    );
    assert!(
        fused_bytes < n_vector_bytes / 4,
        "fused Q1 allocated {fused_bytes} bytes — not clearly below an n-sized vector ({n_vector_bytes})"
    );

    // Q6 single-accumulator path: the budget is even tighter (one sink,
    // three predicate columns, ~2% selectivity).
    q6.execute(&table, backend, &opts).unwrap();
    let q6_bytes = allocated_during(|| {
        q6.execute(&table, backend, &opts).unwrap();
    });
    assert!(
        q6_bytes < 1024 * 1024,
        "fused Q6 allocated {q6_bytes} bytes — expected O(batch)"
    );

    // (3a) Q1 from SQL text: `GROUP BY l_returnflag, l_linestatus` is a
    // byte-pair key, whose states grow as groups are discovered — no
    // up-front reservation sized by the row count. Measured 0.66 MiB
    // (1.48 MiB while each scan range pre-sized a hash table for it).
    let q1 = sql_query(&q1_sql(), &table).unwrap();
    q1.execute(&table, backend, &opts).unwrap();
    let sql_q1_bytes = allocated_during(|| {
        q1.execute(&table, backend, &opts).unwrap();
    });
    assert!(
        sql_q1_bytes < 1024 * 1024,
        "SQL Q1 allocated {sql_q1_bytes} bytes — expected O(batch + groups)"
    );

    // (4) … and the direct-mapped gid table is its only large allocation:
    // one per scan range: the table, or one run of batches per thread.
    for threads in [1, 2] {
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        q1.execute(&table, backend, &opts).unwrap();
        LARGE_COUNT.store(0, Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
        q1.execute(&table, backend, &opts).unwrap();
        let ranges = threads.min(rayon::current_num_threads());
        assert_eq!(
            (
                LARGE_COUNT.load(Ordering::Relaxed),
                LARGEST.load(Ordering::Relaxed)
            ),
            (ranges, LARGE),
            "SQL Q1 at {threads} thread(s): allocations of >= 256 KiB (count, largest)"
        );
    }

    // (3b) High cardinality: 2^14 groups over 2^20 rows. Measured
    // 4.4 MiB: 2^14 accumulators of 80 bytes are 1.25 MiB live, about
    // 2.2 MiB of capacity after the last doubling; the pre-sized hash
    // table is 1 MiB; group keys, counts and the result's key / value
    // columns (sorted, then copied out) the rest. With a staging buffer
    // per group this was 140 MiB.
    let pairs = GroupedPairs::generate(1 << 20, 1 << 14, ValueDist::Signed, 5);
    let mut g = Table::new("g");
    g.add_column("key", Column::u32(pairs.keys)).unwrap();
    g.add_column("v", Column::f64(pairs.values)).unwrap();
    let by_key = sql_query("SELECT key, SUM(v) FROM g GROUP BY key", &g).unwrap();
    by_key.execute(&g, backend, &opts).unwrap();
    let by_key_bytes = allocated_during(|| {
        by_key.execute(&g, backend, &opts).unwrap();
    });
    assert!(
        by_key_bytes < 6 * 1024 * 1024,
        "buffered SUM over 2^14 groups allocated {by_key_bytes} bytes — expected O(batch + groups)"
    );
}

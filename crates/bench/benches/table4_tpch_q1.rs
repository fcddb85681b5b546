//! Table IV — CPU time of different approaches for TPC-H Query 1,
//! relative to the total CPU time on built-in doubles (in %).
//!
//! Paper values (MonetDB): double = 34.2 agg / 65.8 other / 100 total;
//! repro<d,4> unbuffered = 51.3 / 63.1 / 114.4; repro<d,4> buffered =
//! 38.7 / 64.0 / 102.7 (the 2.7% headline); sorted double = 45.1 / 682.1
//! / 727.2 (sorting is catastrophic).
//!
//! The engine's one pipeline is the fused zero-copy scan, so every column
//! measures it — the sorted baseline too, whose SUM states keep each
//! group's values and sort them when they finalize. The last column runs
//! the fused pipeline on `RFA_THREADS` threads, one contiguous run of
//! batches per thread.
//!
//! Phase accounting: "Scan" is selection + group-id + projection,
//! "Aggregations" the SUM-state deposits and merges, "Other"
//! finalization (for the sorted baseline, its sorts). The paper's Table
//! IV folds our Scan into its "Other"; compare paper "other" against
//! Scan + Other. Table-view setup is
//! zero-copy (Arc clones) and free — it no longer pollutes any phase.
//! The two indented rows split Scan: "Group-id only" is the whole time of
//! Q1's `COUNT(*)` twin (same filter, same grouping, no SUM input), i.e.
//! filter + group-id assignment + counting, and "Projection" is Scan
//! minus it — evaluating the five aggregate inputs.
//!
//! The `double` column's batches partition by group, and its five SUMs
//! add each group's segment in one lockstep pass. The bench asserts that
//! their sums equal, bit for bit, those of a run at 2048-row batches,
//! where 4 groups × `DOUBLE_MIN_SEG` exceed the batch and every row
//! deposits on its own.

use rfa_bench::{BenchConfig, ResultTable};
use rfa_core::CacheModel;
use rfa_engine::{
    lineitem_table, q1_plan, AggColumn, ExecOptions, PhaseTiming, QueryPlan, SumBackend, Table,
    DOUBLE_MIN_SEG,
};
use rfa_workloads::Lineitem;

/// The phase split of the fastest of `reps` runs of `plan`, after one
/// warm-up run.
fn fastest(
    plan: &QueryPlan,
    table: &Table,
    backend: SumBackend,
    opts: &ExecOptions,
    reps: usize,
) -> PhaseTiming {
    let run = || {
        let result = plan.execute(table, backend, opts);
        result.expect("Q1 must not overflow").timing
    };
    run();
    (0..reps)
        .map(|_| run())
        .min_by_key(PhaseTiming::total)
        .expect("at least one run")
}

fn main() {
    let cfg = BenchConfig::from_env();
    // Q1 groups = 6, so Eq. 4 gives the maximal buffer size.
    let bsz = CacheModel::default().buffer_size(6, 8, 0);
    let rows_n = cfg.n;
    println!("generating lineitem with {rows_n} rows ...");
    let t = lineitem_table(&Lineitem::generate(rows_n, 1));
    let (q1, serial) = (q1_plan(), ExecOptions::serial());
    let measure = |backend| fastest(&q1, &t, backend, &serial, cfg.reps);

    let double = measure(SumBackend::Double);
    // The partitioned lockstep against per-row deposits, at this scale.
    let per_row = ExecOptions {
        batch_rows: 2048,
        ..ExecOptions::serial()
    };
    assert!(4 * DOUBLE_MIN_SEG > per_row.batch_rows);
    let double_sums = |opts: &ExecOptions| -> Vec<Vec<u64>> {
        let result = q1.execute(&t, SumBackend::Double, opts);
        let columns = result.expect("Q1 must not overflow").columns;
        (columns.iter())
            .filter_map(|c| match c {
                AggColumn::F64(v) => Some(v.iter().map(|x| x.to_bits()).collect()),
                AggColumn::U64(_) => None,
            })
            .collect()
    };
    assert_eq!(
        double_sums(&serial),
        double_sums(&per_row),
        "double Q1: partitioned batches vs per-row 2048-row batches"
    );
    let unbuf = measure(SumBackend::ReproUnbuffered);
    let buf = measure(SumBackend::ReproBuffered { buffer_size: bsz });
    let sorted = measure(SumBackend::SortedDouble);
    // Parallel fused scan + aggregation, one run of batches per thread on
    // the rayon shim's fork-join (bit-identical to the serial fused
    // column; phase times are summed across workers, i.e. CPU time like
    // the paper reports).
    let pool = rayon::current_num_threads();
    let buf_par = fastest(
        &q1,
        &t,
        SumBackend::ReproBuffered { buffer_size: bsz },
        &ExecOptions::parallel(),
        cfg.reps,
    );

    // Q1's `COUNT(*)` twin: what the fused scan spends before the first
    // aggregate input is evaluated.
    let twin = QueryPlan {
        aggs: Vec::new(),
        ..q1_plan()
    }
    .count();
    let gid_only = [
        SumBackend::Double,
        SumBackend::ReproUnbuffered,
        SumBackend::ReproBuffered { buffer_size: bsz },
        SumBackend::SortedDouble,
    ]
    .map(|backend| fastest(&twin, &t, backend, &serial, cfg.reps).total());

    let base = double.total().as_secs_f64();
    let pct = |d: std::time::Duration| format!("{:.1}", 100.0 * d.as_secs_f64() / base);

    let par_col = format!("buffered par({pool}t)");
    let mut table = ResultTable::new(
        format!(
            "Table IV: TPC-H Q1 CPU time relative to double total (%), {rows_n} rows, bsz={bsz}"
        ),
        &[
            "phase",
            "double",
            "repro<d,4> unbuffered",
            "repro<d,4> buffered",
            "double (sorted)",
            &par_col,
        ],
    );
    type PhaseGetter = fn(&PhaseTiming) -> std::time::Duration;
    let phases: [(&str, PhaseGetter); 4] = [
        ("Scan", |t| t.scan),
        ("Aggregations", |t| t.aggregation),
        ("Other", |t| t.other),
        ("Total", |t| t.total()),
    ];
    for (name, phase) in phases {
        table.row(vec![
            name.into(),
            pct(phase(&double)),
            pct(phase(&unbuf)),
            pct(phase(&buf)),
            pct(phase(&sorted)),
            pct(phase(&buf_par)),
        ]);
        if name == "Scan" {
            // The CPU-time-summed parallel column has no comparable twin.
            let fused = [&double, &unbuf, &buf, &sorted];
            let projection = fused
                .iter()
                .zip(gid_only)
                .map(|(t, gid)| t.scan.saturating_sub(gid));
            for (name, split) in [
                ("  Group-id only", gid_only.to_vec()),
                ("  Projection", projection.collect()),
            ] {
                let mut row = vec![name.to_string()];
                row.extend(split.into_iter().map(pct));
                row.push("-".into());
                table.row(row);
            }
        }
    }
    table.print();
    table.write_csv("table4_tpch_q1");
    println!(
        "  paper (agg/other/total): double 34.2/65.8/100.0; unbuffered 51.3/63.1/114.4;\n  \
         buffered 38.7/64.0/102.7; sorted 45.1/682.1/727.2. Our Scan row is part of\n  \
         the paper's 'other'; compare paper other vs Scan + Other.\n  \
         shape to check: buffered tens of % over this double, whose SUMs add\n  \
         each group's segment side by side (the paper's 2.7 % is against a per-row\n  \
         double), unbuffered about 2x, sorted several-fold slower end to end (its\n  \
         sorts land in Other).\n  \
         The parallel column is CPU time summed over the {pool}-worker pool — wall\n  \
         clock drops by ~the worker count on real multicore hardware, bit-identical\n  \
         output either way."
    );
}

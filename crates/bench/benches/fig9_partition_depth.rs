//! Figure 9 — HASHAGGREGATION variants with different amounts of
//! partitioning (d = 0, 1, 2) on `repro<float, 2>` with summation buffers.
//!
//! Paper shape: each extra partitioning level costs a constant; it pays
//! off once the group count makes the unpartitioned working set fall out
//! of cache — crossovers at ~2^10 groups (d0→d1) and ~2^18 (d1→d2),
//! i.e. 2^10 groups per partition either way.

//! A second panel measures the same operator serial vs on the
//! work-stealing pool (wall clock), and records one representative
//! serial/parallel pair into `results/bench_smoke.json` — the CI smoke
//! artifact for parallel speedup.

use rfa_agg::{BufferedReproAgg, HashKind};
use rfa_bench::{
    f2, ns_per_elem,
    runner::{groupby_ns, groupby_ns_threads},
    time_min, time_min_set, write_bench_smoke, BenchConfig, BenchSmoke, HashGroupSmoke,
    ResultTable, SimdSmoke, SqlSmoke,
};
use rfa_core::cpu::{self, SimdLevel};
use rfa_core::{CacheModel, ReproSum};
use rfa_engine::plan::QueryPlan;
use rfa_engine::{
    lineitem_table, q6_plan, q6_sql, sql_query, Column, ExecOptions, Expr, PlanCache, SqlColumn,
    SumBackend, Table,
};
use rfa_workloads::{GroupedPairs, Lineitem, ValueDist};

fn main() {
    let cfg = BenchConfig::from_env();
    let model = CacheModel::default();
    let max_exp = cfg.max_group_exp();

    let mut table = ResultTable::new(
        format!(
            "Figure 9: repro<float,2> buffered, ns/elem by partition depth, n = 2^{}",
            cfg.n.trailing_zeros()
        ),
        &[
            "log2(groups)",
            "d=0",
            "d=1",
            "d=2",
            "Eq4 bsz(d=0)",
            "model depth",
        ],
    );

    for ge in (0..=max_exp).step_by(2) {
        let groups = 1u32 << ge;
        let g = groups as usize;
        let w = GroupedPairs::generate(cfg.n, groups, ValueDist::Uniform01, 10 + ge as u64);
        let v32 = w.values_f32();
        let mut row = vec![ge.to_string()];
        for d in 0..=2u32 {
            // Buffer size per Eq. 4 for this depth.
            let bsz = model.buffer_size(g, 4, d);
            let f = BufferedReproAgg::<f32, 2>::new(bsz);
            row.push(f2(groupby_ns(&f, &w.keys, &v32, d, g, cfg.reps)));
        }
        row.push(model.buffer_size(g, 4, 0).to_string());
        row.push(model.partition_depth(g, 4).to_string());
        table.row(row);
    }
    table.print();
    table.write_csv("fig9_partition_depth");
    println!(
        "  paper shape: d=0 fastest for few groups; d=1 wins beyond ~2^10 groups;\n  \
         d=2 wins beyond ~2^18 (same 2^10-per-partition threshold); the 'model depth'\n  \
         column shows the Eq. 4 cache model's offline choice."
    );

    // --- parallel panel: serial vs work-stealing pool, wall clock --------
    let pool = rayon::current_num_threads();
    let mut par_table = ResultTable::new(
        format!("Figure 9 (parallel): model-depth operator, serial vs pool ({pool} workers)"),
        &[
            "log2(groups)",
            "depth",
            "serial ns/elem",
            "pool ns/elem",
            "speedup",
        ],
    );
    let mut smoke: Option<(u32, f64, f64)> = None;
    for ge in [4u32, 10, max_exp] {
        let ge = ge.min(max_exp);
        if smoke.as_ref().is_some_and(|&(g, _, _)| g == ge) {
            continue; // deduplicate when max_exp is small
        }
        let groups = 1u32 << ge;
        let g = groups as usize;
        let w = GroupedPairs::generate(cfg.n, groups, ValueDist::Uniform01, 30 + ge as u64);
        let v32 = w.values_f32();
        let depth = model.partition_depth(g, 4);
        let f = BufferedReproAgg::<f32, 2>::new(model.buffer_size(g, 4, depth));
        let serial = groupby_ns(&f, &w.keys, &v32, depth, g, cfg.reps);
        let parallel = groupby_ns_threads(&f, &w.keys, &v32, depth, g, cfg.reps, pool);
        par_table.row(vec![
            ge.to_string(),
            depth.to_string(),
            f2(serial),
            f2(parallel),
            format!("{:.2}x", serial / parallel),
        ]);
        // Smoke artifact: keep the largest sweep point (most work to
        // parallelize, the headline configuration).
        smoke = Some((ge, serial, parallel));
    }
    par_table.print();
    par_table.write_csv("fig9_parallel");

    // The TPC-H lineitem table and backend of the SQL and SIMD panels:
    // serial repro<d,4> buffered, the paper's headline backend.
    let scan_rows = cfg.n;
    let lineitem = Lineitem::generate(scan_rows, 1);
    let backend = SumBackend::ReproBuffered {
        buffer_size: CacheModel::default().buffer_size(6, 8, 0),
    };

    // --- hash-group panel: hash vs dense group-id assignment -------------
    // The identical plan-layer aggregation (one reproducible SUM over a
    // 2^14-key domain) grouped (a) densely — a U8 pair whose packed key
    // indexes the direct-mapped group-id table — (b) through the hash
    // arm's SIMD batched probe on the raw i32 key column, and (c)
    // through the same probe over a *sparse* strided
    // key domain with `HashKind::Multiplicative` — identity hashing would
    // pile the ×1000 stride onto every 8th home slot, so this arm is the
    // real-hash configuration of the paper's §VI-A remark. The dense gap
    // is pure group-id assignment cost.
    let ge = 14u32.min(max_exp);
    let domain = 1usize << ge;
    let w = GroupedPairs::generate(cfg.n, domain as u32, ValueDist::Uniform01, 70 + ge as u64);
    let mut grouped = Table::new("g");
    grouped
        .add_column(
            "key",
            Column::i32(w.keys.iter().map(|&k| k as i32).collect::<Vec<_>>()),
        )
        .unwrap();
    // Hash-hostile sparse keys: ×1000 = 8 · 125 strides, so under
    // identity hashing every key aliases into an eighth of the slots.
    grouped
        .add_column(
            "skey",
            Column::i32(w.keys.iter().map(|&k| k as i32 * 1000).collect::<Vec<_>>()),
        )
        .unwrap();
    grouped
        .add_column(
            "hi",
            Column::u8(w.keys.iter().map(|&k| (k >> 8) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
    grouped
        .add_column(
            "lo",
            Column::u8(w.keys.iter().map(|&k| (k & 255) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
    grouped
        .add_column("v", Column::f64(w.values.clone()))
        .unwrap();
    let group_backend = SumBackend::ReproBuffered {
        buffer_size: model.buffer_size(domain, 8, 0),
    };
    let dense_plan = QueryPlan::scan("g")
        .group_by_u8_pair("hi", "lo")
        .sum(Expr::col("v"));
    let hash_plan = QueryPlan::scan("g").group_by_key("key").sum(Expr::col("v"));
    let sparse_plan = QueryPlan::scan("g")
        .group_by_key_with("skey", HashKind::Multiplicative)
        .sum(Expr::col("v"));
    let opts = ExecOptions::serial();
    // Cross-assert *before* measuring: every arm must agree with the
    // dense reference AND with its own forced-scalar-dispatch run,
    // bit-for-bit over every group — the smoke numbers are only written
    // for semantically interchangeable arms.
    {
        let d = dense_plan.execute(&grouped, group_backend, &opts).unwrap();
        for (name, plan) in [("hash", &hash_plan), ("sparse", &sparse_plan)] {
            let auto = plan.execute(&grouped, group_backend, &opts).unwrap();
            cpu::set_override(Some(SimdLevel::Scalar));
            let scalar = plan.execute(&grouped, group_backend, &opts).unwrap();
            cpu::set_override(None);
            assert_eq!(
                auto.keys, scalar.keys,
                "{name} arm: dispatched and scalar runs disagree on keys"
            );
            for (g, (a, b)) in auto.columns[0]
                .f64s()
                .iter()
                .zip(scalar.columns[0].f64s())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} arm: dispatched and scalar runs disagree on group {g}"
                );
            }
            if name == "hash" {
                assert_eq!(
                    d.keys, auto.keys,
                    "hash and dense grouping disagree on keys"
                );
                for (g, (a, b)) in d.columns[0]
                    .f64s()
                    .iter()
                    .zip(auto.columns[0].f64s())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "hash and dense grouping disagree on the sum of group {g}"
                    );
                }
            } else {
                // Same rows, strided keys: group g holds the identical
                // value sequence as dense group g (key = dense key ×1000),
                // so the sums must match the dense arm bit-for-bit too.
                assert_eq!(d.keys.len(), auto.keys.len());
                for (g, (&k, &dk)) in auto.keys.iter().zip(&d.keys).enumerate() {
                    assert_eq!(k, dk * 1000, "sparse arm key mismatch at group {g}");
                }
                for (g, (a, b)) in d.columns[0]
                    .f64s()
                    .iter()
                    .zip(auto.columns[0].f64s())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "sparse and dense grouping disagree on the sum of group {g}"
                    );
                }
            }
        }
    }
    // The headline number is a ratio of arms, so the arms are measured
    // interleaved (see `time_min_set`): back-to-back minima would hand
    // each arm different machine noise.
    let [dense_d, hash_d, sparse_d] = time_min_set(
        cfg.reps.max(5),
        [
            &mut || {
                std::hint::black_box(dense_plan.execute(&grouped, group_backend, &opts).unwrap());
            },
            &mut || {
                std::hint::black_box(hash_plan.execute(&grouped, group_backend, &opts).unwrap());
            },
            &mut || {
                std::hint::black_box(sparse_plan.execute(&grouped, group_backend, &opts).unwrap());
            },
        ],
    );
    let dense_ns = ns_per_elem(dense_d, cfg.n);
    let hash_ns = ns_per_elem(hash_d, cfg.n);
    let sparse_ns = ns_per_elem(sparse_d, cfg.n);
    let mut hash_table = ResultTable::new(
        format!(
            "Figure 9 (hash group): plan-layer SUM by 2^{ge} keys, hash vs dense ids, n = {}",
            cfg.n
        ),
        &["group-id assignment", "ns/elem", "vs dense"],
    );
    hash_table.row(vec![
        "hash (simd probe_batch)".into(),
        f2(hash_ns),
        format!("{:.2}x", hash_ns / dense_ns),
    ]);
    hash_table.row(vec![
        "hash sparse ×1000 (multiplicative)".into(),
        f2(sparse_ns),
        format!("{:.2}x", sparse_ns / dense_ns),
    ]);
    hash_table.row(vec![
        "dense (direct-mapped byte pair)".into(),
        f2(dense_ns),
        "1.00x".into(),
    ]);
    hash_table.print();
    hash_table.write_csv("fig9_hash");

    // --- sql panel: Q6 SQL text, cold vs cached, vs the builder plan -----
    // The cold SQL arm re-parses, re-resolves and re-lowers the pinned Q6
    // text on every iteration — the whole frontend is in the measured loop.
    // The cached arm sends the same text through a warm `PlanCache`, so a
    // hit costs one lookup and the iteration collapses to plan execution.
    // The builder arm executes a prebuilt QueryPlan. All three run the
    // identical fused executor and are cross-asserted bit-identical, so
    // the gaps read directly as frontend / cache-lookup overhead.
    let engine_table = lineitem_table(&lineitem);
    let opts = ExecOptions::serial();
    let builder_q6 = q6_plan();
    let plan_cache = PlanCache::new();
    // The three arms are *ratios of each other*, and at smoke scale one
    // iteration is ~100 µs — short enough that measuring the arms
    // back-to-back hands each a different slice of machine noise and can
    // order them arbitrarily (the PR 9 artifact recorded the warm-cache
    // arm 59% above the builder it collapses to). Interleave the arms
    // round-robin so every rep samples the same noise windows, and take
    // extra reps: these loops are cheap.
    let sql_reps = cfg.reps.max(7);
    let measure_sql_panel = || {
        time_min_set(
            sql_reps,
            [
                &mut || {
                    let q = sql_query(&q6_sql(), &engine_table).expect("pinned Q6 SQL resolves");
                    std::hint::black_box(q.execute(&engine_table, backend, &opts).expect("q6 sql"));
                },
                &mut || {
                    let q = plan_cache
                        .get_or_resolve(&q6_sql(), &engine_table)
                        .expect("pinned Q6 SQL resolves");
                    std::hint::black_box(
                        q.execute(&engine_table, backend, &opts).expect("q6 cached"),
                    );
                },
                &mut || {
                    std::hint::black_box(
                        builder_q6
                            .execute(&engine_table, backend, &opts)
                            .expect("q6 plan"),
                    );
                },
            ],
        )
    };
    // A warm cache hit is one lookup on top of plan execution; the table
    // below prints the ratio. It is not asserted: a timing gate with a 5%
    // margin fails on an idle shared host (2 of 5 runs), and a regression
    // of the hit path shows in `engine.sql.cache_hit_us` of the benchmark.
    let [sql_d, cached_d, builder_d] = measure_sql_panel();
    let sql_ns = ns_per_elem(sql_d, scan_rows);
    let cached_ns = ns_per_elem(cached_d, scan_rows);
    let builder_ns = ns_per_elem(builder_d, scan_rows);
    let cache_stats = plan_cache.stats();
    assert_eq!(cache_stats.entries, 1, "one pinned query, one cached plan");
    assert!(cache_stats.hits > 0, "warm iterations must hit the cache");
    {
        let q = sql_query(&q6_sql(), &engine_table).unwrap();
        let s = q.execute(&engine_table, backend, &opts).unwrap();
        let c = plan_cache
            .get_or_resolve(&q6_sql(), &engine_table)
            .unwrap()
            .execute(&engine_table, backend, &opts)
            .unwrap();
        let b = builder_q6.execute(&engine_table, backend, &opts).unwrap();
        let SqlColumn::F64(sv) = &s.columns[0] else {
            panic!("Q6 revenue is an F64 column");
        };
        let SqlColumn::F64(cv) = &c.columns[0] else {
            panic!("Q6 revenue is an F64 column");
        };
        assert_eq!(
            sv[0].to_bits(),
            b.columns[0].f64s()[0].to_bits(),
            "SQL and builder Q6 disagree"
        );
        assert_eq!(sv[0].to_bits(), cv[0].to_bits(), "cached Q6 disagrees");
    }
    let mut sql_table = ResultTable::new(
        format!("Figure 9 (sql): TPC-H Q6 from SQL text vs prebuilt plan, serial, n = {scan_rows}"),
        &["frontend", "ns/elem", "vs builder"],
    );
    sql_table.row(vec![
        "sql (parse+lower each run)".into(),
        f2(sql_ns),
        format!("{:.2}x", sql_ns / builder_ns),
    ]);
    sql_table.row(vec![
        "sql (warm plan cache)".into(),
        f2(cached_ns),
        format!("{:.2}x", cached_ns / builder_ns),
    ]);
    sql_table.row(vec!["builder plan".into(), f2(builder_ns), "1.00x".into()]);
    sql_table.print();
    sql_table.write_csv("fig9_sql");

    // --- simd panel: forced-scalar vs dispatched kernels -----------------
    // The summation kernel on its own (per-value extraction cascade vs
    // the portable lane-array block kernel vs the dispatched entry point,
    // AVX2 where supported) and TPC-H Q6 end-to-end (selection kernels +
    // summation) under a forced-scalar override vs the auto dispatch.
    // Every arm is bit-identical — that is proptest-enforced — so the
    // table is pure performance.
    let level = match cpu::active() {
        SimdLevel::Avx512 => "avx512",
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Scalar => "scalar",
    };
    let simd_values: &[f64] = &lineitem.extendedprice;
    let cascade_d = time_min(cfg.reps, || {
        let mut acc = ReproSum::<f64, 4>::new();
        acc.add_all(std::hint::black_box(simd_values));
        std::hint::black_box(acc.finalize());
    });
    let portable_d = time_min(cfg.reps, || {
        let mut acc = ReproSum::<f64, 4>::new();
        rfa_core::simd::add_slice_portable(&mut acc, std::hint::black_box(simd_values));
        std::hint::black_box(acc.finalize());
    });
    let dispatched_d = time_min(cfg.reps, || {
        let mut acc = ReproSum::<f64, 4>::new();
        rfa_core::simd::add_slice(&mut acc, std::hint::black_box(simd_values));
        std::hint::black_box(acc.finalize());
    });
    cpu::set_override(Some(SimdLevel::Scalar));
    let q6_scalar_d = time_min(cfg.reps, || {
        std::hint::black_box(
            builder_q6
                .execute(&engine_table, backend, &opts)
                .expect("q6"),
        );
    });
    cpu::set_override(None);
    let q6_auto_d = time_min(cfg.reps, || {
        std::hint::black_box(
            builder_q6
                .execute(&engine_table, backend, &opts)
                .expect("q6"),
        );
    });
    let cascade_ns = ns_per_elem(cascade_d, scan_rows);
    let portable_ns = ns_per_elem(portable_d, scan_rows);
    let dispatched_ns = ns_per_elem(dispatched_d, scan_rows);
    let q6_scalar_ns = ns_per_elem(q6_scalar_d, scan_rows);
    let q6_auto_ns = ns_per_elem(q6_auto_d, scan_rows);
    let mut simd_table = ResultTable::new(
        format!("Figure 9 (simd): scalar vs dispatched ({level}) kernels, serial, n = {scan_rows}"),
        &["kernel", "ns/elem", "vs dispatched"],
    );
    simd_table.row(vec![
        "add_slice scalar cascade".into(),
        f2(cascade_ns),
        format!("{:.2}x", cascade_ns / dispatched_ns),
    ]);
    simd_table.row(vec![
        "add_slice portable lanes".into(),
        f2(portable_ns),
        format!("{:.2}x", portable_ns / dispatched_ns),
    ]);
    simd_table.row(vec![
        "add_slice dispatched".into(),
        f2(dispatched_ns),
        "1.00x".into(),
    ]);
    simd_table.row(vec![
        "q6 fused scan, forced scalar".into(),
        f2(q6_scalar_ns),
        format!("{:.2}x", q6_scalar_ns / q6_auto_ns),
    ]);
    simd_table.row(vec![
        "q6 fused scan, dispatched".into(),
        f2(q6_auto_ns),
        "1.00x".into(),
    ]);
    simd_table.print();
    simd_table.write_csv("fig9_simd");

    if let Some((ge_smoke, serial, parallel)) = smoke {
        write_bench_smoke(&BenchSmoke {
            bench: "fig9_partition_depth",
            config: &format!("repro<f32,2> buffered, groups=2^{ge_smoke}, model depth"),
            n: cfg.n,
            pool_threads: pool,
            serial_ns_per_elem: serial,
            parallel_ns_per_elem: parallel,
            hash_group: Some(HashGroupSmoke {
                query: "plan sum-by-key serial repro<d,4> buffered",
                groups: domain,
                hash_ns_per_elem: hash_ns,
                dense_ns_per_elem: dense_ns,
                sparse_ns_per_elem: sparse_ns,
            }),
            sql: Some(SqlSmoke {
                query: "tpch_q6 serial repro<d,4> buffered",
                sql_ns_per_elem: sql_ns,
                cached_ns_per_elem: cached_ns,
                builder_ns_per_elem: builder_ns,
            }),
            simd: Some(SimdSmoke {
                level,
                add_slice_cascade_ns_per_elem: cascade_ns,
                add_slice_portable_ns_per_elem: portable_ns,
                add_slice_dispatched_ns_per_elem: dispatched_ns,
                q6_scalar_ns_per_elem: q6_scalar_ns,
                q6_dispatched_ns_per_elem: q6_auto_ns,
            }),
        });
    }
    println!(
        "  parallel shape: wall-clock speedup approaches the worker count once the\n  \
         input spans enough morsels; on a single-core host both columns coincide\n  \
         (the split tree is identical — only the scheduling differs).\n  \
         hash-group shape: hash within a small constant of dense ids — the SIMD\n  \
         gather-compare probe resolves resident keys in bulk; the sparse ×1000 arm\n  \
         pays the multiplicative hash on top. All arms bit-identical (asserted,\n  \
         including vs forced-scalar dispatch) before the smoke object is written.\n  \
         sql shape: the cold SQL arm re-parses and re-lowers per run yet stays near\n  \
         1.00x of the prebuilt plan; the warm plan-cache arm must sit within a few\n  \
         percent of the builder (all three cross-asserted bit-identical).\n  \
         simd shape: the dispatched add_slice at or below the portable lanes, both\n  \
         well below the per-value cascade; Q6 dispatched at or below forced scalar\n  \
         (bit-identical by construction — the speedup is free of semantics)."
    );
}

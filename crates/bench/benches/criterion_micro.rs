//! Criterion micro-benchmarks of the core primitives underlying every
//! figure: scalar deposits, the vectorized kernel, radix partitioning and
//! hash-table aggregation.
//!
//! These complement the custom figure harnesses with statistically
//! rigorous single-primitive measurements (useful when tuning the kernel).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rfa_agg::{hash_aggregate, partition_serial, HashKind, ReproAgg, SumAgg};
use rfa_core::{simd, ReproSum};
use rfa_workloads::{GroupedPairs, ValueDist};
use std::hint::black_box;

const N: usize = 1 << 16;

fn bench_summation(c: &mut Criterion) {
    let w = GroupedPairs::generate(N, 16, ValueDist::Uniform01, 21);
    let values = &w.values;
    let mut g = c.benchmark_group("summation");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("conventional_f64", |b| {
        b.iter(|| black_box(values.iter().sum::<f64>()))
    });
    g.bench_function("repro_scalar_f64_L2", |b| {
        b.iter(|| {
            let mut acc = ReproSum::<f64, 2>::new();
            acc.add_all(values);
            black_box(acc.value())
        })
    });
    g.bench_function("repro_simd_f64_L2", |b| {
        b.iter(|| {
            let mut acc = ReproSum::<f64, 2>::new();
            simd::add_slice(&mut acc, values);
            black_box(acc.value())
        })
    });
    g.finish();
}

fn bench_operators(c: &mut Criterion) {
    let w = GroupedPairs::generate(N, 1024, ValueDist::Uniform01, 22);
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("partition_serial_256", |b| {
        b.iter(|| {
            black_box(partition_serial(
                &w.keys,
                &w.values,
                HashKind::Identity,
                8,
                0,
            ))
        })
    });
    g.bench_function("hash_agg_f64", |b| {
        b.iter(|| {
            black_box(hash_aggregate(
                &SumAgg::<f64>::new(),
                &w.keys,
                &w.values,
                HashKind::Identity,
                1024,
            ))
        })
    });
    g.bench_function("hash_agg_repro_f64_L2", |b| {
        b.iter(|| {
            black_box(hash_aggregate(
                &ReproAgg::<f64, 2>::new(),
                &w.keys,
                &w.values,
                HashKind::Identity,
                1024,
            ))
        })
    });
    g.finish();
}

/// Pool primitives: the same `rfa-agg` grouped aggregation serial vs
/// parallel over its `GroupByConfig::morsel_rows` morsels (read the
/// speedup straight off the thrpt column), plus the parallel
/// merge sort against std's sequential sort.
fn bench_parallel(c: &mut Criterion) {
    use rfa_agg::{partition_and_aggregate, GroupByConfig};

    const NP: usize = 1 << 19;
    let pool = rayon::current_num_threads();
    let w = GroupedPairs::generate(NP, 1024, ValueDist::Uniform01, 23);
    let mut g = c.benchmark_group("parallel");
    g.throughput(Throughput::Elements(NP as u64));
    let cfg = |threads| GroupByConfig {
        groups_hint: 1024,
        threads,
        ..Default::default()
    };
    g.bench_function("groupby_repro_serial", |b| {
        let f = ReproAgg::<f64, 2>::new();
        b.iter(|| black_box(partition_and_aggregate(&f, &w.keys, &w.values, &cfg(1))))
    });
    g.bench_function(format!("groupby_repro_pool_{pool}t"), |b| {
        let f = ReproAgg::<f64, 2>::new();
        b.iter(|| black_box(partition_and_aggregate(&f, &w.keys, &w.values, &cfg(pool))))
    });
    let unsorted: Vec<u64> = (0..NP as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    g.bench_function("sort_u64_seq", |b| {
        b.iter(|| {
            let mut v = unsorted.clone();
            v.sort_unstable();
            black_box(v)
        })
    });
    g.bench_function(format!("sort_u64_pool_{pool}t"), |b| {
        use rayon::prelude::*;
        b.iter(|| {
            let mut v = unsorted.clone();
            v.par_sort_unstable();
            black_box(v)
        })
    });
    g.finish();
}

/// Fused-scan primitives: per-batch overhead of the zero-copy pipeline in
/// isolation — batched expression evaluation into reused scratch, the
/// batched hash-table probe, and the end-to-end Q1 / Q6 queries.
fn bench_fused_scan(c: &mut Criterion) {
    use rfa_engine::{
        lineitem_table, q1_plan, q6_plan, EvalScratch, ExecOptions, Expr, Sel, SumBackend,
    };
    use rfa_workloads::Lineitem;

    let table = lineitem_table(&Lineitem::generate(N, 7));
    let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
    let serial = ExecOptions::serial();
    let mut g = c.benchmark_group("fused_scan");
    g.throughput(Throughput::Elements(N as u64));

    for (name, plan) in [("q1_fused", q1_plan()), ("q6_fused", q6_plan())] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(plan.execute(&table, backend, &serial).unwrap()))
        });
    }

    // Compiled batch evaluation of the Q1 charge expression over reused
    // scratch registers (no allocation in the measured loop).
    let charge = Expr::col("l_extendedprice")
        .mul(Expr::lit(1.0).sub(Expr::col("l_discount")))
        .mul(Expr::lit(1.0).add(Expr::col("l_tax")))
        .compile();
    let bound = charge.bind(&table).unwrap();
    let sel: Vec<u32> = (0..N as u32).collect();
    let mut scratch = EvalScratch::new();
    let mut out = vec![0.0f64; 4096];
    g.bench_function("expr_charge_batched_eval", |b| {
        b.iter(|| {
            for chunk in sel.chunks(4096) {
                bound.eval_into(Sel::new(chunk), &mut scratch, &mut out[..chunk.len()]);
                black_box(&out);
            }
        })
    });

    g.finish();
}

/// SIMD dispatch: the repro summation kernel per level (per-value scalar
/// cascade vs the portable lane-array block kernel vs forced AVX2 vs
/// forced AVX-512) for f64 and f32 at several sizes, then `repro<d,4>`
/// along the depth axis — inputs whose chunks need 1, 2 or 4 cascade
/// levels — per level. All arms are bit-identical (proptested); the thrpt
/// columns read directly as the dispatch and level-count win.
fn bench_simd(c: &mut Criterion) {
    use rfa_core::cpu::{self, SimdLevel};

    let avx2 = cpu::avx2_supported();
    let avx512 = cpu::avx512_supported();
    let mut g = c.benchmark_group("simd");

    for exp in [10u32, 14, 18] {
        let n = 1usize << exp;
        let w = GroupedPairs::generate(n, 16, ValueDist::Uniform01, 25 + exp as u64);
        let v64 = &w.values;
        let v32 = w.values_f32();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("add_slice_f64_cascade_2^{exp}"), |b| {
            b.iter(|| {
                let mut acc = ReproSum::<f64, 2>::new();
                acc.add_all(v64);
                black_box(acc.value())
            })
        });
        g.bench_function(format!("add_slice_f64_portable_2^{exp}"), |b| {
            b.iter(|| {
                let mut acc = ReproSum::<f64, 2>::new();
                simd::add_slice_portable(&mut acc, v64);
                black_box(acc.value())
            })
        });
        if avx2 {
            cpu::set_override(Some(SimdLevel::Avx2));
            g.bench_function(format!("add_slice_f64_avx2_2^{exp}"), |b| {
                b.iter(|| {
                    let mut acc = ReproSum::<f64, 2>::new();
                    simd::add_slice(&mut acc, v64);
                    black_box(acc.value())
                })
            });
            cpu::set_override(None);
        }
        if avx512 {
            cpu::set_override(Some(SimdLevel::Avx512));
            g.bench_function(format!("add_slice_f64_avx512_2^{exp}"), |b| {
                b.iter(|| {
                    let mut acc = ReproSum::<f64, 2>::new();
                    simd::add_slice(&mut acc, v64);
                    black_box(acc.value())
                })
            });
            cpu::set_override(None);
        }
        g.bench_function(format!("add_slice_f32_cascade_2^{exp}"), |b| {
            b.iter(|| {
                let mut acc = ReproSum::<f32, 2>::new();
                acc.add_all(&v32);
                black_box(acc.value())
            })
        });
        g.bench_function(format!("add_slice_f32_portable_2^{exp}"), |b| {
            b.iter(|| {
                let mut acc = ReproSum::<f32, 2>::new();
                simd::add_slice_portable(&mut acc, &v32);
                black_box(acc.value())
            })
        });
        if avx2 {
            cpu::set_override(Some(SimdLevel::Avx2));
            g.bench_function(format!("add_slice_f32_avx2_2^{exp}"), |b| {
                b.iter(|| {
                    let mut acc = ReproSum::<f32, 2>::new();
                    simd::add_slice(&mut acc, &v32);
                    black_box(acc.value())
                })
            });
            cpu::set_override(None);
        }
    }

    // The depth axis at 2^14 values: denormals on the bottom rung (1
    // level), magnitudes in [0.5, 1) (2 levels), and the same with one
    // 1e-30 per 512 values (4 levels).
    let n = 1usize << 14;
    let w = GroupedPairs::generate(n, 16, ValueDist::Uniform01, 40);
    let unit: Vec<f64> = w.values.iter().map(|v| 0.5 + 0.5 * v).collect();
    let tiny = |(i, &v): (usize, &f64)| if i % 512 == 0 { 1e-30 } else { v };
    let depths = [
        (
            "depth1",
            unit.iter().map(|v| v * 2f64.powi(-1040)).collect(),
        ),
        ("depth2", unit.clone()),
        (
            "depth4",
            unit.iter().enumerate().map(tiny).collect::<Vec<_>>(),
        ),
    ];
    g.throughput(Throughput::Elements(n as u64));
    for (depth, values) in &depths {
        for (name, level) in dispatch_levels() {
            cpu::set_override(Some(level));
            g.bench_function(format!("add_slice_f64_L4_{depth}_{name}"), |b| {
                b.iter(|| {
                    let mut acc = ReproSum::<f64, 4>::new();
                    simd::add_slice(&mut acc, values);
                    black_box(acc.value())
                })
            });
            cpu::set_override(None);
        }
    }
    g.finish();
}

/// The partition gather of one Q1-shaped batch: ~4 040 of 4 096 rows
/// kept, in four group segments of ~1 010 values, copied through the
/// stable permutation. `8wide_loop` is the engine's former copy loop (eight
/// values per iteration, no scan); `8wide_loop+scan` adds the validity
/// scan the block kernel then ran over each segment; `simd_gather` is
/// [`simd::gather`], which scans while it copies. Each at every dispatch
/// level this host can be forced to (EXPERIMENTS.md, "Scan while
/// gathering").
fn bench_gather(c: &mut Criterion) {
    use rfa_core::cpu;

    const SPAN: usize = 4096;
    let w = GroupedPairs::generate(SPAN, 4, ValueDist::Uniform01, 43);
    // Keep 79 rows in 80 (98.75 %, Q1's share); stable counting sort by
    // group over the kept rows' offsets into the span.
    let kept: Vec<usize> = (0..SPAN).filter(|i| i % 80 != 79).collect();
    let mut perm: Vec<u32> = Vec::with_capacity(kept.len());
    let mut segs = Vec::new();
    for g in 0..4 {
        perm.extend(kept.iter().filter(|&&i| w.keys[i] == g).map(|&i| i as u32));
        segs.push(perm.len());
    }
    let values = &w.values;
    let mut out = vec![0.0f64; perm.len()];

    fn gather_8wide(values: &[f64], perm: &[u32], out: &mut [f64]) {
        let (mut outs, mut idxs) = (out.chunks_exact_mut(8), perm.chunks_exact(8));
        for (o, idx) in (&mut outs).zip(&mut idxs) {
            for (o, &i) in o.iter_mut().zip(idx) {
                *o = values[i as usize];
            }
        }
        for (o, &i) in outs.into_remainder().iter_mut().zip(idxs.remainder()) {
            *o = values[i as usize];
        }
    }

    let mut g = c.benchmark_group("gather");
    g.throughput(Throughput::Elements(perm.len() as u64));
    g.bench_function("8wide_loop", |b| {
        b.iter(|| {
            gather_8wide(values, &perm, &mut out);
            black_box(out[0])
        })
    });
    for (name, level) in dispatch_levels() {
        cpu::set_override(Some(level));
        g.bench_function(format!("8wide_loop+scan_{name}"), |b| {
            b.iter(|| {
                gather_8wide(values, &perm, &mut out);
                let mut start = 0;
                for &end in &segs {
                    black_box(simd::scan(&out[start..end]));
                    start = end;
                }
            })
        });
        g.bench_function(format!("simd_gather_{name}"), |b| {
            b.iter(|| {
                let mut start = 0;
                for &end in &segs {
                    black_box(simd::gather(
                        values,
                        &perm[start..end],
                        &mut out[start..end],
                    ));
                    start = end;
                }
            })
        });
        cpu::set_override(None);
    }
    g.finish();
}

/// The dispatch levels this host can be forced to, by `RFA_SIMD` name.
fn dispatch_levels() -> Vec<(&'static str, rfa_core::cpu::SimdLevel)> {
    use rfa_core::cpu::{self, SimdLevel};
    let mut levels = vec![("scalar", SimdLevel::Scalar)];
    if cpu::avx2_supported() {
        levels.push(("avx2", SimdLevel::Avx2));
    }
    if cpu::avx512_supported() {
        levels.push(("avx512", SimdLevel::Avx512));
    }
    levels
}

/// The grouped SUM operator (`sum_grouped`, dense random group ids) per
/// backend across group counts — the paper's Fig. 7/10 axis, and the run
/// that fixes `rfa_engine::MIN_SEG`: `ReproBuffered` partitions a batch
/// while `groups · MIN_SEG ≤ 4096` and deposits per row (exactly what
/// `ReproUnbuffered` does everywhere) above, so the constant belongs where
/// a partitioned batch stops beating the unbuffered arm. Unbuffered legs
/// at 2^2 and 2^14 groups over inputs that need 2, 3 and 4 cascade levels
/// show the per-row loop's level count. EXPERIMENTS.md records the table.
fn bench_grouped_deposit(c: &mut Criterion) {
    use rfa_engine::{sum_grouped, SumBackend};

    const ROWS: usize = 1 << 20;
    let mut g = c.benchmark_group("grouped_deposit");
    g.throughput(Throughput::Elements(ROWS as u64));
    for shift in (2..=16).step_by(2) {
        let groups = 1usize << shift;
        let w = GroupedPairs::generate(ROWS, groups as u32, ValueDist::Uniform01, 23);
        for (name, backend) in [
            ("repro_unbuffered", SumBackend::ReproUnbuffered),
            (
                "repro_buffered",
                SumBackend::ReproBuffered { buffer_size: 1024 },
            ),
            ("double", SumBackend::Double),
        ] {
            g.bench_function(format!("{name}_g2^{shift}"), |b| {
                b.iter(|| black_box(sum_grouped(backend, &w.keys, &w.values, groups)))
            });
        }
    }
    // Unbuffered per-row deposits at the cascade depth the data needs
    // (DESIGN.md S3, per-row deposits): values in [1, 2) need 2 of the 4
    // levels; one row in 64 scaled by 2^-30 makes every 4096-row batch
    // need 3, by 2^-70 all 4.
    for shift in [2, 14] {
        let groups = 1usize << shift;
        let w = GroupedPairs::generate(ROWS, groups as u32, ValueDist::Uniform12, 24);
        for (levels, scale) in [(2, 1.0), (3, 2f64.powi(-30)), (4, 2f64.powi(-70))] {
            let values: Vec<f64> = (w.values.iter().enumerate())
                .map(|(i, &v)| if i % 64 == 0 { v * scale } else { v })
                .collect();
            g.bench_function(format!("repro_unbuffered_{levels}lv_g2^{shift}"), |b| {
                b.iter(|| {
                    black_box(sum_grouped(
                        SumBackend::ReproUnbuffered,
                        &w.keys,
                        &values,
                        groups,
                    ))
                })
            });
        }
    }
    g.finish();
}

/// The grouped SUM *query* — `SELECT key, SUM(v)[, SUM(w), …] FROM g
/// GROUP BY key` through `sql_query` and `execute` — over 2^20 rows with
/// uniformly random keys at 2, 4, 5, 6 and 8 groups, with 1, 2 and 5 SUMs,
/// for `Double` and `ReproBuffered`: the run that fixes
/// `rfa_engine::DOUBLE_MIN_SEG`, the way `grouped_deposit` fixes
/// `MIN_SEG`. The scan partitions a `Double` batch while `groups ·
/// DOUBLE_MIN_SEG ≤ 4096` and shares the partition between COUNT and
/// every SUM, so the constant belongs at the last group count where a
/// partitioned query beats a per-row one at every SUM count. The
/// `ReproBuffered` rows, partitioned up to 8 groups, are the other arm of
/// the query-level ratio. EXPERIMENTS.md records the table.
fn bench_grouped_query(c: &mut Criterion) {
    use rfa_engine::{sql_query, Column, ExecOptions, SumBackend, Table};

    const ROWS: usize = 1 << 20;
    const COLS: [&str; 5] = ["v", "w", "x", "y", "z"];
    let opts = ExecOptions::serial();
    let mut g = c.benchmark_group("grouped_query");
    g.throughput(Throughput::Elements(ROWS as u64));
    for groups in [2u32, 4, 5, 6, 8] {
        let mut t = Table::new("g");
        let w = GroupedPairs::generate(ROWS, groups, ValueDist::Uniform01, 31);
        let keys = w.keys.iter().map(|&k| k as i32).collect::<Vec<_>>();
        t.add_column("key", Column::i32(keys)).expect("fresh table");
        for (seed, col) in (32..).zip(COLS) {
            let w = GroupedPairs::generate(ROWS, 1, ValueDist::Uniform01, seed);
            t.add_column(col, Column::f64(w.values))
                .expect("fresh table");
        }
        for sums in [1, 2, 5] {
            let items: Vec<String> = COLS[..sums].iter().map(|c| format!("SUM({c})")).collect();
            let sql = format!("SELECT key, {} FROM g GROUP BY key", items.join(", "));
            let query = sql_query(&sql, &t).expect("valid query");
            for (name, backend) in [
                ("double", SumBackend::Double),
                (
                    "repro_buffered",
                    SumBackend::ReproBuffered { buffer_size: 1024 },
                ),
            ] {
                g.bench_function(format!("{name}_g{groups}_sums{sums}"), |b| {
                    b.iter(|| black_box(query.execute(&t, backend, &opts).expect("finite sums")))
                });
            }
        }
    }
    g.finish();
}

/// Group-id assignment alone: a `COUNT(*) … GROUP BY` scan (no SUM state,
/// unbuffered backend, so nothing is partitioned) per key shape — a plain
/// byte pair, the pair over a `Dict` and an RLE leg, a dictionary code,
/// and a plain `i32` at 4 / 256 / 2^14 groups — over a dense selection and
/// a 98.7 %-selective one (Q1's), per dispatch level. Narrow keys index a
/// direct-mapped table, so their rows must not depend on the level; the
/// `i32` rows are the SIMD hash probe. thrpt is keys/s.
fn bench_gid_assign(c: &mut Criterion) {
    use rfa_core::cpu;
    use rfa_engine::{
        run_fused, Column, ExecOptions, Expr, FusedQuery, GroupKey, SumBackend, Table,
    };
    use rfa_workloads::SplitMix64;

    const ROWS: usize = 1 << 20;
    let mut rng = SplitMix64::new(0x61D);
    let mut draw = |below: u64| -> Vec<u64> { (0..ROWS).map(|_| rng.below(below)).collect() };
    let bytes = |v: &[u64]| Column::u8(v.iter().map(|&x| x as u8).collect::<Vec<_>>());
    let ints = |v: &[u64]| Column::i32(v.iter().map(|&x| x as i32).collect::<Vec<_>>());
    let (a, b) = (draw(2), draw(2));
    let mut t = Table::new("t");
    let mut add = |name: &str, col: Column| t.add_column(name, col).expect("fresh table");
    add("a", bytes(&a));
    add("b", bytes(&b));
    add("a_dict", bytes(&a).dict_encode().expect("two values"));
    // Runs of 4096 rows: what a clustered status column looks like.
    let runs: Vec<u64> = (0..ROWS).map(|i| (i >> 12 & 1) as u64).collect();
    add("b_rle", bytes(&runs).rle_encode().expect("long runs"));
    add("code", ints(&draw(256)).dict_encode().expect("256 values"));
    for groups in [4, 256, 1 << 14] {
        add(&format!("k{groups}"), ints(&draw(groups)));
    }
    add("m", ints(&draw(1000)));

    let pair = |a: &str, b: &str| GroupKey::HashPair {
        a: a.into(),
        b: b.into(),
    };
    let by = |col: &str| GroupKey::Hash { col: col.into() };
    let shapes = [
        ("pair_plain", pair("a", "b")),
        ("pair_dict_rle", pair("a_dict", "b_rle")),
        ("dict_code_g256", by("code")),
        ("i32_g4", by("k4")),
        ("i32_g256", by("k256")),
        ("i32_g16384", by("k16384")),
    ];
    let selections = [
        ("dense", vec![]),
        ("sel987", vec![Expr::col("m").lt(Expr::lit(987.0))]),
    ];
    let levels = dispatch_levels();

    let mut g = c.benchmark_group("gid_assign");
    g.throughput(Throughput::Elements(ROWS as u64));
    let opts = ExecOptions::serial();
    for (shape, group_by) in shapes {
        for (selection, filter) in &selections {
            let query = FusedQuery {
                filter: filter.clone(),
                sums: vec![],
                mins: vec![],
                maxs: vec![],
                group_by: group_by.clone(),
            };
            for &(name, level) in &levels {
                cpu::set_override(Some(level));
                g.bench_function(format!("{shape}_{selection}_{name}"), |b| {
                    b.iter(|| {
                        let run = run_fused(&t, &query, SumBackend::ReproUnbuffered, &opts);
                        black_box(run.expect("no reserved key").counts)
                    })
                });
                cpu::set_override(None);
            }
        }
    }
    g.finish();
}

/// The project step alone: Q1's five aggregate inputs over 4096-row
/// batches whose selection keeps a given share of its covering range —
/// the sweep [`rfa_engine::NEAR_DENSE`] is set from (EXPERIMENTS.md).
/// `separate_*` is one program per input (five programs, eight column
/// loads), `shared_*` the one program the scan runs (four loads, the
/// discounted price once). `*_gather` loads the selected rows column by
/// column; `shared_range` evaluates the covering range as slices and
/// leaves the selection to the consumer — what a partitioned or per-row
/// deposit reads. thrpt is selected rows/s.
fn bench_projection(c: &mut Criterion) {
    use rfa_engine::{lineitem_table, CompiledExpr, EvalScratch, Expr, Sel};
    use rfa_workloads::{Lineitem, SplitMix64};

    const ROWS: usize = 1 << 18;
    const BATCH: usize = 4096;
    let table = lineitem_table(&Lineitem::generate(ROWS, 7));
    let col = Expr::col;
    let disc_price = || col("l_extendedprice").mul(Expr::lit(1.0).sub(col("l_discount")));
    let inputs = [
        col("l_quantity"),
        col("l_extendedprice"),
        disc_price(),
        disc_price().mul(Expr::lit(1.0).add(col("l_tax"))),
        col("l_discount"),
    ];
    let shared = CompiledExpr::compile_all(&inputs);
    let shared = shared.bind(&table).expect("lineitem columns");
    let separate: Vec<CompiledExpr> = inputs.iter().map(Expr::compile).collect();
    let separate: Vec<_> = separate
        .iter()
        .map(|e| e.bind(&table).expect("lineitem columns"))
        .collect();

    let mut g = c.benchmark_group("projection");
    for kept in [1.0, 0.987, 0.9, 0.75, 0.5, 0.25, 0.02] {
        let mut rng = SplitMix64::new(0x5E1);
        let rows: Vec<u32> = (0..ROWS as u32)
            .filter(|_| (rng.below(1 << 20) as f64) < kept * (1 << 20) as f64)
            .collect();
        // One selection vector per batch of the grid, as the scan sees them.
        let batches: Vec<&[u32]> = rows
            .chunk_by(|a, b| a / BATCH as u32 == b / BATCH as u32)
            .collect();
        g.throughput(Throughput::Elements(rows.len() as u64));
        let mut scratch = EvalScratch::new();
        g.bench_function(format!("separate_gather_kept{kept}"), |b| {
            b.iter(|| {
                for rows in &batches {
                    for e in &separate {
                        e.eval(Sel::new(rows), &mut scratch);
                        black_box(e.output(0, &scratch));
                    }
                }
            })
        });
        let mut eval_shared = |name: &str, sel: fn(&[u32]) -> Sel<'_>| {
            g.bench_function(format!("{name}_kept{kept}"), |b| {
                b.iter(|| {
                    for rows in &batches {
                        shared.eval(sel(rows), &mut scratch);
                        for k in 0..inputs.len() {
                            black_box(shared.output(k, &scratch));
                        }
                    }
                })
            });
        };
        eval_shared("shared_gather", |rows| Sel::new(rows));
        eval_shared("shared_range", |rows| Sel::covering(rows));
    }
    g.finish();
}

/// The scan filter's range kernels: selection-vector fill (first conjunct,
/// contiguous rows) and refine (later conjuncts, gathered rows) over a
/// plain `F64` and a plain `I32` column, per dispatch level, at 1 / 15 /
/// 50 / 99 % selectivity. The `f64` fill and the `i32` refine have no
/// kernel (no workload runs them): those rows time the scalar loop at
/// every level. Every conjunct binds as a closed interval, so a
/// one-sided comparison (`x < c` — Q1's shipdate cutoff) runs the same
/// two-compare kernel as a two-sided window; both are measured so that
/// what the second compare costs is a number (EXPERIMENTS.md holds the
/// single-compare kernels this replaced, measured by this very group).
/// Refines start from all rows each iteration (the copy is in the time).
fn bench_filter(c: &mut Criterion) {
    use rfa_core::cpu;
    use rfa_engine::{Column, EvalScratch, Expr, Table};

    let n = N;
    // Uniform over [0, 10 000): the same bounds select the same share of
    // both columns.
    const SPAN: f64 = 10_000.0;
    let w = GroupedPairs::generate(n, 16, ValueDist::Uniform01, 29);
    let floats: Vec<f64> = w.values.iter().map(|v| v * SPAN).collect();
    let ints: Vec<i32> = floats.iter().map(|&v| v as i32).collect();
    let mut table = Table::new("t");
    table.add_column("f64", Column::f64(floats)).unwrap();
    table.add_column("i32", Column::i32(ints)).unwrap();
    let all: Vec<u32> = (0..n as u32).collect();

    let mut g = c.benchmark_group("filter");
    g.measurement_time(std::time::Duration::from_millis(300));
    g.throughput(Throughput::Elements(n as u64));
    for col in ["f64", "i32"] {
        for pct in [1u32, 15, 50, 99] {
            // The lowest `pct` percent one-sided; as many from the middle.
            let width = pct as f64 / 100.0 * SPAN;
            let lo = ((SPAN - width) / 2.0).floor();
            let preds = [
                ("one_sided", Expr::col(col).lt(Expr::lit(width))),
                (
                    "two_sided",
                    Expr::col(col).between(Expr::lit(lo), Expr::lit(lo + width - 1.0)),
                ),
            ];
            for (sides, pred) in preds {
                let pred = pred.compile();
                let bound = pred.bind(&table).unwrap();
                for (level_name, level) in dispatch_levels() {
                    cpu::set_override(Some(level));
                    let id = format!("{col}_{sides}_{pct}pct_{level_name}");
                    g.bench_function(format!("fill_{id}"), |b| {
                        let mut sel: Vec<u32> = Vec::with_capacity(n);
                        let mut scratch = EvalScratch::new();
                        b.iter(|| {
                            bound.fill(0, n, &mut sel, &mut scratch);
                            black_box(sel.len())
                        })
                    });
                    g.bench_function(format!("refine_{id}"), |b| {
                        let mut sel: Vec<u32> = Vec::with_capacity(n);
                        let mut scratch = EvalScratch::new();
                        b.iter(|| {
                            sel.clear();
                            sel.extend_from_slice(&all);
                            bound.refine(&mut sel, &mut scratch);
                            black_box(sel.len())
                        })
                    });
                    cpu::set_override(None);
                }
            }
        }
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_summation, bench_operators, bench_parallel, bench_fused_scan, bench_simd,
        bench_gather, bench_grouped_deposit, bench_grouped_query, bench_gid_assign, bench_projection, bench_filter
}
criterion_main!(benches);

//! Per-layer metrics of the traced run. Each probe drives one layer's own
//! public function on the workload's own data and times it from outside;
//! nothing in the repository is instrumented. The README lists, for every
//! metric here, the end-to-end metric and workload it should move.
//!
//! The `engine.column`, `engine.sql` and `server` probes need a lineitem
//! table. A lineitem workload lends its own; `groupby_highcard` has none
//! and generates one of the service's size.

use crate::alloc_counted;
use crate::run::{in_process_op, service_op, Reported, Samples, LEG_SPANS};
use crate::spec;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::workloads::{
    q6_variants, scan_only_sql, Data, Prepared, Scale, ARMS, CONNECTIONS, ENCODE_POLICY,
};
use rfa_agg::{
    hash_aggregate, partition_and_aggregate, AggHashTable, BufferedReproAgg, GroupByConfig,
    HashKind, ReproAgg,
};
use rfa_core::{simd, CacheModel, ReproSum, SummationBuffer};
use rfa_engine::{
    lineitem_table, parse_select, q15_sql, q1_sql, q6_sql, resolve_select, sql_query, sum_grouped,
    ExecOptions, GroupedSums, PlanCache, SqlColumn, SqlQuery, Table, FUSED_BATCH_ROWS,
};
use rfa_server::{Client, Request, Response, ResultSet, Server, ServerConfig};
use rfa_workloads::{Lineitem, SplitMix64};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Median wall time in ms of `reps` calls, after one call that is not timed.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The three SQL texts the engine pins, in the order of a service cycle.
fn pinned_texts() -> [String; 3] {
    [q1_sql(), q6_sql(), q15_sql()]
}

struct Probes<'a> {
    reps: usize,
    out: &'a mut Vec<Reported>,
}

impl Probes<'_> {
    fn put(&mut self, name: impl AsRef<str>, value: f64) {
        self.out.push(Reported::plain(name.as_ref(), value));
    }

    /// Times `f` and reports it in ns per one of `per` items.
    fn ns_per<R>(&mut self, name: impl AsRef<str>, per: usize, f: impl FnMut() -> R) {
        let ms = time_ms(self.reps, f);
        self.put(name, ms * 1e6 / per as f64);
    }

    /// `rfa_core`: the summation primitives over the value column.
    fn core(&mut self, values: &[f64]) {
        type Acc = ReproSum<f64, 4>;
        let n = values.len();
        self.ns_per("core.add_slice_ns_per_elem", n, || {
            let mut acc = Acc::new();
            simd::add_slice(&mut acc, black_box(values));
            acc.value()
        });
        self.ns_per("core.add_scalar_ns_per_elem", n, || {
            let mut acc = Acc::new();
            for &v in black_box(values) {
                acc.add(v);
            }
            acc.value()
        });
        self.ns_per("core.buffer_push_ns_per_elem", n, || {
            let mut buf = SummationBuffer::<f64, 4>::new(1024);
            for &v in black_box(values) {
                buf.push(v);
            }
            buf.finalize()
        });
        let parts: Vec<Acc> = values
            .chunks(512)
            .map(|c| {
                let mut acc = Acc::new();
                simd::add_slice(&mut acc, c);
                acc
            })
            .collect();
        self.ns_per("core.merge_ns_per_call", parts.len(), || {
            let mut acc = Acc::new();
            for part in black_box(&parts) {
                acc.merge(part);
            }
            acc.value()
        });
        let scaled = &values[..n.min(1 << 16)];
        self.ns_per("core.add_scaled_ns_per_call", scaled.len(), || {
            let mut acc = Acc::new();
            for (i, &v) in black_box(scaled).iter().enumerate() {
                acc.add_scaled(v, 2 + i as u64 % 1000);
            }
            acc.value()
        });
    }

    /// `rfa_agg`: group-id assignment alone, the hash aggregation the
    /// engine's GROUP BY arm is built from, and the paper's Algorithm 4,
    /// which the engine never calls — the reference line for ROADMAP item B.
    fn agg(&mut self, keys: &[u32], values: &[f64], groups: usize) {
        let n = keys.len();
        self.ns_per("agg.hash_upsert_ns_per_key", n, || {
            let mut table = AggHashTable::with_capacity(groups, HashKind::Identity, &0.0f64);
            let mut slots = Vec::with_capacity(FUSED_BATCH_ROWS);
            for (kc, vc) in keys
                .chunks(FUSED_BATCH_ROWS)
                .zip(values.chunks(FUSED_BATCH_ROWS))
            {
                table.upsert_batch(kc, &0.0, &mut slots, |s, i| *s += vc[i]);
            }
            table.len()
        });
        self.ns_per("agg.hash_aggregate_ns_per_elem", n, || {
            hash_aggregate(
                &ReproAgg::<f64, 4>::new(),
                keys,
                values,
                HashKind::Identity,
                groups,
            )
        });
        let model = CacheModel::default();
        let cfg = GroupByConfig {
            threads: 1,
            ..GroupByConfig::tuned_for(groups, 8, &model)
        };
        let f = BufferedReproAgg::<f64, 4>::new(model.buffer_size(groups, 8, cfg.depth));
        self.ns_per("agg.partition_agg_ns_per_elem", n, || {
            partition_and_aggregate(&f, keys, values, &cfg)
        });
    }

    /// `rfa_engine::sum_op`: the grouped SUM operator on precomputed dense
    /// group ids, per arm, at the group counts of the workloads.
    fn sum_op(&mut self, values: &[f64], seed: u64, max_groups: usize) {
        let n = values.len();
        let mut rng = SplitMix64::new(seed ^ 0x0061_D50F_5EED);
        for g in [4usize, 16384, 65536] {
            // Smoke runs cap the group count; the metric keeps its name.
            let groups = g.min(max_groups);
            let gids: Vec<u32> = (0..n).map(|_| rng.below(groups as u64) as u32).collect();
            for (arm, backend) in ARMS {
                self.ns_per(format!("engine.sum_op.{arm}_ns_per_row_g{g}"), n, || {
                    sum_grouped(backend, &gids, values, groups)
                });
            }
        }
        self.ns_per("engine.sum_op.single_ns_per_row", n, || {
            let mut state = GroupedSums::new(ARMS[0].1, 1);
            let ok = state.update_single(black_box(values)).is_ok();
            (ok, state.finalize())
        });
    }

    /// The workload's own op, varied: aggregates replaced by `COUNT(*)`,
    /// two threads, and under the counting allocator. Arm A throughout.
    fn op(&mut self, p: &Prepared, samples: &Samples) -> Result<(), String> {
        let ops = 3 * self.reps;
        let mut client = p
            .service
            .as_ref()
            .map(|s| s.clients[0].lock().expect("client mutex poisoned"));
        let serial = ExecOptions::serial();
        let scan_texts: Vec<String> = p.queries.iter().map(|q| scan_only_sql(&q.sql)).collect();
        let scan_only = scan_texts
            .iter()
            .map(|sql| sql_query(sql, &p.table).map_err(|e| format!("{sql}: {e}")))
            .collect::<Result<Vec<SqlQuery>, _>>()?;

        let (mut scan_ms, mut selected, mut groups_out) = (Vec::new(), 0u64, 0usize);
        for op in 0..ops {
            let mut ms = 0.0;
            for (qi, q) in p.queries.iter().enumerate() {
                let t = Instant::now();
                let columns = match client.as_deref_mut() {
                    Some(c) => c
                        .query(&scan_texts[qi], ARMS[0].1, 1, None)
                        .map(|r| r.columns)
                        .map_err(|e| e.to_string()),
                    None => scan_only[qi]
                        .execute(&p.table, ARMS[0].1, &serial)
                        .map(|r| r.columns)
                        .map_err(|e| e.to_string()),
                }
                .map_err(|e| format!("scan-only {}: {e}", q.sql))?;
                ms += t.elapsed().as_secs_f64() * 1e3;
                if op == 0 {
                    if let Some(SqlColumn::U64(counts)) = columns.last() {
                        selected += counts.iter().sum::<u64>();
                        groups_out += counts.len();
                    }
                }
            }
            scan_ms.push(ms);
        }
        let op_p50 = median(&samples.ms[0][0]);
        let scan_p50 = median(&scan_ms);
        self.put("engine.scan_only_ms_p50", scan_p50);
        self.put("engine.agg_share", 1.0 - scan_p50 / op_p50);
        self.put("engine.rows_selected_per_op", selected as f64);
        self.put("engine.groups_out", groups_out as f64);

        let mut quiet = Tracer::new(Instant::now(), 0);
        let two_threads = ExecOptions {
            threads: 2,
            ..ExecOptions::serial()
        };
        let mut run = |threads: u32| match client.as_deref_mut() {
            Some(c) => service_op(p, c, 0, threads, &mut quiet, 0),
            None => in_process_op(
                p,
                0,
                if threads == 2 { &two_threads } else { &serial },
                &mut quiet,
                0,
            ),
        };
        let mut par2_ms = Vec::new();
        for _ in 0..self.reps {
            let (ms, ok) = run(2);
            if !ok {
                return Err(format!("{}: two-thread op failed or differs", p.name));
            }
            par2_ms.push(ms);
        }
        let par2_p50 = median(&par2_ms);
        self.put("engine.par2_ms_p50", par2_p50);
        self.put("engine.par2_speedup", op_p50 / par2_p50);

        let (calls, bytes) = alloc_counted(|| {
            black_box(run(1));
        });
        self.put("engine.alloc_mb_per_op", bytes as f64 / (1u64 << 20) as f64);
        self.put("engine.alloc_calls_per_op", calls as f64);
        Ok(())
    }

    /// `rfa_engine::column`: the auto-encoder, and Q1 and the 16 Q6
    /// variants on the shipdate-sorted encoded table, on its plain twin,
    /// and on the unsorted table, where every encodable column becomes a
    /// dictionary.
    fn column(&mut self, rows: usize, seed: u64) -> Result<(), String> {
        let unsorted = Lineitem::generate(rows, seed);
        let sorted = unsorted.sorted_by_shipdate();
        let mut encoded = lineitem_table(&sorted);
        let t = Instant::now();
        encoded.encode_auto(ENCODE_POLICY);
        self.put("engine.column.encode_auto_s", t.elapsed().as_secs_f64());
        let mut dict_unsorted = lineitem_table(&unsorted);
        dict_unsorted.encode_auto(ENCODE_POLICY);
        let tables = [
            ("", encoded),
            ("plain_twin_", lineitem_table(&sorted)),
            ("dict_unsorted_", dict_unsorted),
        ];
        let q6_texts = q6_variants(seed);
        for (prefix, table) in &tables {
            let prepare = |sql: &str| sql_query(sql, table).map_err(|e| format!("{sql}: {e}"));
            let q1 = prepare(&q1_sql())?;
            let q6s = q6_texts
                .iter()
                .map(|(_, sql)| prepare(sql))
                .collect::<Result<Vec<SqlQuery>, _>>()?;
            let serial = ExecOptions::serial();
            let ms = time_ms(self.reps, || q1.execute(table, ARMS[0].1, &serial));
            self.put(format!("engine.column.{prefix}q1_ms_p50"), ms);
            let ms = time_ms(self.reps, || {
                q6s.iter()
                    .filter(|q| black_box(q.execute(table, ARMS[0].1, &serial)).is_ok())
                    .count()
            });
            self.put(format!("engine.column.{prefix}q6_ms_p50"), ms);
        }
        Ok(())
    }

    /// `rfa_engine::sql`: what preparing a statement costs — paid per
    /// query behind the server, once in set-up by the in-process workloads.
    fn sql(&mut self, table: &Table) -> Result<(), String> {
        const LOOPS: usize = 100;
        let texts = pinned_texts();
        let per_text_us = |ms: f64| ms * 1e3 / (LOOPS * texts.len()) as f64;
        let stmts = texts
            .iter()
            .map(|t| parse_select(t).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let ms = time_ms(self.reps, || {
            (0..LOOPS)
                .map(|_| {
                    texts
                        .iter()
                        .filter(|t| black_box(parse_select(t)).is_ok())
                        .count()
                })
                .sum::<usize>()
        });
        self.put("engine.sql.parse_us", per_text_us(ms));
        let ms = time_ms(self.reps, || {
            (0..LOOPS)
                .map(|_| {
                    stmts
                        .iter()
                        .filter(|s| black_box(resolve_select(s, table)).is_ok())
                        .count()
                })
                .sum::<usize>()
        });
        self.put("engine.sql.resolve_us", per_text_us(ms));
        let cache = PlanCache::new();
        let ms = time_ms(self.reps, || {
            (0..LOOPS)
                .map(|_| {
                    texts
                        .iter()
                        .filter(|t| black_box(cache.get_or_resolve(t, table)).is_ok())
                        .count()
                })
                .sum::<usize>()
        });
        self.put("engine.sql.cache_hit_us", per_text_us(ms));
        Ok(())
    }

    /// `rfa_server::protocol`: encode + decode of a Q1 request and of the
    /// Q15 result, the largest message of the cycle.
    fn protocol(&mut self, table: &Table) -> Result<(), String> {
        const LOOPS: usize = 100;
        let request = Request::Query {
            query_id: 1,
            sql: q1_sql(),
            backend: ARMS[0].1,
            deadline: None,
            threads: 1,
        };
        let ms = time_ms(self.reps, || {
            (0..LOOPS)
                .filter(|_| Request::decode(&black_box(&request).encode()).is_ok())
                .count()
        });
        self.put("server.protocol.request_codec_us", ms * 1e3 / LOOPS as f64);
        let q15 = sql_query(&q15_sql(), table)
            .and_then(|q| q.execute(table, ARMS[0].1, &ExecOptions::serial()))
            .map_err(|e| format!("Q15: {e}"))?;
        let result = ResultSet {
            names: q15.names,
            columns: q15.columns,
        };
        self.put(
            "server.protocol.result_bytes_q15",
            result.wire_size() as f64,
        );
        let response = Response::Result {
            query_id: 1,
            result,
        };
        let ms = time_ms(self.reps, || {
            (0..LOOPS)
                .filter(|_| Response::decode(&black_box(&response).encode()).is_ok())
                .count()
        });
        self.put("server.protocol.result_codec_us", ms * 1e3 / LOOPS as f64);
        Ok(())
    }

    /// `rfa_server`: round trips of the three pinned texts on one idle
    /// connection, then two connections at once, and the server's counters.
    fn server(
        &mut self,
        server: &Server,
        clients: &[Mutex<Client>],
        table: &Table,
        cycle_ms: &[f64],
    ) -> Result<(), String> {
        let cycles = 3 * self.reps;
        let texts = pinned_texts();
        let one_cycle = |client: &mut Client, legs: &mut [Vec<f64>; 3]| -> Result<(), String> {
            for (text, leg) in texts.iter().zip(legs) {
                let t = Instant::now();
                client
                    .query(text, ARMS[0].1, 1, None)
                    .map_err(|e| format!("server probe: {e}"))?;
                leg.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok(())
        };

        let mut client = clients[0].lock().expect("client mutex poisoned");
        let mut pings = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            pings.push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.put("server.ping_us_p50", median(&pings));

        let mut legs: [Vec<f64>; 3] = Default::default();
        let t = Instant::now();
        for _ in 0..cycles {
            one_cycle(&mut client, &mut legs)?;
        }
        let wall = t.elapsed().as_secs_f64();
        drop(client);
        self.put("server.qps_1conn", (3 * cycles) as f64 / wall);
        for (leg, name) in legs.iter().zip(LEG_SPANS) {
            let q = name.rsplit('.').next().expect("dotted span name");
            self.put(format!("server.rtt_{q}_ms_p50"), median(leg));
        }
        let q6 = sql_query(&texts[1], table).map_err(|e| format!("Q6: {e}"))?;
        let serial = ExecOptions::serial();
        let in_process = time_ms(cycles, || q6.execute(table, ARMS[0].1, &serial));
        self.put("server.overhead_q6_ms", median(&legs[1]) - in_process);

        let t = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|c| {
                    s.spawn(|| {
                        let mut client = c.lock().expect("client mutex poisoned");
                        let mut legs: [Vec<f64>; 3] = Default::default();
                        (0..cycles).try_for_each(|_| one_cycle(&mut client, &mut legs))
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("probe thread panicked"))
        })?;
        self.put(
            "server.qps_2conn",
            (3 * cycles * clients.len()) as f64 / t.elapsed().as_secs_f64(),
        );

        let tail = if cycle_ms.is_empty() {
            let totals: Vec<f64> = (0..cycles)
                .map(|i| legs.iter().map(|l| l[i]).sum())
                .collect();
            summarize(&totals)
        } else {
            summarize(cycle_ms)
        };
        self.out.push(Reported {
            name: "server.cycle_ms_tail".to_string(),
            value: tail.tail,
            detail: vec![("pct", tail.tail_pct), ("samples", tail.n as f64)],
        });
        let stats = server.stats();
        self.put("server.accepted", stats.accepted as f64);
        self.put("server.completed", stats.completed as f64);
        self.put("server.rejected_overload", stats.rejected_overload as f64);
        self.put("server.protocol_errors", stats.protocol_errors as f64);
        Ok(())
    }
}

pub fn run(
    p: &Prepared,
    seed: u64,
    scale: &Scale,
    samples: &Samples,
    tracer: &Tracer,
    out: &mut Vec<Reported>,
) -> Result<(), String> {
    let mut probes = Probes {
        reps: scale.probe_reps,
        out,
    };

    let generated;
    let lineitem = match &p.data {
        Data::Lineitem(li) => li,
        Data::Pairs(_) => {
            generated = Lineitem::generate(scale.service_rows, seed);
            &generated
        }
    };
    match &p.data {
        Data::Lineitem(li) => {
            let keys: Vec<u32> = li.suppkey.iter().map(|&k| k as u32).collect();
            probes.core(&li.extendedprice);
            probes.agg(
                &keys,
                &li.extendedprice,
                rfa_workloads::tpch::SUPPLIERS as usize,
            );
            probes.sum_op(&li.extendedprice, seed, scale.max_probe_groups);
        }
        Data::Pairs(pairs) => {
            probes.core(&pairs.values);
            probes.agg(&pairs.keys, &pairs.values, pairs.key_domain as usize);
            probes.sum_op(&pairs.values, seed, scale.max_probe_groups);
        }
    }
    probes.op(p, samples)?;
    probes.column(lineitem.len(), seed)?;

    match &p.service {
        Some(service) => {
            probes.sql(&p.table)?;
            probes.protocol(&p.table)?;
            probes.server(
                &service.server,
                &service.clients,
                &p.table,
                &samples.ms[0][0],
            )?;
        }
        None => {
            let table = Arc::new(lineitem_table(lineitem));
            probes.sql(&table)?;
            probes.protocol(&table)?;
            let server = Server::spawn(Arc::clone(&table), ServerConfig::default())
                .map_err(|e| format!("server spawn: {e}"))?;
            let clients = (0..CONNECTIONS)
                .map(|_| {
                    Client::connect(server.addr())
                        .map(Mutex::new)
                        .map_err(|e| format!("connect: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            probes.server(&server, &clients, &table, &[])?;
        }
    }

    let [a, b, c] = [0, 1, 2].map(|arm| summarize(&samples.ms[arm][0]));
    // Ratios of the same statistic the end-to-end metrics report.
    probes.put("derived.buffered_over_double", a.min / c.min);
    probes.put("derived.unbuffered_over_double", b.min / c.min);
    probes.put("derived.buffered_over_unbuffered", a.min / b.min);
    probes.out.push(Reported {
        name: "engine.exec_ms_tail".to_string(),
        value: a.tail,
        detail: vec![("pct", a.tail_pct), ("samples", a.n as f64)],
    });
    probes.put("engine.exec_ms_max", a.max);
    probes.put("workloads.generate_s", p.generate_s);
    probes.put("workloads.rows", p.table.rows() as f64);
    probes.put(
        "trace.overhead_frac",
        (summarize(&samples.ms[0][1]).min - a.min) / a.min,
    );
    probes.put("trace.self_ms_p50", median(&tracer.self_ms("op")));

    // Report in the order BENCHMARK.json declares.
    let rank = |name: &str| spec::PER_LAYER.iter().position(|m| m.0 == name);
    out.sort_by_key(|m| rank(&m.name));
    Ok(())
}

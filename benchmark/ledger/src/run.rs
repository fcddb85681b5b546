//! One run of one workload: set-up, verification ops, the timed closed
//! loop over the three arms, and the end-to-end metrics. The traced run
//! takes the same path with spans on every other pass, then the probes.

use crate::flat::{quote, Flat};
use crate::probes;
use crate::spec;
use crate::stats::{median, summarize, Summary};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{
    bits_eq, setup, verify, Prepared, Scale, Tally, ARMS, ARM_NAMES, CONNECTIONS,
};
use rfa_engine::ExecOptions;
use rfa_server::Client;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up rounds after the reference pass, which is itself one op per
/// arm and query: at least three warm-up ops per arm before timing.
const WARMUP_ROUNDS: usize = 2;
const WARMUP_BLOCK_CYCLES: usize = 2;
/// Where trace files and the orchestrator's part files go (git-ignored).
pub const OUT_DIR: &str = "benchmark/out";
/// Span names of the three legs of a `service_mix` cycle.
pub const LEG_SPANS: [&str; 3] = ["server.query.q1", "server.query.q6", "server.query.q15"];

#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Rounds(usize),
}

impl Budget {
    /// Whether the loop stops before round number `round`.
    fn spent(self, round: usize, start: Instant) -> bool {
        match self {
            Budget::Rounds(r) => round >= r,
            Budget::Seconds(s) => round > 0 && start.elapsed().as_secs_f64() >= s,
        }
    }
}

/// Arms of one round in the order they run: `A B C` with the starting
/// arm rotated every round, so no arm always follows the same neighbour.
pub fn arm_order(round: usize) -> [usize; 3] {
    [round % 3, (round + 1) % 3, (round + 2) % 3]
}

/// Which passes a round makes, by whether spans are recorded. The traced
/// run makes both on every round (same queries, same arm order) and
/// alternates which goes first.
fn passes(trace: bool, round: usize) -> &'static [bool] {
    match (trace, round % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

#[derive(Default)]
pub struct Samples {
    /// Op wall times in ms: `ms[arm][1]` of traced passes, `[0]` of the rest.
    pub ms: [[Vec<f64>; 2]; 3],
    /// Throughput of each untraced arm-A block, all callers together: an
    /// op of the one in-process caller, or `block_cycles` cycles on every
    /// connection of `service_mix` from barrier to barrier.
    pub block_ops_per_s: Vec<f64>,
}

impl Samples {
    fn with_capacity(n: usize) -> Samples {
        let mut s = Samples::default();
        for v in s.ms.iter_mut().flatten() {
            v.reserve(n);
        }
        s
    }

    fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self
            .ms
            .iter_mut()
            .flatten()
            .zip(other.ms.into_iter().flatten())
        {
            mine.extend(theirs);
        }
        self.block_ops_per_s.extend(other.block_ops_per_s);
    }
}

/// One in-process op: executes the op's prepared queries on one arm,
/// timing only the `SqlQuery::execute` calls, and compares every result
/// bitwise with the arm's reference.
pub fn in_process_op(
    p: &Prepared,
    arm: usize,
    opts: &ExecOptions,
    tracer: &mut Tracer,
    op_id: u32,
) -> (f64, bool) {
    let op = tracer.begin("op", NO_PARENT, op_id, arm);
    let (mut ms, mut ok) = (0.0, true);
    for (qi, q) in p.queries.iter().enumerate() {
        let span = tracer.begin("engine.execute", op, op_id, arm);
        let t = Instant::now();
        let r = black_box(q.prepared.execute(black_box(&p.table), ARMS[arm].1, opts));
        ms += t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        ok &= r.is_ok_and(|r| bits_eq(&r.columns, &p.refs[arm][qi]));
    }
    tracer.end(op);
    (ms, ok)
}

/// One `service_mix` op: Q1, Q6, Q15 as SQL text over one connection.
/// Service errors, refusals and transport errors fail the op.
pub fn service_op(
    p: &Prepared,
    client: &mut Client,
    arm: usize,
    threads: u32,
    tracer: &mut Tracer,
    op_id: u32,
) -> (f64, bool) {
    let op = tracer.begin("op", NO_PARENT, op_id, arm);
    let (mut ms, mut ok) = (0.0, true);
    for (qi, q) in p.queries.iter().enumerate() {
        let span = tracer.begin(LEG_SPANS[qi], op, op_id, arm);
        let t = Instant::now();
        let r = black_box(client.query(&q.sql, ARMS[arm].1, threads, None));
        ms += t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        ok &= r.is_ok_and(|r| bits_eq(&r.columns, &p.refs[arm][qi]));
    }
    tracer.end(op);
    (ms, ok)
}

/// Closed loop, one caller thread, `ExecOptions::serial()`.
fn in_process_loop(
    p: &Prepared,
    budget: Budget,
    trace: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Samples {
    let opts = ExecOptions::serial();
    let mut samples = Samples::with_capacity(1 << 14);
    let start = Instant::now();
    let (mut round, mut op_id) = (0, 0);
    while !budget.spent(round, start) {
        for &traced in passes(trace, round) {
            tracer.on = traced;
            for arm in arm_order(round) {
                op_id += 1;
                let (ms, ok) = in_process_op(p, arm, &opts, tracer, op_id);
                samples.ms[arm][traced as usize].push(ms);
                if arm == 0 && !traced {
                    samples.block_ops_per_s.push(1e3 / ms);
                }
                tally.op(ok, || {
                    format!(
                        "{}: {} result differs, round {round}",
                        p.name, ARM_NAMES[arm]
                    )
                });
            }
        }
        round += 1;
    }
    tracer.on = false;
    samples
}

/// Closed loop over the wire: one thread per connection, every
/// connection on the same arm at the same time, in blocks of
/// `block_cycles` cycles; a round is one block per arm.
fn service_loop(
    p: &Prepared,
    budget: Budget,
    block_cycles: usize,
    trace: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Samples {
    let service = p.service.as_ref().expect("service_mix has a server");
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let t0 = tracer.t0();
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = service
            .clients
            .iter()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut client = client.lock().expect("client mutex poisoned");
                    let mut samples = Samples::with_capacity(1 << 14);
                    let mut tracer = Tracer::new(t0, if trace { 1 << 16 } else { 0 });
                    let mut tally = Tally::default();
                    let (mut round, mut ops) = (0, 0);
                    loop {
                        // The first connection decides; the barrier
                        // publishes its decision to the others.
                        if conn == 0 && budget.spent(round, start) {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        for &traced in passes(trace, round) {
                            tracer.on = traced;
                            for arm in arm_order(round) {
                                barrier.wait();
                                let block = Instant::now();
                                for _ in 0..block_cycles {
                                    ops += 1;
                                    let op_id = (ops * CONNECTIONS + conn) as u32;
                                    let (ms, ok) =
                                        service_op(p, &mut client, arm, 1, &mut tracer, op_id);
                                    samples.ms[arm][traced as usize].push(ms);
                                    tally.op(ok, || {
                                        format!(
                                            "{}: {} cycle failed on connection {conn}",
                                            p.name, ARM_NAMES[arm]
                                        )
                                    });
                                }
                                barrier.wait();
                                if arm == 0 && !traced && conn == 0 {
                                    // Every connection has finished the block.
                                    let ops = (block_cycles * CONNECTIONS) as f64;
                                    samples
                                        .block_ops_per_s
                                        .push(ops / block.elapsed().as_secs_f64());
                                }
                            }
                        }
                        round += 1;
                    }
                    (samples, tracer, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut samples = Samples::default();
    for (s, t, ta) in per_conn {
        samples.absorb(s);
        tracer.absorb(t);
        tally.attempted += ta.attempted;
        tally.failed += ta.failed;
        tally.failures.extend(ta.failures);
    }
    samples
}

pub fn timed_loop(
    p: &Prepared,
    budget: Budget,
    block_cycles: usize,
    trace: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Samples {
    if p.service.is_some() {
        service_loop(p, budget, block_cycles, trace, tracer, tally)
    } else {
        in_process_loop(p, budget, trace, tracer, tally)
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// Where `trace.<workload>.json` goes; `None` keeps the spans in memory only.
    pub trace_dir: Option<PathBuf>,
    pub scale: Scale,
    /// `(key, value)` pairs copied into the result file's header.
    pub host: Vec<(String, String)>,
}

/// A metric as reported: its value and, where it summarizes samples,
/// their quartiles, count and the tail percentile used.
pub struct Reported {
    pub name: String,
    pub value: f64,
    pub detail: Vec<(&'static str, f64)>,
}

impl Reported {
    pub fn plain(name: &str, value: f64) -> Reported {
        Reported {
            name: name.to_string(),
            value,
            detail: Vec::new(),
        }
    }

    /// The fastest sample, with the quantiles that say how well the rest
    /// of the run supports it.
    fn fastest(name: &str, s: &Summary) -> Reported {
        Reported {
            name: name.to_string(),
            value: s.min,
            detail: vec![
                ("p10", s.p10),
                ("p50", s.p50),
                ("q3", s.q3),
                ("samples", s.n as f64),
            ],
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Reported>,
    pub tally: Tally,
}

impl Report {
    /// The line the driver reads: the last line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let (unit, _) = spec::declared(&m.name).expect("reported metrics are declared");
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// This run's keys of the flat result file.
    pub fn flat(&self, args: &RunArgs) -> Flat {
        let mut f = header(args);
        let w = self.workload;
        for m in &self.metrics {
            f.num(format!("{w}.{}", m.name), m.value);
            for (k, v) in &m.detail {
                f.num(format!("{w}.{}.{k}", m.name), *v);
            }
        }
        let mode = if args.trace { "traced" } else { "untraced" };
        f.num(format!("{w}.{mode}.attempted"), self.tally.attempted as f64);
        f.num(format!("{w}.{mode}.failed"), self.tally.failed as f64);
        f
    }

    fn print(&self, args: &RunArgs) {
        println!(
            "ledger: workload {} seed {} seconds {} trace {}",
            self.workload, args.seed, args.seconds, args.trace as u8
        );
        for m in &self.metrics {
            let (unit, better) = spec::declared(&m.name).expect("reported metrics are declared");
            let detail: Vec<String> = m
                .detail
                .iter()
                .map(|(k, v)| format!("{k} {v:.4}"))
                .collect();
            println!(
                "  {:<46} {:>14.4} {:<8} {} is better  {}",
                m.name,
                m.value,
                unit,
                better.as_str(),
                detail.join(" ")
            );
        }
        println!(
            "  ops attempted {} failed {}",
            self.tally.attempted, self.tally.failed
        );
        for line in &self.tally.failures {
            println!("  FAILED {line}");
        }
    }
}

/// Header keys of a result file: what was run, on what.
pub fn header(args: &RunArgs) -> Flat {
    let mut f = Flat::default();
    f.str("schema", "ledger-1");
    for (k, v) in &args.host {
        f.str(k.clone(), v.clone());
    }
    f.num(
        "host.nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    f.str("host.simd", rfa_core::cpu::active().to_string());
    f.num("seed", args.seed as f64);
    f.num("seconds", args.seconds);
    f.num("rows", args.scale.rows as f64);
    f.num("groups", args.scale.groups as f64);
    f.num("service_rows", args.scale.service_rows as f64);
    f
}

/// The knobs that change what the library does. A run under any of them
/// measures something other than the baseline did.
pub fn refuse_env() -> Result<(), String> {
    match ["RFA_FAULTS", "RFA_SIMD", "RFA_THREADS"]
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        Some(v) => Err(format!(
            "{v} is set; the ledger measures the default configuration only"
        )),
        None => Ok(()),
    }
}

pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    refuse_env()?;
    let scale = &args.scale;
    let mut tally = Tally::default();
    let t0 = Instant::now();

    // Set-up with its warm-up ops, timed. The measured loop runs on the
    // first one, in a process that has done nothing else; the repeats that
    // make `setup_s` a median come after everything else is measured.
    let set_up = |tally: &mut Tally| -> Result<(Prepared, f64), String> {
        let t = Instant::now();
        let p = setup(&args.workload, args.seed, scale)?;
        let mut quiet = Tracer::new(t0, 0);
        timed_loop(
            &p,
            Budget::Rounds(WARMUP_ROUNDS),
            WARMUP_BLOCK_CYCLES,
            false,
            &mut quiet,
            tally,
        );
        Ok((p, t.elapsed().as_secs_f64()))
    };
    let (p, first_setup_s) = set_up(&mut tally)?;
    let mut setup_s = vec![first_setup_s];

    let mut tracer = Tracer::new(t0, if args.trace { 1 << 18 } else { 0 });
    // The traced run spends the other half of its time in the probes.
    let budget = match scale.rounds {
        Some(r) => Budget::Rounds(r),
        None => Budget::Seconds(if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        }),
    };
    let samples = timed_loop(
        &p,
        budget,
        scale.block_cycles,
        args.trace,
        &mut tracer,
        &mut tally,
    );
    // Peak memory of what is measured: the two-thread verification op
    // alone allocates several times what the serial ops do.
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    verify(&p, args.seed, &mut tally);

    let workload = p.name;
    let mut metrics = Vec::new();
    if args.trace {
        probes::run(&p, args.seed, scale, &samples, &tracer, &mut metrics)?;
        if let Some(dir) = &args.trace_dir {
            let path = dir.join(format!("trace.{}.json", p.name));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| tracer.write_json(std::io::BufWriter::new(f), &ARM_NAMES))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    } else {
        let names = [
            spec::BUFFERED_MS_MIN,
            spec::UNBUFFERED_MS_MIN,
            spec::DOUBLE_MS_MIN,
        ];
        for (arm, name) in names.iter().enumerate() {
            metrics.push(Reported::fastest(name, &summarize(&samples.ms[arm][0])));
        }
        // Each set-up is dropped before the next begins: two live copies
        // would double the memory.
        drop(p);
        for _ in 1..SETUPS {
            setup_s.push(set_up(&mut tally)?.1);
        }
        let blocks = summarize(&samples.block_ops_per_s);
        metrics.push(Reported {
            name: spec::BUFFERED_OPS_PER_S.to_string(),
            value: blocks.max,
            detail: vec![("p50", blocks.p50), ("samples", blocks.n as f64)],
        });
        metrics.push(Reported {
            name: spec::SETUP_S.to_string(),
            value: median(&setup_s),
            detail: vec![("samples", setup_s.len() as f64)],
        });
        metrics.push(Reported::plain(spec::PEAK_RSS_MB, rss));
    }

    let report = Report {
        workload,
        metrics,
        tally,
    };
    report.print(args);
    if let Some(path) = &args.out {
        std::fs::write(path, report.flat(args).write())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

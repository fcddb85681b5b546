//! `ledger` — the repository's benchmark. Five workloads, three backend
//! arms per op, six end-to-end metrics, per-layer probes and a traced run;
//! `benchmark/README.md` has the tables and the reasons.
//!
//! ```text
//! ledger run --workload W --seed S --seconds T --trace 0|1 [--out F]   one workload, one process
//! ledger run [--seed S] [--seconds T] [--out F]                        all five, untraced then traced
//! ledger compare A.json B.json
//! ledger manifest                                                      the text of BENCHMARK.json
//! ```

mod compare;
mod flat;
mod probes;
mod run;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use flat::Flat;
use run::{RunArgs, OUT_DIR};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use workloads::Scale;

/// The system allocator with two counters that `alloc_counted` switches
/// on: one relaxed flag check per call when off.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters touch no
// memory the allocator manages. `alloc_zeroed` and `realloc` are forwarded
// as themselves so that zeroed pages stay lazily mapped and growth stays in
// place, as they would without this wrapper.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocation calls and bytes requested
/// meanwhile, by every thread of the process.
pub fn alloc_counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    COUNTING.store(true, Relaxed);
    f();
    COUNTING.store(false, Relaxed);
    (
        ALLOC_CALLS.load(Relaxed) - before.0,
        ALLOC_BYTES.load(Relaxed) - before.1,
    )
}

/// `--key value` pairs and bare flags after the subcommand.
struct Options(Vec<String>);

impl Options {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn run_args(o: &Options) -> Result<RunArgs, String> {
    let trace = match o.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let mut host = Vec::new();
    for (flag, key) in [("--git-sha", "git_sha"), ("--rustc", "rustc")] {
        host.push((
            key.to_string(),
            o.value(flag).unwrap_or("unknown").to_string(),
        ));
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    host.push(("host.cpu".to_string(), cpu));
    Ok(RunArgs {
        workload: o.value("--workload").unwrap_or_default().to_string(),
        seed: o.parsed("--seed", 42)?,
        seconds: o.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        trace,
        out: o.value("--out").map(PathBuf::from),
        trace_dir: Some(PathBuf::from(OUT_DIR)),
        scale: if o.flag("--smoke") {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        host,
    })
}

/// All five workloads, each as its own process, one after the other:
/// untraced then traced. Their part files merge into one result file.
fn run_all(o: &Options, args: &RunArgs) -> Result<bool, String> {
    run::refuse_env()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let start = Instant::now();
    let mut merged = run::header(args);
    let mut all_ok = true;
    for (workload, _) in spec::WORKLOADS {
        for trace in ["0", "1"] {
            let part = PathBuf::from(OUT_DIR).join(format!("part.{workload}.{trace}.json"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", workload, "--trace", trace])
                .arg("--out")
                .arg(&part);
            cmd.args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            if o.flag("--smoke") {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let flat = Flat::read(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            // A part repeats the header; only its workload's keys are new.
            merged
                .0
                .extend(flat.0.into_iter().filter(|(k, _)| k.starts_with(workload)));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    merged.num("total_wall_s", wall);
    // This change defines the benchmark; it claims no gain.
    merged.0.push(("claim".to_string(), flat::Value::Null));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join(format!("ledger.seed-{}.json", args.seed)));
    std::fs::write(&out, merged.write()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "ledger: wrote {}; total wall time {wall:.1} s",
        out.display()
    );
    Ok(all_ok)
}

fn read_flat(path: &str) -> Result<Flat, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Flat::read(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let options = Options(argv.get(2..).unwrap_or_default().to_vec());
    match argv.get(1).map(String::as_str) {
        Some("run") => {
            let args = run_args(&options)?;
            if args.workload.is_empty() {
                return run_all(&options, &args);
            }
            let report = run::run_workload(&args)?;
            // The driver reads the last line of standard output.
            println!("{}", report.contract_line());
            Ok(report.tally.failed == 0)
        }
        Some("compare") => match &options.0[..] {
            [a, b] => {
                let (table, acceptable) = compare::compare(&read_flat(a)?, &read_flat(b)?);
                print!("{table}");
                Ok(acceptable)
            }
            _ => Err("usage: ledger compare A.json B.json".to_string()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        _ => Err("usage: ledger run|compare|manifest (see benchmark/README.md)".to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

//! # rfa-bench — the paper's evaluation, regenerated
//!
//! One bench target per table and figure of the paper (§VI), each printing
//! the same rows/series the paper reports and writing CSV into `results/`.
//! See `EXPERIMENTS.md` at the workspace root for the experiment index and
//! the paper-vs-measured record.
//!
//! | target                | paper artifact                          |
//! |-----------------------|-----------------------------------------|
//! | `intro_pagerank`      | §I PageRank rank-swap observation       |
//! | `fig4_hashagg_types`  | Figure 4                                |
//! | `table2_accuracy`     | Table II                                |
//! | `fig6_chunked_rsum`   | Figure 6                                |
//! | `fig7_unbuffered`     | Figure 7                                |
//! | `fig8_buffer_size`    | Figure 8 (a, b, c)                      |
//! | `fig9_partition_depth`| Figure 9                                |
//! | `fig10_buffered`      | Figure 10                               |
//! | `table3_geomean`      | Table III                               |
//! | `table4_tpch_q1`      | Table IV                                |
//! | `fig11_distinct`      | Figure 11 (Appendix A)                  |
//! | `fig12_buffer_size_d1`| Figure 12 (Appendix B)                  |
//! | `fig9_compression`    | (Q1/Q6 over Dict/RLE vs plain columns)  |
//! | `ablation_design`     | (design-choice ablations: hashing, fan-out) |
//! | `criterion_micro`     | (criterion micro-benchmarks)            |
//! | `server_load`         | (query service under concurrent load)   |
//!
//! ## Scaling
//!
//! The paper's machine sums `n = 2^30` rows on 8 Haswell cores; default
//! runs here are laptop-sized. Environment knobs (parsed by
//! [`rfa_core::knob`]: empty means the default, garbage panics with the
//! knob's error):
//!
//! * `RFA_N=<num>` — input size (rows); default `2^20`.
//! * `RFA_FULL=1` — paper-scale `n = 2^30` (needs ~8+ GiB and patience).
//! * `RFA_QUICK=1` — smoke-test scale `n = 2^16`.
//! * `RFA_REPS=<num>` — timing repetitions (default 3, min is reported).
//! * `RFA_THREADS=<num>` — threads a parallel call of the rayon shim may
//!   use in the parallel panels (default: `available_parallelism`).
//!
//! The two flags take `1`/`true`/`yes` or `0`/`false`/`no`.

use rfa_core::knob::{parse_knob, KnobError};
use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input-size and repetition configuration, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Number of input rows `n`.
    pub n: usize,
    /// Timing repetitions; the minimum is reported (standard practice for
    /// CPU-bound microbenchmarks: the minimum is the least-noisy sample).
    pub reps: usize,
}

impl BenchConfig {
    /// Reads `RFA_N`, `RFA_FULL`, `RFA_QUICK` and `RFA_REPS`, panicking
    /// with the [`KnobError`] text on a value that does not parse.
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).unwrap_or_default();
        Self::parse(
            &var("RFA_N"),
            &var("RFA_FULL"),
            &var("RFA_QUICK"),
            &var("RFA_REPS"),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The knob values as strings, an empty one meaning unset. `RFA_N`
    /// wins over `RFA_FULL`, which wins over `RFA_QUICK`.
    fn parse(n: &str, full: &str, quick: &str, reps: &str) -> Result<Self, KnobError> {
        const POSITIVE: &str = "an integer >= 1";
        const FLAG: &str = "1, true, yes, 0, false or no";
        let positive = |s: &str| s.parse::<usize>().ok().filter(|&v| v >= 1);
        let flag = |s: &str| match s {
            "1" | "true" | "yes" => Some(true),
            "0" | "false" | "no" => Some(false),
            _ => None,
        };
        let n = parse_knob("RFA_N", POSITIVE, n, positive)?;
        let full = parse_knob("RFA_FULL", FLAG, full, flag)?.unwrap_or(false);
        let quick = parse_knob("RFA_QUICK", FLAG, quick, flag)?.unwrap_or(false);
        let reps = parse_knob("RFA_REPS", POSITIVE, reps, positive)?.unwrap_or(3);
        let n = n.unwrap_or(match (full, quick) {
            (true, _) => 1 << 30,
            (false, true) => 1 << 16,
            (false, false) => 1 << 20,
        });
        Ok(BenchConfig { n, reps })
    }

    /// Largest group-count exponent to sweep (paper sweeps to `log2 n`).
    pub fn max_group_exp(&self) -> u32 {
        self.n.trailing_zeros().max(4)
    }
}

/// Times `f` (after one warm-up run) and returns the minimum duration over
/// the configured repetitions.
pub fn time_min<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    f(); // warm-up: page in data, JIT branch predictors, etc.
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// Wall-clock time per element in nanoseconds. For single-threaded runs
/// this is the paper's "CPU time per element" (§VI-A: `T · P / n` with
/// `P = 1`); for pool runs it is wall clock, so serial ÷ parallel reads
/// directly as speedup.
pub fn ns_per_elem(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

/// A result table that renders aligned text (paper-style) and writes CSV.
pub struct ResultTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.header);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes the table as `results/<id>.csv` (relative to the workspace
    /// root when run via `cargo bench`).
    pub fn write_csv(&self, id: &str) {
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_err() {
            return; // benches must not fail on read-only filesystems
        }
        let path = dir.join(format!("{id}.csv"));
        let Ok(mut f) = fs::File::create(&path) else {
            return;
        };
        let _ = writeln!(f, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(f, "{}", row.join(","));
        }
        println!("  [csv] {}", path.display());
    }
}

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Formats a float with 2 decimals (table cells).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float in scientific notation with one decimal (Table II
/// style: `1.7e-10`).
pub fn sci(v: impl Display + Into<f64>) -> String {
    let v: f64 = v.into();
    if v == 0.0 {
        return "0".to_string();
    }
    format!("{v:.1e}")
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Shared measurement drivers for the GROUPBY benches.
pub mod runner {
    use rfa_agg::{partition_and_aggregate, AggFn, GroupByConfig};

    /// Times PARTITIONANDAGGREGATE single-threaded (the paper normalizes
    /// to CPU time per element, so thread count cancels out) and returns
    /// ns/element, including partitioning passes.
    pub fn groupby_ns<F>(
        f: &F,
        keys: &[u32],
        values: &[F::Input],
        depth: u32,
        groups_hint: usize,
        reps: usize,
    ) -> f64
    where
        F: AggFn,
        F::Output: Send,
    {
        groupby_ns_threads(f, keys, values, depth, groups_hint, reps, 1)
    }

    /// Times PARTITIONANDAGGREGATE with the given worker-thread budget
    /// (above 1, `rfa-agg`'s morsels run on the rayon shim's fork-join) and returns
    /// *wall-clock* ns/element — so serial ÷ parallel is the speedup.
    pub fn groupby_ns_threads<F>(
        f: &F,
        keys: &[u32],
        values: &[F::Input],
        depth: u32,
        groups_hint: usize,
        reps: usize,
        threads: usize,
    ) -> f64
    where
        F: AggFn,
        F::Output: Send,
    {
        let cfg = GroupByConfig {
            depth,
            groups_hint,
            threads,
            ..Default::default()
        };
        let d = crate::time_min(reps, || {
            std::hint::black_box(partition_and_aggregate(f, keys, values, &cfg));
        });
        crate::ns_per_elem(d, keys.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_follow_the_shared_contract() {
        let parse =
            |n, full, quick, reps| BenchConfig::parse(n, full, quick, reps).map(|c| (c.n, c.reps));
        assert_eq!(parse("", "", "", ""), Ok((1 << 20, 3)));
        assert_eq!(parse(" ", "", "", " "), Ok((1 << 20, 3)));
        for yes in ["1", "true", "yes"] {
            assert_eq!(parse("", "", yes, ""), Ok((1 << 16, 3)));
            assert_eq!(parse("", yes, yes, ""), Ok((1 << 30, 3)));
        }
        assert_eq!(parse("", "no", "0", ""), Ok((1 << 20, 3)));
        assert_eq!(parse("4096", "1", "", "5"), Ok((4096, 5)));
        let err = parse("", "", "on", "").unwrap_err();
        assert_eq!(err.var, "RFA_QUICK");
        assert_eq!(
            err.to_string(),
            "RFA_QUICK must be 1, true, yes, 0, false or no, got \"on\""
        );
        assert_eq!(parse("", "True", "", "").unwrap_err().var, "RFA_FULL");
        assert_eq!(parse("2^16", "", "", "").unwrap_err().var, "RFA_N");
        assert_eq!(parse("", "", "", "0").unwrap_err().var, "RFA_REPS");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ns_per_elem_math() {
        let d = Duration::from_micros(1000); // 1 ms
        assert!((ns_per_elem(d, 1_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_rendering_does_not_panic() {
        let mut t = ResultTable::new("test", &["a", "bb"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.print();
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.000_000_17), "1.7e-7");
        assert_eq!(sci(1234.0), "1.2e3");
        assert_eq!(sci(0.0), "0");
    }
}

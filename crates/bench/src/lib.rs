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
//! | `ablation_design`     | (design-choice ablations: hashing, fan-out) |
//! | `operators_compare`   | (hash vs shared vs adaptive vs part+agg) |
//! | `criterion_micro`     | (criterion micro-benchmarks)            |
//!
//! ## Scaling
//!
//! The paper's machine sums `n = 2^30` rows on 8 Haswell cores; default
//! runs here are laptop-sized. Environment knobs:
//!
//! * `RFA_N=<num>` — input size (rows); default `2^20`.
//! * `RFA_FULL=1` — paper-scale `n = 2^30` (needs ~8+ GiB and patience).
//! * `RFA_QUICK=1` — smoke-test scale `n = 2^16`.
//! * `RFA_REPS=<num>` — timing repetitions (default 3, min is reported).
//! * `RFA_THREADS=<num>` — worker count of the global pool used by the
//!   parallel panels (default: `available_parallelism`).

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
    pub fn from_env() -> Self {
        let n = if let Ok(v) = std::env::var("RFA_N") {
            v.parse().expect("RFA_N must be an integer")
        } else if env_flag("RFA_FULL") {
            1 << 30
        } else if env_flag("RFA_QUICK") {
            1 << 16
        } else {
            1 << 20
        };
        let reps = std::env::var("RFA_REPS")
            .ok()
            .map(|v| v.parse().expect("RFA_REPS must be an integer"))
            .unwrap_or(3)
            .max(1);
        BenchConfig { n, reps }
    }

    /// Largest group-count exponent to sweep (paper sweeps to `log2 n`).
    pub fn max_group_exp(&self) -> u32 {
        self.n.trailing_zeros().max(4)
    }
}

fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
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

/// Times a *set* of alternative arms under the same noise environment:
/// every arm is warmed once, then the arms run round-robin `reps` times
/// and each keeps its minimum.
///
/// Back-to-back [`time_min`] calls hand each arm a *different* slice of
/// machine noise — frequency ramps, interrupts, a neighbouring tenant —
/// and at smoke scale (tens of microseconds per iteration) that slice,
/// not the code, can order the arms. Round-robin interleaving samples
/// every arm across the same windows, so ratios between the returned
/// minima are meaningful even on a noisy single-core host. Use this
/// whenever the reported number is a *ratio of arms* rather than an
/// absolute.
pub fn time_min_set<const K: usize>(reps: usize, mut arms: [&mut dyn FnMut(); K]) -> [Duration; K] {
    for f in arms.iter_mut() {
        f(); // warm-up: page in data, warm branch predictors and caches
    }
    let mut best = [Duration::MAX; K];
    for _ in 0..reps {
        for (b, f) in best.iter_mut().zip(arms.iter_mut()) {
            let t = Instant::now();
            f();
            *b = (*b).min(t.elapsed());
        }
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

/// The hash-grouping entry of the smoke artifact: the same fused
/// plan-layer aggregation grouped through the hash arm
/// (`AggHashTable::upsert_batch` group-id assignment) vs dense dictionary
/// ids, serial ns/elem.
#[derive(Clone, Copy, Debug)]
pub struct HashGroupSmoke {
    /// Which query/config was measured.
    pub query: &'static str,
    /// Distinct group keys in the input.
    pub groups: usize,
    pub hash_ns_per_elem: f64,
    pub dense_ns_per_elem: f64,
    /// The same aggregation over a sparse, identity-hostile key domain
    /// (keys strided far apart) probed with `HashKind::Multiplicative` —
    /// the non-dense-domain configuration the paper's §VI-A "real hash
    /// function" remark covers.
    pub sparse_ns_per_elem: f64,
}

/// The SQL-frontend entry of the smoke artifact: the same query executed
/// from its SQL text (parse → resolve → lower → execute, every
/// iteration) vs through the prebuilt plan. The gap is the whole
/// frontend overhead; the two arms are cross-asserted bit-identical.
#[derive(Clone, Copy, Debug)]
pub struct SqlSmoke {
    /// Which query was measured (e.g. "tpch_q6 serial repro<d,4> buffered").
    pub query: &'static str,
    pub sql_ns_per_elem: f64,
    /// The same SQL text through a warm [`rfa_engine::PlanCache`]: the
    /// per-iteration cost collapses to one cache lookup + plan execution,
    /// so this should sit within a few percent of `builder_ns_per_elem`.
    pub cached_ns_per_elem: f64,
    pub builder_ns_per_elem: f64,
}

/// The SIMD-dispatch entry of the smoke artifact: the summation kernel
/// and the Q6 fused scan under forced-scalar vs. runtime-dispatched
/// (AVX2 where supported) execution. All arms are bit-identical; the
/// ratios are pure performance.
#[derive(Clone, Copy, Debug)]
pub struct SimdSmoke {
    /// The dispatch level the auto policy resolved to ("scalar"/"avx2").
    pub level: &'static str,
    /// Scalar extraction cascade (`ReproSum::add` per value), ns/elem.
    pub add_slice_cascade_ns_per_elem: f64,
    /// Portable lane-array block kernel (autovectorized), ns/elem.
    pub add_slice_portable_ns_per_elem: f64,
    /// Dispatched block kernel (explicit AVX2 when active), ns/elem.
    pub add_slice_dispatched_ns_per_elem: f64,
    /// Q6 fused scan, forced `RFA_SIMD=scalar` equivalent, ns/elem.
    pub q6_scalar_ns_per_elem: f64,
    /// Q6 fused scan under the dispatched kernels, ns/elem.
    pub q6_dispatched_ns_per_elem: f64,
}

/// Everything one `bench_smoke.json` records: serial vs pool wall-clock
/// ns/elem for a representative configuration, plus the optional
/// hash-group, SQL-frontend and SIMD comparisons.
#[derive(Clone, Debug)]
pub struct BenchSmoke<'a> {
    pub bench: &'a str,
    pub config: &'a str,
    pub n: usize,
    pub pool_threads: usize,
    pub serial_ns_per_elem: f64,
    pub parallel_ns_per_elem: f64,
    pub hash_group: Option<HashGroupSmoke>,
    pub sql: Option<SqlSmoke>,
    pub simd: Option<SimdSmoke>,
}

/// `(key, value text)` of every member of the top-level JSON object in
/// `json`, in order. Text that is not an object (no file yet, a torn
/// write) has no members.
fn top_level_members(json: &str) -> Vec<(String, String)> {
    let mut members = Vec::new();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let mut key_start = 0;
    let mut key: Option<&str> = None;
    let mut value_start: Option<usize> = None;
    for (i, c) in json.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => {
                    in_str = false;
                    if depth == 1 && key.is_none() {
                        key = Some(&json[key_start + 1..i]);
                    }
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                key_start = i;
            }
            ':' if depth == 1 && value_start.is_none() => value_start = Some(i + 1),
            '{' | '[' => depth += 1,
            '}' | ']' | ',' => {
                if c != ',' {
                    depth = depth.saturating_sub(1);
                }
                if (c == ',' && depth == 1) || (c == '}' && depth == 0) {
                    if let (Some(k), Some(v)) = (key.take(), value_start.take()) {
                        members.push((k.to_string(), json[v..i].trim().to_string()));
                    }
                }
            }
            _ => {}
        }
    }
    members
}

/// `existing` with its top-level member `key` replaced by (or, if absent,
/// extended with) the JSON object `body`; every other member keeps its
/// text and its place.
fn merge_smoke_text(existing: &str, key: &str, body: &str) -> String {
    let mut members = top_level_members(existing);
    match members.iter_mut().find(|(k, _)| k == key) {
        Some(member) => member.1 = body.to_string(),
        None => members.push((key.to_string(), body.to_string())),
    }
    let members: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// Records one bench's object under its own top-level `key` of
/// `results/bench_smoke.json` — the CI smoke artifact. A bench replaces
/// only its own object, so the artifact is the same whichever order the
/// benches ran in.
pub fn merge_smoke_object(key: &str, body: &str) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return; // benches must not fail on read-only filesystems
    }
    let path = dir.join("bench_smoke.json");
    let existing = fs::read_to_string(&path).unwrap_or_default();
    if fs::write(&path, merge_smoke_text(&existing, key, body)).is_ok() {
        println!("  [json] {}", path.display());
    }
}

/// Writes the `fig9` object of the smoke artifact. The acceptance shape:
/// `speedup` ≥ ~1 on multicore hosts, `hash_group.hash_over_dense` a
/// small constant (the probe cost), and `sql.sql_over_builder` ≈ 1
/// (parse/lower overhead is a per-query constant, invisible at any
/// realistic scan size).
pub fn write_bench_smoke(smoke: &BenchSmoke) {
    let BenchSmoke {
        bench,
        config,
        n,
        pool_threads,
        serial_ns_per_elem,
        parallel_ns_per_elem,
        hash_group,
        sql,
        simd,
    } = *smoke;
    let speedup = if parallel_ns_per_elem > 0.0 {
        serial_ns_per_elem / parallel_ns_per_elem
    } else {
        0.0
    };
    let hash_json = match hash_group {
        None => String::new(),
        Some(h) => {
            let ratio = if h.dense_ns_per_elem > 0.0 {
                h.hash_ns_per_elem / h.dense_ns_per_elem
            } else {
                0.0
            };
            let sparse_ratio = if h.dense_ns_per_elem > 0.0 {
                h.sparse_ns_per_elem / h.dense_ns_per_elem
            } else {
                0.0
            };
            format!(
                ",\n    \"hash_group\": {{\n      \"query\": \"{}\",\n      \
                 \"groups\": {},\n      \
                 \"hash_ns_per_elem\": {:.3},\n      \
                 \"dense_ns_per_elem\": {:.3},\n      \
                 \"hash_over_dense\": {ratio:.3},\n      \
                 \"sparse_ns_per_elem\": {:.3},\n      \
                 \"sparse_over_dense\": {sparse_ratio:.3}\n    }}",
                h.query, h.groups, h.hash_ns_per_elem, h.dense_ns_per_elem, h.sparse_ns_per_elem
            )
        }
    };
    let sql_json = match sql {
        None => String::new(),
        Some(s) => {
            let ratio = if s.builder_ns_per_elem > 0.0 {
                s.sql_ns_per_elem / s.builder_ns_per_elem
            } else {
                0.0
            };
            let cached_ratio = if s.builder_ns_per_elem > 0.0 {
                s.cached_ns_per_elem / s.builder_ns_per_elem
            } else {
                0.0
            };
            format!(
                ",\n    \"sql\": {{\n      \"query\": \"{}\",\n      \
                 \"sql_ns_per_elem\": {:.3},\n      \
                 \"cached_ns_per_elem\": {:.3},\n      \
                 \"builder_ns_per_elem\": {:.3},\n      \
                 \"sql_over_builder\": {ratio:.3},\n      \
                 \"cached_over_builder\": {cached_ratio:.3}\n    }}",
                s.query, s.sql_ns_per_elem, s.cached_ns_per_elem, s.builder_ns_per_elem
            )
        }
    };
    let simd_json = match simd {
        None => String::new(),
        Some(s) => {
            let add_speedup = if s.add_slice_dispatched_ns_per_elem > 0.0 {
                s.add_slice_cascade_ns_per_elem / s.add_slice_dispatched_ns_per_elem
            } else {
                0.0
            };
            let q6_speedup = if s.q6_dispatched_ns_per_elem > 0.0 {
                s.q6_scalar_ns_per_elem / s.q6_dispatched_ns_per_elem
            } else {
                0.0
            };
            format!(
                ",\n    \"simd\": {{\n      \"level\": \"{}\",\n      \
                 \"add_slice_cascade_ns_per_elem\": {:.3},\n      \
                 \"add_slice_portable_ns_per_elem\": {:.3},\n      \
                 \"add_slice_dispatched_ns_per_elem\": {:.3},\n      \
                 \"add_slice_dispatch_speedup\": {add_speedup:.3},\n      \
                 \"q6_scalar_ns_per_elem\": {:.3},\n      \
                 \"q6_dispatched_ns_per_elem\": {:.3},\n      \
                 \"q6_dispatch_speedup\": {q6_speedup:.3}\n    }}",
                s.level,
                s.add_slice_cascade_ns_per_elem,
                s.add_slice_portable_ns_per_elem,
                s.add_slice_dispatched_ns_per_elem,
                s.q6_scalar_ns_per_elem,
                s.q6_dispatched_ns_per_elem
            )
        }
    };
    merge_smoke_object(
        "fig9",
        &format!(
            "{{\n    \"bench\": \"{bench}\",\n    \"config\": \"{config}\",\n    \"n\": {n},\n    \
             \"pool_threads\": {pool_threads},\n    \
             \"serial_ns_per_elem\": {serial_ns_per_elem:.3},\n    \
             \"parallel_ns_per_elem\": {parallel_ns_per_elem:.3},\n    \"speedup\": {speedup:.3}\
             {hash_json}{sql_json}{simd_json}\n  }}"
        ),
    );
}

/// The compressed-scan entry of the smoke artifact: TPC-H Q1 and Q6
/// over dictionary/RLE-encoded columns vs the same (physically
/// identically ordered) plain columns, serial ns/elem. The bench
/// cross-asserts the two arms bit-identical before this is written.
#[derive(Clone, Copy, Debug)]
pub struct CompressionSmoke {
    /// Table rows scanned.
    pub n: usize,
    /// Which storage the Q1 encoded arm used (e.g. "flags Rle, rest Dict").
    pub q1_encodings: &'static str,
    pub q1_plain_ns_per_elem: f64,
    pub q1_encoded_ns_per_elem: f64,
    /// Which storage the Q6 encoded arm used.
    pub q6_encodings: &'static str,
    pub q6_plain_ns_per_elem: f64,
    pub q6_encoded_ns_per_elem: f64,
    /// Scan-grid batches the encoded Q6 arm ran its filter on / never
    /// touched: the RLE shipdate band is decided at bind time, so only the
    /// batches overlapping it are visited.
    pub q6_batches_visited: u64,
    pub q6_batches_pruned: u64,
    /// Storage of the agg-pushdown arm's SUM input.
    pub agg_encodings: &'static str,
    /// Unfiltered SUM+COUNT over the run-sorted RLE input (one exact k·v
    /// deposit per run) vs plain.
    pub agg_rle_plain_ns_per_elem: f64,
    pub agg_rle_encoded_ns_per_elem: f64,
}

/// Writes the `compression` object of the smoke artifact.
pub fn write_compression_smoke(smoke: &CompressionSmoke) {
    let CompressionSmoke {
        n,
        q1_encodings,
        q1_plain_ns_per_elem,
        q1_encoded_ns_per_elem,
        q6_encodings,
        q6_plain_ns_per_elem,
        q6_encoded_ns_per_elem,
        q6_batches_visited,
        q6_batches_pruned,
        agg_encodings,
        agg_rle_plain_ns_per_elem,
        agg_rle_encoded_ns_per_elem,
    } = *smoke;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let q1_ratio = ratio(q1_encoded_ns_per_elem, q1_plain_ns_per_elem);
    let q6_ratio = ratio(q6_encoded_ns_per_elem, q6_plain_ns_per_elem);
    // The agg arm reports plain/encoded — the *speedup* of the algebraic
    // deposit path.
    let agg_rle_speedup = ratio(agg_rle_plain_ns_per_elem, agg_rle_encoded_ns_per_elem);
    merge_smoke_object(
        "compression",
        &format!(
            "{{\n    \"n\": {n},\n    \
             \"q1_encodings\": \"{q1_encodings}\",\n    \
             \"q1_plain_ns_per_elem\": {q1_plain_ns_per_elem:.3},\n    \
             \"q1_encoded_ns_per_elem\": {q1_encoded_ns_per_elem:.3},\n    \
             \"q1_encoded_over_plain\": {q1_ratio:.3},\n    \
             \"q6_encodings\": \"{q6_encodings}\",\n    \
             \"q6_plain_ns_per_elem\": {q6_plain_ns_per_elem:.3},\n    \
             \"q6_encoded_ns_per_elem\": {q6_encoded_ns_per_elem:.3},\n    \
             \"q6_encoded_over_plain\": {q6_ratio:.3},\n    \
             \"q6_batches_visited\": {q6_batches_visited},\n    \
             \"q6_batches_pruned\": {q6_batches_pruned},\n    \
             \"agg_encodings\": \"{agg_encodings}\",\n    \
             \"agg_rle_plain_ns_per_elem\": {agg_rle_plain_ns_per_elem:.3},\n    \
             \"agg_rle_encoded_ns_per_elem\": {agg_rle_encoded_ns_per_elem:.3},\n    \
             \"agg_rle_speedup\": {agg_rle_speedup:.3},\n    \
             \"bit_identical\": true\n  }}"
        ),
    );
}

/// The query-service entry of the smoke artifact: a load-generator run
/// of N concurrent client sessions against `rfa_server`, mixed
/// Q1/Q6/Q15, with cross-concurrency bit-identity asserted by the bench
/// before this record is written.
#[derive(Clone, Copy, Debug)]
pub struct ServerSmoke {
    /// Table rows served.
    pub n: usize,
    /// Concurrent client sessions in the loaded arm.
    pub clients: usize,
    /// Queries each session issued.
    pub queries_per_client: usize,
    /// Completed queries per second, single session.
    pub qps_1_client: f64,
    /// Completed queries per second, `clients` sessions.
    pub qps_loaded: f64,
    /// Active fault menu ("none" outside the chaos leg).
    pub faults: &'static str,
    /// Queries that completed (both arms).
    pub completed: u64,
    /// Typed `Overloaded` rejections.
    pub rejected_overload: u64,
    /// Typed deadline expiries.
    pub deadline_expired: u64,
    /// Worker panics isolated to their query.
    pub panics_isolated: u64,
}

/// Writes the `server` object of the smoke artifact.
pub fn write_server_smoke(smoke: &ServerSmoke) {
    let ServerSmoke {
        n,
        clients,
        queries_per_client,
        qps_1_client,
        qps_loaded,
        faults,
        completed,
        rejected_overload,
        deadline_expired,
        panics_isolated,
    } = *smoke;
    let scaleup = if qps_1_client > 0.0 {
        qps_loaded / qps_1_client
    } else {
        0.0
    };
    merge_smoke_object(
        "server",
        &format!(
            "{{\n    \"n\": {n},\n    \"clients\": {clients},\n    \
             \"queries_per_client\": {queries_per_client},\n    \
             \"qps_1_client\": {qps_1_client:.1},\n    \
             \"qps_loaded\": {qps_loaded:.1},\n    \
             \"client_scaleup\": {scaleup:.3},\n    \
             \"faults\": \"{faults}\",\n    \
             \"completed\": {completed},\n    \
             \"rejected_overload\": {rejected_overload},\n    \
             \"deadline_expired\": {deadline_expired},\n    \
             \"panics_isolated\": {panics_isolated},\n    \
             \"bit_identical\": true\n  }}"
        ),
    );
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
    /// (above 1, morsels run on the global work-stealing pool) and returns
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

    /// ROADMAP finding (b): whichever order fig9, the compression panel
    /// and the load generator run in — and however often one of them is
    /// re-run — each finds its own object replaced and the other two
    /// byte-for-byte intact.
    #[test]
    fn smoke_objects_survive_in_either_run_order() {
        let objects = [
            (
                "fig9",
                "{\n    \"n\": 1,\n    \"scan\": {\n      \"q\": \"a, \\\"b\\\" }\"\n    }\n  }",
            ),
            ("compression", "{\n    \"q6_batches_pruned\": [7, 8]\n  }"),
            ("server", "{\n    \"faults\": \"none\"\n  }"),
        ];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]] {
            let mut text = String::new();
            for i in order {
                // A stale object of the same bench is replaced, not kept.
                text = merge_smoke_text(&text, objects[i].0, "{ \"stale\": true }");
                text = merge_smoke_text(&text, objects[i].0, objects[i].1);
            }
            let members = top_level_members(&text);
            assert_eq!(members.len(), 3, "{order:?}: {text}");
            for (key, body) in objects {
                let found = members.iter().find(|(k, _)| k == key);
                assert_eq!(found.map(|m| m.1.as_str()), Some(body), "{order:?}");
            }
            assert!(!text.contains("stale"));
        }
        // A file that is not an object (absent, torn) starts afresh.
        assert_eq!(
            merge_smoke_text("{ \"server\": {", "fig9", "{}"),
            "{\n  \"fig9\": {}\n}\n"
        );
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

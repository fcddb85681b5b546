//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! `ledger manifest` verbatim (a test keeps the two identical), so the
//! names a run emits and the names the driver expects cannot drift apart.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

pub const Q1_LOWCARD: &str = "q1_lowcard";
pub const GROUPBY_HIGHCARD: &str = "groupby_highcard";
pub const Q6_SCAN: &str = "q6_scan";
pub const ENCODED_MIX: &str = "encoded_mix";
pub const SERVICE_MIX: &str = "service_mix";

/// `(name, why)` — why each workload is in the set; the README has the
/// cache arithmetic behind these one-liners.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        Q1_LOWCARD,
        "TPC-H Q1 over 2^21 plain rows: 4 groups x 5 SUM states stay cache-resident, so per-row grouped deposits are the repro-only cost; the paper's headline ratio",
    ),
    (
        GROUPBY_HIGHCARD,
        "SUM(v) GROUP BY key at 2^14 groups: hash group ids plus state-array deposits are everything; buffered state (128 MiB) leaves the cache, unbuffered (1 MiB) fits",
    ),
    (
        Q6_SCAN,
        "TPC-H Q6, 16 seeded parameter variants back to back: selection vectors, typed compares and expression eval are the time; bypasses every SUM-state change",
    ),
    (
        ENCODED_MIX,
        "Q1 + 16 Q6 variants on the shipdate-sorted, auto-encoded table (RLE, Dict, Dict16): run-blocked predicates and k*v deposits, the layers plain columns never reach",
    ),
    (
        SERVICE_MIX,
        "Q1 -> Q6 -> Q15 cycles over the wire, 2 connections against a 2-worker server on 2^18 rows: SQL plan cache, codec, admission queue and core contention are visible",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. One bound per metric for all five
    /// workloads, so each is sized by its noisiest workload; the README
    /// records the run-to-run spreads behind them.
    pub bound: f64,
}

pub const BUFFERED_MS_MIN: &str = "buffered_ms_min";
pub const UNBUFFERED_MS_MIN: &str = "unbuffered_ms_min";
pub const DOUBLE_MS_MIN: &str = "double_ms_min";
pub const BUFFERED_OPS_PER_S: &str = "buffered_ops_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: BUFFERED_MS_MIN,
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: UNBUFFERED_MS_MIN,
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: DOUBLE_MS_MIN,
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: BUFFERED_OPS_PER_S,
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
];

/// `(name, unit, better)`. The README's per-layer table says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: [(&str, &str, Better); 60] = [
    ("core.add_slice_ns_per_elem", "ns", Lower),
    ("core.add_scalar_ns_per_elem", "ns", Lower),
    ("core.buffer_push_ns_per_elem", "ns", Lower),
    ("core.merge_ns_per_call", "ns", Lower),
    ("core.add_scaled_ns_per_call", "ns", Lower),
    ("agg.hash_upsert_ns_per_key", "ns", Lower),
    ("agg.hash_aggregate_ns_per_elem", "ns", Lower),
    ("agg.partition_agg_ns_per_elem", "ns", Lower),
    ("engine.sum_op.buffered_ns_per_row_g4", "ns", Lower),
    ("engine.sum_op.unbuffered_ns_per_row_g4", "ns", Lower),
    ("engine.sum_op.double_ns_per_row_g4", "ns", Lower),
    ("engine.sum_op.buffered_ns_per_row_g16384", "ns", Lower),
    ("engine.sum_op.unbuffered_ns_per_row_g16384", "ns", Lower),
    ("engine.sum_op.double_ns_per_row_g16384", "ns", Lower),
    ("engine.sum_op.buffered_ns_per_row_g65536", "ns", Lower),
    ("engine.sum_op.unbuffered_ns_per_row_g65536", "ns", Lower),
    ("engine.sum_op.double_ns_per_row_g65536", "ns", Lower),
    ("engine.sum_op.single_ns_per_row", "ns", Lower),
    ("engine.scan_only_ms_p50", "ms", Lower),
    ("engine.agg_share", "fraction", Lower),
    ("derived.buffered_over_double", "ratio", Lower),
    ("derived.unbuffered_over_double", "ratio", Lower),
    ("derived.buffered_over_unbuffered", "ratio", Lower),
    ("engine.par2_ms_p50", "ms", Lower),
    ("engine.par2_speedup", "ratio", Higher),
    ("engine.exec_ms_tail", "ms", Lower),
    ("engine.exec_ms_max", "ms", Lower),
    ("engine.alloc_mb_per_op", "MiB", Lower),
    ("engine.alloc_calls_per_op", "count", Lower),
    ("engine.rows_selected_per_op", "count", Lower),
    ("engine.groups_out", "count", Lower),
    ("engine.column.encode_auto_s", "s", Lower),
    ("engine.column.q1_ms_p50", "ms", Lower),
    ("engine.column.q6_ms_p50", "ms", Lower),
    ("engine.column.plain_twin_q1_ms_p50", "ms", Lower),
    ("engine.column.plain_twin_q6_ms_p50", "ms", Lower),
    ("engine.column.dict_unsorted_q1_ms_p50", "ms", Lower),
    ("engine.column.dict_unsorted_q6_ms_p50", "ms", Lower),
    ("engine.sql.parse_us", "us", Lower),
    ("engine.sql.resolve_us", "us", Lower),
    ("engine.sql.cache_hit_us", "us", Lower),
    ("server.protocol.request_codec_us", "us", Lower),
    ("server.protocol.result_codec_us", "us", Lower),
    ("server.protocol.result_bytes_q15", "bytes", Lower),
    ("server.ping_us_p50", "us", Lower),
    ("server.rtt_q1_ms_p50", "ms", Lower),
    ("server.rtt_q6_ms_p50", "ms", Lower),
    ("server.rtt_q15_ms_p50", "ms", Lower),
    ("server.overhead_q6_ms", "ms", Lower),
    ("server.cycle_ms_tail", "ms", Lower),
    ("server.qps_1conn", "1/s", Higher),
    ("server.qps_2conn", "1/s", Higher),
    ("server.accepted", "count", Higher),
    ("server.completed", "count", Higher),
    ("server.rejected_overload", "count", Lower),
    ("server.protocol_errors", "count", Lower),
    ("workloads.generate_s", "s", Lower),
    ("workloads.rows", "count", Higher),
    ("trace.overhead_frac", "fraction", Lower),
    ("trace.self_ms_p50", "ms", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `(unit, better)` of a declared metric, end-to-end or per-layer.
pub fn declared(name: &str) -> Option<(&'static str, Better)> {
    end_to_end(name)
        .map(|m| (m.unit, m.better))
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| (m.1, m.2)))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better.as_str()
                )
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

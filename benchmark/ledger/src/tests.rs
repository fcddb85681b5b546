//! Smoke tests: every code path at a scale that takes seconds, no timing
//! asserted. `cargo test --manifest-path benchmark/ledger/Cargo.toml`.

use crate::compare::{compare, judge, Verdict};
use crate::flat::{Flat, Value};
use crate::run::{arm_order, run_workload, RunArgs};
use crate::spec::{self, Better};
use crate::stats::{summarize, tail_rank};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{scan_only_sql, Scale, ARM_NAMES};
use std::collections::BTreeSet;
use std::time::Instant;

fn smoke(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 42,
        seconds: 0.0,
        trace,
        out: None,
        trace_dir: None,
        scale: Scale::SMOKE,
        host: Vec::new(),
    }
}

fn well_formed(name: &str, max: usize) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= max
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_the_manifest() {
    assert_eq!(
        include_str!("../../../BENCHMARK.json"),
        spec::manifest(),
        "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
    );
}

#[test]
fn declarations_meet_the_contract() {
    let mut names = BTreeSet::new();
    for (name, why) in spec::WORKLOADS {
        assert!(well_formed(name, 64) && names.insert(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
            "{name}: why"
        );
    }
    for m in &spec::END_TO_END {
        assert!(
            well_formed(m.name, 64) && names.insert(m.name),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for (name, _, _) in spec::PER_LAYER {
        assert!(well_formed(name, 64) && names.insert(name), "{name}");
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!(names
        .iter()
        .filter_map(|n| spec::declared(n))
        .all(|(unit, _)| unit_ok(unit)));
    let setup = spec::end_to_end(spec::SETUP_S).expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        spec::END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!((2..=8).contains(&spec::WORKLOADS.len()) && spec::PER_LAYER.len() <= 128);
    assert!(spec::manifest().len() <= 64 << 10);
}

/// All five workloads, untraced and traced, at smoke scale: every declared
/// name comes out exactly once with a finite value, and no op fails — the
/// permutation, thread-count and exact-oracle ops included.
#[test]
fn every_workload_emits_every_declared_metric_once() {
    for (workload, _) in spec::WORKLOADS {
        for trace in [false, true] {
            let report = run_workload(&smoke(workload, trace)).expect(workload);
            assert_eq!(
                report.tally.failed, 0,
                "{workload}: {:?}",
                report.tally.failures
            );
            // Warm-up and timed ops on three arms, plus at least the five
            // permutation / agreement / thread-count verification ops.
            assert!(
                report.tally.attempted >= 3 * 5 + 5,
                "{workload}: {}",
                report.tally.attempted
            );
            let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = if trace {
                spec::PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(emitted, declared, "{workload} trace {trace}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            }
            let line = report.contract_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ") && !line.contains('\n')
            );
            let flat = report.flat(&smoke(workload, trace));
            assert_eq!(Flat::read(&flat.write()), Ok(flat));
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload(&smoke("no_such_workload", false)).is_err());
}

#[test]
fn arm_rotation_visits_every_starting_arm() {
    let starts: BTreeSet<usize> = (0..3).map(|round| arm_order(round)[0]).collect();
    assert_eq!(starts.len(), 3);
    for round in 0..7 {
        let mut arms = arm_order(round);
        arms.sort_unstable();
        assert_eq!(arms, [0, 1, 2], "every round runs every arm once");
    }
}

#[test]
fn tail_never_has_fewer_than_ten_samples_beyond_it() {
    for n in 1..3000 {
        let (pct, idx) = tail_rank(n);
        assert!(idx < n);
        if n < 20 {
            assert_eq!(
                (pct, idx),
                (100.0, n - 1),
                "below 20 samples the maximum stands in"
            );
        } else {
            assert!(
                pct >= 50.0 && n - 1 - idx >= 10,
                "n {n}: p{pct} leaves {}",
                n - 1 - idx
            );
        }
    }
    assert_eq!(tail_rank(10_000).0, 99.9);
    let s = summarize(&(1..=100).map(f64::from).collect::<Vec<_>>());
    assert_eq!(
        (s.min, s.p50, s.max, s.tail_pct, s.tail),
        (1.0, 50.5, 100.0, 90.0, 90.0)
    );
}

#[test]
fn flat_files_round_trip() {
    let mut f = Flat::default();
    f.str("host.cpu", "Intel(R) \"Xeon\" \\ 2.10GHz\n\tx");
    f.num("q1_lowcard.buffered_ms_min", 85.61234567890123);
    f.num("tiny", -1.5e-300);
    f.num("count", 2097152.0);
    f.num("not_a_number", f64::NAN);
    f.0.push(("claim".to_string(), Value::Null));
    let read = Flat::read(&f.write()).expect("own output parses");
    assert_eq!(read, f);
    assert_eq!(read.get("not_a_number"), Some(&Value::Null));
    assert!(Flat::read("{\"a\": 1,}").is_err() && Flat::read("{\"a\" 1}").is_err());
    assert_eq!(Flat::read("{}"), Ok(Flat::default()));
}

fn synthetic(scale: f64) -> Flat {
    let mut f = Flat::default();
    for (w, _) in spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let v = 100.0
                * if m.better == Better::Lower {
                    scale
                } else {
                    1.0 / scale
                };
            f.num(format!("{w}.{}", m.name), v);
            f.num(format!("{w}.{}.p10", m.name), v * 1.01);
        }
    }
    f
}

#[test]
fn compare_applies_direction_bound_and_spread() {
    let a = synthetic(1.0);
    let (table, acceptable) = compare(&a, &a);
    assert!(acceptable, "{table}");
    let rows = spec::WORKLOADS.len() * spec::END_TO_END.len();
    assert_eq!(table.matches(" ok\n").count(), rows, "{table}");

    // 50 % worse in each metric's own direction is past every bound.
    let (table, acceptable) = compare(&a, &synthetic(1.5));
    assert!(!acceptable);
    assert_eq!(table.matches(" worse\n").count(), rows, "{table}");
    // A third better is never a regression.
    assert!(compare(&a, &synthetic(1.0 / 1.5)).1);

    let key = "q1_lowcard.buffered_ms_min";
    let m = spec::end_to_end(spec::BUFFERED_MS_MIN).unwrap();
    let mut noisy = synthetic(1.5);
    for (k, v) in &mut noisy.0 {
        if k == &format!("{key}.p10") {
            *v = Value::Num(200.0);
        }
    }
    assert_eq!(
        judge(&a, &noisy, key, m.better, m.bound),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&a, &Flat::default(), key, m.better, m.bound),
        Verdict::Missing
    );
    assert!(!compare(&a, &Flat::default()).1);
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let mut t = Tracer::new(Instant::now(), 8);
    assert_eq!(
        t.begin("op", NO_PARENT, 1, 0),
        NO_PARENT,
        "off: nothing recorded"
    );
    t.on = true;
    let op = t.begin("op", NO_PARENT, 1, 2);
    let child = t.begin("engine.execute", op, 1, 2);
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.end(child);
    t.end(op);
    let mut other = Tracer::new(t.t0(), 2);
    other.on = true;
    let op2 = other.begin("op", NO_PARENT, 2, 0);
    let leg = other.begin("server.query.q1", op2, 2, 0);
    other.end(leg);
    other.end(op2);
    t.absorb(other);
    assert_eq!(t.spans.len(), 4);
    assert_eq!(t.spans[3].parent, 2, "absorbed parent links are re-based");
    let self_ms = t.self_ms("op");
    assert_eq!(self_ms.len(), 2);
    let op_ms = (t.spans[0].end_ns - t.spans[0].start_ns) as f64 / 1e6;
    assert!(
        op_ms >= 2.0 && self_ms[0] < op_ms - 1.9,
        "self {} of {op_ms}",
        self_ms[0]
    );
    let mut json = Vec::new();
    t.write_json(&mut json, &ARM_NAMES).unwrap();
    let json = String::from_utf8(json).unwrap();
    assert_eq!(json.lines().count(), 4 + 2);
    assert!(json.contains("\"parent\": null") && json.contains("\"arm\": \"double\""));
}

#[test]
fn scan_only_twin_keeps_where_and_group_by() {
    assert_eq!(
        scan_only_sql("SELECT a, b, SUM(x) FROM t WHERE x < 3 GROUP BY a, b"),
        "SELECT a, b, COUNT(*) FROM t WHERE x < 3 GROUP BY a, b"
    );
    assert_eq!(
        scan_only_sql("SELECT SUM(x * y) FROM t WHERE y BETWEEN 1 AND 2"),
        "SELECT COUNT(*) FROM t WHERE y BETWEEN 1 AND 2"
    );
}

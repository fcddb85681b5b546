//! `ledger compare A.json B.json`: B against A, metric by metric, with the
//! direction and bound each end-to-end metric declares.

use crate::flat::{Flat, Value};
use crate::spec::{self, Better};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// In one of the two files the fastest decile lies further from the
    /// fastest op than the bound: that run hardly saw the machine quiet,
    /// and the pair cannot tell a change of the bound's size from noise.
    Unresolved,
    /// The metric is absent from one of the files.
    Missing,
}

/// How far a file's own samples of a metric lie from the value it reports,
/// as a share of that value: the gap between the fastest op and the fastest
/// decile. 0 for metrics that do not summarize op samples.
fn spread(f: &Flat, key: &str, value: f64) -> f64 {
    f.get_num(&format!("{key}.p10"))
        .map_or(0.0, |p10| (p10 - value).abs() / value)
}

pub fn judge(a: &Flat, b: &Flat, key: &str, better: Better, bound: f64) -> Verdict {
    let (Some(va), Some(vb)) = (a.get_num(key), b.get_num(key)) else {
        return Verdict::Missing;
    };
    let worsening = match better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    if spread(a, key, va).max(spread(b, key, vb)) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether every end-to-end row is acceptable
/// (no `worse`, nothing missing).
pub fn compare(a: &Flat, b: &Flat) -> (String, bool) {
    let mut out = String::new();
    let mut acceptable = true;
    for key in [
        "git_sha",
        "host.cpu",
        "host.nproc",
        "host.simd",
        "rustc",
        "seed",
        "seconds",
        "rows",
    ] {
        let show = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(n)) => n.to_string(),
            _ => "-".to_string(),
        };
        let (va, vb) = (show(a.get(key)), show(b.get(key)));
        let note = if va == vb || key == "git_sha" {
            ""
        } else {
            "   <- differs"
        };
        let _ = writeln!(out, "{key:<12} A {va}   B {vb}{note}");
    }
    let _ = writeln!(
        out,
        "\n{:<18} {:<46} {:>14} {:>14} {:>9}  {:<7} verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for (w, _) in spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = format!("{w}.{}", m.name);
            let verdict = judge(a, b, &key, m.better, m.bound);
            acceptable &= matches!(verdict, Verdict::Ok | Verdict::Unresolved);
            let (va, vb) = (a.get_num(&key), b.get_num(&key));
            let ratio = va.zip(vb).map(|(x, y)| y / x);
            let _ = writeln!(
                out,
                "{w:<18} {:<46} {:>14} {:>14} {:>9}  {:<7} {}",
                m.name,
                fmt(va),
                fmt(vb),
                fmt(ratio),
                format!(
                    "{} {}",
                    if m.better == Better::Lower { "+" } else { "-" },
                    m.bound
                ),
                format!("{verdict:?}").to_lowercase()
            );
        }
        // Per-layer metrics have no bound: both values and their ratio, no verdict.
        for (name, _, _) in spec::PER_LAYER {
            let key = format!("{w}.{name}");
            let (va, vb) = (a.get_num(&key), b.get_num(&key));
            if va.is_some() || vb.is_some() {
                let ratio = va.zip(vb).map(|(x, y)| y / x);
                let _ = writeln!(
                    out,
                    "{w:<18} {name:<46} {:>14} {:>14} {:>9}",
                    fmt(va),
                    fmt(vb),
                    fmt(ratio)
                );
            }
        }
    }
    let _ = writeln!(out, "\nratios are B / A: A is the base");
    (out, acceptable)
}

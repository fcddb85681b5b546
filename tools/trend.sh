#!/usr/bin/env bash
# The benchmark's trajectory, one row per recorded change:
#
#   tools/trend.sh BENCH_*.json
#
# Each BENCH_<n>.json is the `--json` record of one `tools/ab.sh` run: the
# change side's median and IQR per (workload, end-to-end metric) and the
# host it ran on. Rows are ordered by <n>; a column is one (workload,
# metric) pair, headed `<workload's first word>.<metric's first word>`
# (`q1.unbuffered` is q1_lowcard's unbuffered_ms_min), and holds the median
# (`-` where that record has none). The metrics are the three `*_ms_min`
# and the two same-run ratios (`q1.ratio.buffered` is q1_lowcard's
# `ratio.buffered_over_double`), which records from before `tools/ab.sh`
# computed them lack.
# The last columns name each record's seed, pairs, revision and host.
set -euo pipefail

if [ $# -eq 0 ] || [[ "$1" == -* ]]; then
    echo "usage: tools/trend.sh BENCH_*.json" >&2
    exit 2
fi

python3 - "$@" <<'EOF'
import json, re, sys

metrics = ["buffered_ms_min", "unbuffered_ms_min", "double_ms_min",
           "ratio.buffered_over_double", "ratio.unbuffered_over_double"]
files = sys.argv[1:]

def change(path):
    found = re.search(r"(\d+)\.json$", path)
    return int(found.group(1)) if found else -1

records = [(change(p), json.load(open(p))) for p in sorted(files, key=change)]
workloads = []
for _, r in records:
    for w in r["metrics"]:
        if w not in workloads:
            workloads.append(w)
columns = [(w, m) for w in workloads for m in metrics
           if any(m in r["metrics"].get(w, {}) for _, r in records)]
heads = [f"{w.split('_')[0]}.{m.split('_')[0]}" for w, m in columns]
widths = [max(8, len(h)) for h in heads]
print(f"{'change':>6} " + " ".join(f"{h:>{n}}" for h, n in zip(heads, widths))
      + "  seed pairs rev      host")
for pr, r in records:
    cells = []
    for (w, m), n in zip(columns, widths):
        got = r["metrics"].get(w, {}).get(m)
        cells.append(f"{got['median']:>{n}.4g}" if got else f"{'-':>{n}}")
    h = r["host"]
    host = f"{h['nproc']} x {h['cpu']}, {h['rustc'].split(' (')[0]}"
    print(f"{pr:>6} " + " ".join(cells) + f"  {r['seed']:>4} {r['pairs']:>5} {h['rev'][:8]} {host}")
EOF

#!/usr/bin/env bash
# A/B of two revisions on the repository's benchmark, in alternating pairs:
#
#   tools/ab.sh <rev-A> <rev-B> [--pairs N] [--workload W] [--seed S] [--json FILE]
#
# Checks both revisions out as git worktrees at paths of equal length (a
# fresh `mktemp -d`, honouring TMPDIR, holding `a/` and `b/`), builds each
# revision's own ledger once, then runs each revision's own
#   benchmark/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
# in the order A B, B A, A B, ... (N pairs, default 10; seed S, default 42)
# for W, or for every workload of BENCHMARK.json (default). `run_seconds`
# and the end-to-end metrics with their bounds come from BENCHMARK.json.
#
# For each (workload, end-to-end metric) it prints both medians and IQRs,
# the pairs each side won, B / A, and a verdict:
#   apart           the medians differ by more than the larger IQR;
#   not separable   they do not;
#   worse           B / A is past the metric's bound in the bad direction.
# A run whose last line is not `"correct": true` with `"failed": 0` is
# printed as it came. Exit status: 0, or 1 when any run failed or any
# metric is worse. The worktrees are removed on exit.
#
# Two more rows per workload are same-run ratios: each run's
# buffered_ms_min / double_ms_min and unbuffered_ms_min / double_ms_min.
# Both arms of a ratio come from one process in the same seconds, so a
# host that drifts between runs moves both. They get the same columns and
# verdicts (lower is better), with no bound.
#
# `--json FILE` also writes B's median and IQR per (workload, metric), the
# ratios as `ratio.buffered_over_double` and `ratio.unbuffered_over_double`,
# the run parameters and a host line (nproc, CPU model, rustc, B's
# revision): the per-change record `tools/trend.sh` reads
# (`BENCH_<n>.json`).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$(pwd)

usage() {
    echo "usage: tools/ab.sh <rev-A> <rev-B> [--pairs N] [--workload W] [--seed S] [--json FILE]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev_a=$(git rev-parse --verify "$1^{commit}")
rev_b=$(git rev-parse --verify "$2^{commit}")
shift 2
pairs=10
seed=42
json=
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?}"; shift 2 ;;
        --workload) workloads+=("${2:?}"); shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --json) json=$(realpath -m "${2:?}"); shift 2 ;;
        *) usage ;;
    esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seed" =~ ^[0-9]+$ ]] || usage
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' BENCHMARK.json)
fi
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)

tmp=$(mktemp -d)
cleanup() {
    for side in a b; do
        [ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side" || true
    done
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Each side builds into its own worktree's `benchmark/ledger/target`.
unset CARGO_TARGET_DIR
mkdir "$tmp/runs"
for side in a b; do
    rev=$rev_a
    [ "$side" = b ] && rev=$rev_b
    git worktree add --quiet --detach "$tmp/$side" "$rev"
    echo "ab: building $side = $rev" >&2
    (cd "$tmp/$side" && benchmark/run.sh manifest >/dev/null)
done

run() { # side workload pair
    local out="$tmp/runs/$2.$1.$3"
    echo "ab: $2 pair $3 $1" >&2
    (cd "$tmp/$1" && benchmark/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) \
        > "$out.log" 2>&1 || true
    tail -n 1 "$out.log" > "$out.json"
}
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then run a "$w" "$i"; run b "$w" "$i"; else run b "$w" "$i"; run a "$w" "$i"; fi
    done
done

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
python3 - BENCHMARK.json "$tmp/runs" "$pairs" "$rev_a" "$rev_b" "$seed" "$json" \
    "$(nproc)" "${cpu:-unknown}" "$(rustc --version)" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec, runs, pairs, rev_a, rev_b, seed, out = sys.argv[1:8]
pairs = int(pairs)
host = dict(zip(["nproc", "cpu", "rustc"], sys.argv[8:11]), rev=rev_b)
host["nproc"] = int(host["nproc"])
workloads = sys.argv[11:]
record = {"host": host, "base": rev_a, "seed": int(seed), "pairs": pairs, "metrics": {}}
metrics = json.load(open(spec))["end_to_end"]
# Same-run ratios: (name, numerator, denominator), lower is better.
ratios = [("ratio.buffered_over_double", "buffered_ms_min", "double_ms_min"),
          ("ratio.unbuffered_over_double", "unbuffered_ms_min", "double_ms_min")]
status = 0

def load(workload, side, i):
    global status
    path = f"{runs}/{workload}.{side}.{i}.json"
    line = open(path).read().strip()
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    if not result or not result.get("correct") or result.get("failed", 1) != 0:
        print(f"FAILED RUN {workload} {side} pair {i}: {line or '(no output)'}")
        print(open(path[: -len(".json")] + ".log").read()[-2000:])
        status = 1
        return None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, num, den in ratios:
        if values.get(num) is not None and values.get(den):
            values[name] = values[num] / values[den]
    return values

def spread(v):
    if len(v) < 2:
        return statistics.median(v), 0.0
    q1, med, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q3 - q1

print(f"A = {rev_a}\nB = {rev_b}\n{pairs} pairs per workload, seed {seed}, alternating A B / B A\n")
print(f"{'workload':<17} {'metric':<28} {'A median':>11} {'A IQR':>9} {'B median':>11} {'B IQR':>9}"
      f" {'B/A':>6} {'won A:B':>8}  verdict")
for w in workloads:
    a = [load(w, "a", i) for i in range(pairs)]
    b = [load(w, "b", i) for i in range(pairs)]
    both = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    for m in metrics + [{"name": r[0], "better": "lower", "bound": None} for r in ratios]:
        name, lower = m["name"], m["better"] == "lower"
        got = [(x[name], y[name]) for x, y in both if name in x and name in y]
        if not got:
            continue
        va, vb = [p[0] for p in got], [p[1] for p in got]
        (ma, ia), (mb, ib) = spread(va), spread(vb)
        record["metrics"].setdefault(w, {})[name] = {"median": mb, "iqr": ib}
        won_a = sum((x < y) if lower else (x > y) for x, y in got)
        won_b = sum((y < x) if lower else (y > x) for x, y in got)
        ratio = mb / ma if ma else float("inf") if mb else 1.0
        verdict = "apart" if abs(mb - ma) > max(ia, ib) else "not separable"
        bound = m["bound"]
        if bound is not None and ((ratio > 1 + bound) if lower else (ratio < 1 - bound)):
            verdict += ", worse"
            status = 1
        print(f"{w:<17} {name:<28} {ma:>11.4g} {ia:>9.3g} {mb:>11.4g} {ib:>9.3g}"
              f" {ratio:>6.3f} {won_a:>3}:{won_b:<4}  {verdict}")
if out:
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
sys.exit(status)
EOF

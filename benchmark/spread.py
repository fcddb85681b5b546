#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmark/spread.py [RUNS] [WORKLOAD ...]

Runs the command of BENCHMARK.json RUNS times (default 10) on each workload,
each time with another seed, untraced, and prints for each end-to-end metric
the distance between the first and third quartile of its values as a share of
their median, beside the metric's bound. The benchmark is steady enough when
every spread (setup_s aside) is below a third of its bound.
"""
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]

worst = 0.0
for workload in workloads:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, runs + 1):
        argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{workload:<18} {m['name']:<20} median {median:>12.4f} {m['unit']:<5} "
              f"spread {spread:7.4f}  bound {m['bound']:.2f}  spread/bound {share:5.2f}  "
              f"min {min(v):.4f} max {max(v):.4f}", flush=True)
print(f"largest spread/bound (setup_s aside): {worst:.2f} — steady when below 0.33")

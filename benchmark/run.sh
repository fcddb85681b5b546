#!/usr/bin/env bash
# The repository's benchmark, one command (see benchmark/README.md):
#
#   benchmark/run.sh [--seed S] [--seconds T] [--out F]     all five workloads, untraced then traced
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1 [--out F]     one workload (the driver's call)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest                               the text of BENCHMARK.json
#
# Builds the `ledger` package once, then hands over to it. The workload
# processes run one after the other, never side by side.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The library reads RFA_* knobs at run time (SIMD tier, pool size, fault
# injection, server sizing); a run under any of them does not measure the
# configuration the baselines were recorded in.
for v in $(compgen -e | grep '^RFA_' || true); do unset "$v"; done

# glibc returns freed heap memory to the kernel, or does not, depending on
# which chunk happens to sit at the top of the heap. The buffered arm frees
# up to 140 MiB of 8 KiB buffers per op, and on groupby_highcard the seed
# decided between re-faulting all of it on every op (100 ms) and reusing it
# (55 ms). Pinned to the steady state of a long-running process whose heap
# has grown: never trim, and mmap only what glibc always would (>= 32 MiB).
export MALLOC_TRIM_THRESHOLD_=1099511627776 MALLOC_MMAP_THRESHOLD_=33554432

if [ "$(nproc)" -lt 2 ]; then
    echo "benchmark/run.sh: service_mix drives 2 connections against 2 workers; this host has $(nproc) core" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-benchmark/ledger/target}"
cargo build --release --offline --quiet --manifest-path benchmark/ledger/Cargo.toml --target-dir "$target" >&2
ledger="$target/release/ledger"

case "${1:-}" in
    compare | manifest) exec "$ledger" "$@" ;;
esac
exec "$ledger" run "$@" \
    --git-sha "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    --rustc "$(rustc --version)"

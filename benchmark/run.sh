#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one process; the last line of output is the result JSON
#   benchmark/run.sh [--seed N] [--quick]
#       all five workloads one after another, each in a fresh process,
#       untraced (end-to-end metrics) and then traced (per-layer metrics);
#       --quick measures 2 s per run: a smoke test, unfit for claims
#   benchmark/run.sh manifest | agree ...
#       passed through to the binary (agree.sh wraps the latter)
set -euo pipefail
cd "$(dirname "$0")/.."

# A relative CARGO_TARGET_DIR (the driver sets one) is relative to the
# repository root, where this script has just moved to.
target="${CARGO_TARGET_DIR:-target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/emca-benchmark"

# glibc malloc, pinned. By default it moves its mmap threshold and trims
# its heaps as a run goes, and the engine hands back a fresh Vec per
# operator partition: whether those land on already-faulted heap or on
# new pages differs from process to process, and with it throughput of
# the same work by a quarter (see README, "The allocator"). Fixed
# thresholds, no trimming, on both sides of every comparison.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=2147483648 MALLOC_TOP_PAD_=67108864

case " $* " in
*" --workload "* | " manifest "* | " agree "*) exec "$bin" "$@" ;;
esac

seed=42
seconds=""
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --quick) seconds=2; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

status=0
for workload in olap_closed small_closed serve_open sim_closed sim_churn; do
    for trace in 0 1; do
        # The final JSON line is for the driver; the metric lines say the same.
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
            ${seconds:+--seconds "$seconds"} | grep -v '^{' || status=1
    done
done
exit "$status"

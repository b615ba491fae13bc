#!/usr/bin/env bash
# The tiny-scale end-to-end smoke runs, one definition for CI
# (.github/workflows/ci.yml) and for developers:
#
#   scripts/smoke.sh <all|threads|serve|chaos|churn> [out-dir]
#
#   all      every registered scenario on the sim backend (sf 0.002; the
#            serve_* scenarios on a pinned tiny schedule)
#   threads  the same registry pass on real OS threads, then fig07
#            under the dense, sparse and hill-climbing policies
#   serve    a tiny λ sweep of both serve scenarios, on both backends
#   chaos    both fault-injection scenarios, on both backends, gates armed
#   churn    both tenant-churn scenarios, on both backends, gates armed
#
# Each mode ends with `emca check` over the CSVs it emitted (default
# out-dir: /tmp/emca-smoke-<mode>).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
out="${2:-/tmp/emca-smoke-$mode}"

emca() { cargo run --release --quiet -p emca-bench --bin emca -- "$@"; }

# Every registered scenario at sf 0.002; "$@" = extra `emca run` flags.
# Not every scenario takes the generic --users/--iters, so the loop opts
# into --prune-unsupported; the serve_* scenarios need a pinned tiny
# schedule instead.
every_scenario() {
    for s in $(emca list --names | grep -v -e '^csv_check$' -e '^serve_'); do
        emca run "$s" "$@" --sf 0.002 --users 2 --iters 1 \
            --prune-unsupported --out-dir "$out"
    done
    for s in serve_overload serve_latency_curve; do
        emca run "$s" "$@" --sf 0.002 --arrival poisson:120 --duration 0.25 \
            --out-dir "$out"
    done
}

# The registry pass runs each scenario's default policy; this drives the
# other placement modes and the hill climber through the one controller
# on a real pool.
threads_policies() {
    for p in dense sparse hillclimb; do
        emca run fig07 --backend threads --policy "$p" --sf 0.002 \
            --users 2 --iters 1 --prune-unsupported --out-dir "$out"
    done
}

# One backend's share of a both-backends mode; $1 = sim|threads.
smoke_serve() {
    for lam in 80 160; do
        emca run serve_overload --backend "$1" --sf 0.01 \
            --arrival "poisson:$lam" --duration 0.5 --out-dir "$out"
    done
    emca run serve_latency_curve --backend "$1" --sf 0.01 \
        --arrival poisson:160 --duration 0.5 --out-dir "$out"
}

# Zero lost queries through kills/stalls, exact serve accounting under
# poisoned queries, byte-identical sim replay. The goodput-recovery
# ratio self-skips at this scale (the closed loop drains before the
# watchdog-paced repairs finish); the fidelity job judges it at the
# default scale.
smoke_chaos() {
    emca run chaos_recovery --backend "$1" --sf 0.02 --users 4 --iters 6 \
        --check --out-dir "$out"
    emca run chaos_serve --backend "$1" --sf 0.01 --arrival poisson:120 \
        --duration 0.5 --check --out-dir "$out"
}

# Zero lost queries through every arrival/departure, adaptive holding
# the static partitioner's throughput, sub-interval arbiter decision
# cost, and (on sim) the tail/core-split claims. The tiny populations
# keep the resident slices at one core, where elastic arbitration's
# cold-start ramp costs nothing — the full-size comparisons run in the
# fidelity job.
smoke_churn() {
    emca run mt_churn --backend "$1" --churn 12:resident=12 --sf 0.02 \
        --users 2 --iters 2 --check --out-dir "$out"
    emca run mt_zipf --backend "$1" --churn 8:resident=8 --sf 0.02 \
        --users 2 --iters 2 --check --out-dir "$out"
}

# The scenarios whose CSVs a both-backends mode checks at the end (the
# other modes check everything they wrote).
declare -A checked=(
    [serve]="serve_overload serve_latency_curve"
    [chaos]="chaos_recovery chaos_serve"
    [churn]="mt_churn mt_zipf"
)

case "$mode" in
all | threads | serve | chaos | churn) ;;
*)
    echo "usage: scripts/smoke.sh <all|threads|serve|chaos|churn> [out-dir]" >&2
    exit 2
    ;;
esac
mkdir -p "$out"
if [ "$mode" != all ]; then
    # EMCA_THREADS caps the worker pool at a CI runner's size instead of
    # the simulated machine's 16 cores, EMCA_RUN_DEADLINE_S turns a
    # hung pool (a lost wakeup, a deadlocked worker) into a loud panic
    # rather than a stuck job, and EMCA_WALL_BUDGET_S fails a run that
    # finished but blew its `[wall]` budget. None is ever exported to
    # `cargo test`: a capped pool partitions work differently, and the
    # sim-vs-threads equivalence tests skip themselves under it.
    export EMCA_THREADS=4 EMCA_RUN_DEADLINE_S=120 EMCA_WALL_BUDGET_S=120
fi
check=()
case "$mode" in
all) every_scenario ;;
threads)
    every_scenario --backend threads
    threads_policies
    ;;
*)
    for backend in sim threads; do
        "smoke_$mode" "$backend"
    done
    for s in ${checked[$mode]}; do
        check+=(--scenario "$s")
    done
    ;;
esac
emca check "${check[@]}" --out-dir "$out"

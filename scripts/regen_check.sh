#!/usr/bin/env bash
# The sim byte-identity gate: regenerate every registered scenario at its
# default spec on the sim backend and byte-diff the CSVs against the
# committed results/ (~1 min on a 2-core box).
#
#   scripts/regen_check.sh [out-dir]
#
# Only the three documented host-clock column groups are masked — they
# time the host, not the simulation:
#
#   tab_overhead.csv  our_prt_step_us
#   tab_arbiter.csv   *_ns_per_tick, speedup
#   mt_churn.csv      mean_tick_us
#
# Any other differing byte, a committed CSV the run did not produce, or
# a produced CSV that is not committed exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-/tmp/emca-regen}"

# The variables emca still reads budget (EMCA_WALL_BUDGET_S), cut short
# (EMCA_RUN_DEADLINE_S) or narrow (EMCA_THREADS) a run, and emca refuses
# any other EMCA_*; the check wants the plain default run, so none may be
# set.
if stray=$(env | grep '^EMCA_'); then
    echo "regen_check: unset these first, the check runs at the default spec:" >&2
    echo "$stray" >&2
    exit 2
fi

emca() { cargo run --release --quiet -p emca-bench --bin emca -- "$@"; }

# Prints $1 with the columns whose header matches regex $2 starred out.
mask() {
    awk -F, -v OFS=, -v re="$2" '
        NR == 1 { for (i = 1; i <= NF; i++) if ($i ~ re) host[i] = 1 }
        NR > 1 { for (i in host) $i = "*" }
        { print }' "$1"
}

# Whether $1 and $2 are the same bytes outside the columns matching $3.
same() {
    if [ -z "$3" ]; then
        cmp -s "$1" "$2"
    else
        diff <(mask "$1" "$3") <(mask "$2" "$3") >/dev/null
    fi
}

rm -rf "$out"
mkdir -p "$out"
for s in $(emca list --names | grep -v -e '^csv_check$'); do
    emca run "$s" --out-dir "$out"
done

fail=0
for want in results/*.csv; do
    name=$(basename "$want")
    got="$out/$name"
    case "$name" in
    tab_overhead.csv) re='^our_prt_step_us$' ;;
    tab_arbiter.csv) re='_ns_per_tick$|^speedup$' ;;
    mt_churn.csv) re='^mean_tick_us$' ;;
    *) re='' ;;
    esac
    if [ ! -f "$got" ]; then
        echo "regen_check: $name was not regenerated" >&2
        fail=1
    elif ! same "$want" "$got" "$re"; then
        echo "regen_check: $name differs from results/:" >&2
        diff "$want" "$got" | head -10 >&2 || true
        fail=1
    fi
done
for got in "$out"/*.csv; do
    if [ ! -f "results/$(basename "$got")" ]; then
        echo "regen_check: $(basename "$got") is produced but not committed" >&2
        fail=1
    fi
done
[ "$fail" = 0 ] && echo "regen_check: $(ls results/*.csv | wc -l) CSVs byte-identical to results/ (host-clock columns masked)"
exit "$fail"

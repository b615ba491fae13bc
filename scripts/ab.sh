#!/usr/bin/env bash
# A/B the repo benchmark between a git revision and the working tree:
#
#   scripts/ab.sh <rev> <workload>[,<workload>...]|all [pairs=5] [seed=42]
#
# Extracts <rev> into a temporary directory (git archive), builds it and
# the working tree once each with separate CARGO_TARGET_DIRs, then, for
# each workload in turn (`all` = every workload BENCHMARK.json declares),
# runs `benchmark/run.sh --workload <workload> --seed <seed> --seconds 12
# --trace 0` on the two sides alternately, <pairs> times: the revision
# first in odd pairs, the working tree first in even ones, so drift of
# the machine hits both alike. Prints one table per workload: for each
# end-to-end metric, both
# sides' per-pair values, the per-pair new/base ratios with their median,
# and the spread of the base runs (IQR over median); then the CPU time
# the hypervisor stole during each run (a pair with much steal on one
# side says little) and whether every run printed the same sim.digest
# (the sim_* workloads). Leaves the repository untouched; do not edit
# the tree while it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <rev> <workload>[,<workload>...]|all [pairs=5] [seed=42]" >&2
    exit 2
}
[ "$#" -ge 2 ] && [ "$#" -le 4 ] || usage
rev=$1 pairs=${3:-5} seed=${4:-42}
case "$pairs$seed" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "ab: unknown revision $rev" >&2
    exit 2
}
declared=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
if [ "$2" = all ]; then workloads=$declared; else workloads=${2//,/ }; fi
for w in $workloads; do
    grep -qx "$w" <<<"$declared" || {
        echo "ab: unknown workload $w (one of: all" $declared")" >&2
        exit 2
    }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/emca-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$rev" | tar -x -C "$work/base"

# side -> source tree and build directory
tree() { if [ "$1" = base ]; then echo "$work/base"; else pwd; fi; }
build() {
    echo "ab: building $1" >&2
    (cd "$(tree "$1")" && CARGO_TARGET_DIR="$work/target-$1" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
run() {
    echo "ab: $workload pair $2, $1" >&2
    (cd "$(tree "$1")" && CARGO_TARGET_DIR="$work/target-$1" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds 12 --trace 0) >"$work/$workload/$1.$2"
}
build base
build new
for workload in $workloads; do
    mkdir "$work/$workload"
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi
        for side in $order; do run "$side" "$p"; done
    done
done

for workload in $workloads; do
    echo
    echo "$workload, seed $seed, $pairs pairs: base $(git rev-parse --short "$rev") vs the working tree"
    # BENCHMARK.json's end-to-end rows (the ones carrying a bound) give
    # each metric's unit, direction and bound; the run outputs the values.
    awk -v w="$workload" -v n="$pairs" '
        function val(s, key,   t) {
            if (!match(s, "\"" key "\": *\"?[^\",}]*")) return ""
            t = substr(s, RSTART, RLENGTH); sub(/^"[^"]*": *"?/, "", t); return t
        }
        function isort(a, k,   i, j, x) {
            for (i = 2; i <= k; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
        }
        function quant(a, k, q,   h, lo) { h = (k - 1) * q + 1; lo = int(h); return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
        FILENAME ~ /BENCHMARK\.json$/ {
            if ($0 ~ /"bound"/) { m = val($0, "name"); unit[m] = val($0, "unit"); better[m] = val($0, "better"); bound[m] = val($0, "bound") }
            next
        }
        FNR == 1 { k = split(FILENAME, path, "/"); split(path[k], sp, "."); side = sp[1]; pair = sp[2] }
        $1 == w && NF >= 3 && ($2 in unit) {
            if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 }
            v[$2, side, pair] = $3 + 0
        }
        /^# sim\.digest / { d = $3; sub(/,$/, "", d); dig[side, pair] = d }
        /^# loadavg_end=/ { for (i = 2; i <= NF; i++) if (sub(/^steal_s=/, "", $i)) steal[side, pair] = $i }
        END {
            for (i = 1; i <= nm; i++) {
                m = order[i]
                printf "%s (%s, %s is better, bound %s)\n", m, unit[m], better[m], bound[m]
                b = "  base     "; s = "  new      "; r = "  new/base "; nr = 0; nb = 0
                for (p = 1; p <= n; p++) {
                    b = b sprintf(" %12.6g", v[m, "base", p]); s = s sprintf(" %12.6g", v[m, "new", p])
                    base_v[++nb] = v[m, "base", p]
                    if (v[m, "base", p] != 0) { ratio[++nr] = v[m, "new", p] / v[m, "base", p]; r = r sprintf(" %12.4f", ratio[nr]) }
                    else r = r sprintf(" %12s", "-")
                }
                print b; print s; print r
                isort(base_v, nb); med = quant(base_v, nb, 0.5)
                spread = med != 0 ? (quant(base_v, nb, 0.75) - quant(base_v, nb, 0.25)) / med : 0
                if (nr > 0) { isort(ratio, nr); printf "  median new/base %.4f; base IQR/median %.4f\n", quant(ratio, nr, 0.5), spread }
                else printf "  median new/base -; base IQR/median %.4f\n", spread
            }
            b = "steal_s  base"; s = "steal_s  new "
            for (p = 1; p <= n; p++) { b = b sprintf(" %6s", steal["base", p]); s = s sprintf(" %6s", steal["new", p]) }
            print b; print s
            if (!(("base" SUBSEP 1) in dig)) exit
            ok = 1; first = dig["base", 1]
            for (p = 1; p <= n; p++) if (dig["base", p] != first || dig["new", p] != first) ok = 0
            printf "sim.digest: base %s, new %s: %s\n", dig["base", 1], dig["new", 1], ok ? "every run matched" : "MISMATCH"
            if (!ok) for (p = 1; p <= n; p++) printf "  pair %d: base %s new %s\n", p, dig["base", p], dig["new", p]
        }' BENCHMARK.json "$work/$workload"/base.* "$work/$workload"/new.*
done

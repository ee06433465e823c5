#!/usr/bin/env sh
# A/B perfbench comparison: this checkout against a parent revision.
#
#   ./perf-ab.sh <parent-rev> <workload> <pairs> <seed>...
#
# Builds perfbench at <parent-rev> in a temporary git worktree with its
# own target directory, and perfbench of this checkout (working tree
# included) into perfbench/target. Then runs <pairs> pairs of `--trace 0`
# runs on <workload>, each as long as BENCHMARK.json's run_seconds; pair i
# uses the i-th seed, cycling through the list, and the side that runs
# first alternates from pair to pair.
# For each end-to-end metric of BENCHMARK.json it prints both sides'
# median and quartiles, how many pairs each side won, and a verdict:
#   gain   the change won at least 9 in 10 pairs, and its median beats the
#          parent's by more than the parent's interquartile range;
#   worse  the change's median is worse than the parent's by more than the
#          metric's relative bound in BENCHMARK.json;
#   flat   otherwise.
# Then it runs one `--trace 1` run per side on the first seed, which
# replays each request layer by layer, and prints every per-layer metric
# of BENCHMARK.json as parent -> change: where the time went.
# Exits 1 if a run is not correct or fails a request. Temporary files go
# under $TMPDIR.
set -eu

if [ "$#" -lt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seed>..." >&2
    exit 1
fi
rev=$1
workload=$2
pairs=$3
shift 3

cd "$(dirname "$0")"
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$seconds" ] || { echo "perf-ab: no run_seconds in BENCHMARK.json" >&2; exit 1; }
metrics=$(sed -n '/"end_to_end"/,/]/s/.*"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)".*"bound": \([0-9.]*\).*/\1:\2:\3/p' BENCHMARK.json)
layers=$(sed -n '/"per_layer"/,/]/s/.*"name": "\([a-z0-9_]*\)".*/\1/p' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
cleanup() {
    git worktree remove --force "$tmp/parent" 2>/dev/null || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 1' INT TERM

echo "==> building perfbench at $rev and at this checkout" >&2
git worktree add --quiet --detach "$tmp/parent" "$rev"
CARGO_TARGET_DIR="$tmp/target" cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/perfbench/Cargo.toml"
CARGO_TARGET_DIR=perfbench/target cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml
parent_bin="$tmp/target/release/xring-perfbench"
change_bin="perfbench/target/release/xring-perfbench"

# run <side> <binary> <pair> <seed> [<trace>]: one run (`--trace 0`
# unless given), its verdict line kept as $tmp/<side>.<pair>.
run() {
    "$2" --workload "$workload" --seed "$4" --seconds "$seconds" --trace "${5:-0}" | tail -1 >"$tmp/$1.$3"
    if ! grep -q '"correct": true' "$tmp/$1.$3" || ! grep -q '"failed": 0[,}]' "$tmp/$1.$3"; then
        echo "perf-ab: $1 run $3 (seed $4) not correct or had failures: $(cat "$tmp/$1.$3")" >&2
        exit 1
    fi
}

i=0
while [ "$i" -lt "$pairs" ]; do
    # The i-th seed, cycling through the list.
    k=$((i % $# + 1))
    seed=$(eval "echo \"\${$k}\"")
    echo "==> pair $((i + 1))/$pairs, seed $seed" >&2
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent_bin" "$i" "$seed"
        run change "$change_bin" "$i" "$seed"
    else
        run change "$change_bin" "$i" "$seed"
        run parent "$parent_bin" "$i" "$seed"
    fi
    i=$((i + 1))
done

# value <file> <metric>: the metric's value in one verdict line.
value() {
    sed -n 's/.*"'"$2"'": {"value": \([^,}]*\).*/\1/p' "$1"
}

# quartiles: first quartile, median and third quartile (linear
# interpolation) of stdin's numbers, space-separated at full precision.
quartiles() {
    sort -n | awk '{ v[NR] = $1 }
        function q(p,   h, f) { h = (NR - 1) * p + 1; f = int(h); return v[f] + (h - f) * (v[f + 1 < NR ? f + 1 : NR] - v[f]) }
        END { printf "%.17g %.17g %.17g", q(0.25), q(0.5), q(0.75) }'
}

echo "workload $workload, $pairs pairs, $seconds s per run, seeds $*, parent $rev"
printf '%-16s %-7s %-28s %-28s %-19s %s\n' metric better "parent median [q1, q3]" "change median [q1, q3]" "wins parent/change" verdict
for entry in $metrics; do
    name=${entry%%:*}
    rest=${entry#*:}
    better=${rest%%:*}
    bound=${rest#*:}
    parent_wins=0
    change_wins=0
    : >"$tmp/parent.values"
    : >"$tmp/change.values"
    i=0
    while [ "$i" -lt "$pairs" ]; do
        p=$(value "$tmp/parent.$i" "$name")
        c=$(value "$tmp/change.$i" "$name")
        echo "$p" >>"$tmp/parent.values"
        echo "$c" >>"$tmp/change.values"
        case $(awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN {
            if (p == c) print "tie"; else if ((b == "lower") == (c < p)) print "change"; else print "parent" }') in
        change) change_wins=$((change_wins + 1)) ;;
        parent) parent_wins=$((parent_wins + 1)) ;;
        esac
        i=$((i + 1))
    done
    parent_q=$(quartiles <"$tmp/parent.values")
    change_q=$(quartiles <"$tmp/change.values")
    awk -v q="$parent_q $change_q" -v name="$name" -v b="$better" -v bound="$bound" \
        -v pw="$parent_wins" -v cw="$change_wins" -v n="$pairs" 'BEGIN {
        split(q, v, " ")
        p1 = v[1]; pm = v[2]; p3 = v[3]; c1 = v[4]; cm = v[5]; c3 = v[6]
        lower = (b == "lower")
        if (10 * cw >= 9 * n && (lower ? pm - cm : cm - pm) > p3 - p1) verdict = "gain"
        else if (lower ? cm > pm * (1 + bound) : cm < pm * (1 - bound)) verdict = "worse"
        else verdict = "flat"
        printf "%-16s %-7s %-28s %-28s %-19s %s\n", name, b, sprintf("%.4g [%.4g, %.4g]", pm, p1, p3),
            sprintf("%.4g [%.4g, %.4g]", cm, c1, c3), pw "/" cw, verdict }'
done

# One traced run per side on the first seed: the per-layer breakdown.
echo "==> traced run per side, seed $1" >&2
run parent "$parent_bin" trace "$1" 1
run change "$change_bin" trace "$1" 1
echo
echo "per-layer means, one --trace 1 run per side, seed $1"
printf '%-18s %s\n' metric "parent -> change"
for name in $layers; do
    awk -v name="$name" -v p="$(value "$tmp/parent.trace" "$name")" -v c="$(value "$tmp/change.trace" "$name")" \
        'BEGIN { printf "%-18s %.4g -> %.4g\n", name, p, c }'
done

#!/usr/bin/env sh
# Offline CI gate: formatting, lints, tier-1 build + tests.
# Everything runs with --offline; the workspace has no third-party deps.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check
# perfbench is its own workspace, so `--all` above never sees it.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> non-test Rust lines per crate (informational: lines above each file's first top-level #[cfg(test)])"
total=0
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")")
    [ "$dir" = src ] && name=xring
    lines=$(find "$dir" -name '*.rs' -exec awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' {} + \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '  %-10s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '  %-10s %6d\n' total "$total"

echo "==> sh -n perf-ab.sh (the A/B comparison script parses; it is run by hand)"
sh -n perf-ab.sh

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo build --release (tier-1)"
cargo build --release --offline

echo "==> cargo build perfbench (its own workspace; catches API breaks the benchmark depends on)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Every workload: the crossing kernel sits under the heuristic ring and the
# exact ring MILP's lazy cuts alike.
for workload in heuristic-large exact-ring serve-mix; do
    echo "==> perfbench $workload --trace 1 (each request replayed layer by layer, checked against the daemon)"
    bench_verdict=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 1 | tail -1)
    echo "$bench_verdict" | grep -q '"correct": true' && echo "$bench_verdict" | grep -q '"failed": 0[,}]' || {
        echo "perfbench: $workload trace run not correct or had failures: $bench_verdict" >&2
        exit 1
    }
done

echo "==> cargo test -q (tier-1)"
cargo test -q --offline

echo "==> cargo test -q --workspace"
cargo test -q --workspace --offline

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo test --doc (doc examples)"
cargo test -q --doc --workspace --offline

echo "==> cargo test -q --features fault-inject (robustness suite)"
cargo test -q --features fault-inject --offline
cargo test -q -p xring-engine -p xring-milp --features fault-inject --offline
cargo test -q -p xring-engine --features fault-inject --offline --doc

echo "==> survivability suites (k-spare synthesis proof + fault-sweep Pareto)"
cargo test -q --offline --test survivability

echo "==> telemetry suites (obs histograms/prometheus, milp progress, convergence e2e)"
cargo test -q -p xring-obs --offline
cargo test -q -p xring-milp --offline progress
cargo test -q --offline --test convergence_telemetry

echo "==> LP backend suites (differential agreement + revised-backend fault chain)"
cargo test -q -p xring-milp --offline backend
cargo test -q --offline --features fault-inject --test fault_tolerance revised_backend

echo "==> parallel-BnB determinism gate (1/2/8 solver threads, bit-identical)"
cargo test -q --offline --test parallel_determinism

echo "==> serve smoke (daemon lifecycle, endpoints, drain, thread-leak check)"
# In-process lifecycle first: every endpoint once, graceful drain, and a
# /proc-based leaked-thread check. Exit code is the verdict.
cargo run -q --release -p xring-serve --bin serve-smoke --offline

# Then the real CLI binary over real sockets: start, serve, scrape, drain.
cargo build -q --release -p xring-cli --offline
serve_log="target/serve-ci.log"
serve_fifo="target/serve-ci-stdin"
rm -f "$serve_fifo"
mkfifo "$serve_fifo"
./target/release/xring serve --port 0 --max-inflight 2 --deadline-ms 30000 \
    --degradation allow <"$serve_fifo" >"$serve_log" 2>&1 &
serve_pid=$!
# Hold the fifo's write end open so the daemon's stdin does not EOF
# (stdin EOF is its second shutdown trigger, after POST /shutdown).
exec 9>"$serve_fifo"
serve_addr=""
i=0
while [ "$i" -lt 100 ]; do
    serve_addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$serve_log")
    [ -n "$serve_addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "serve: daemon never reported a listening address" >&2
    cat "$serve_log" >&2
    exit 1
fi
curl -sf "http://$serve_addr/healthz" | grep -q '"status":"ok"'
curl -sf "http://$serve_addr/healthz" | grep -q '"uptime_s":'
curl -sf "http://$serve_addr/healthz" | grep -q '"version":"'
curl -sf -X POST "http://$serve_addr/synth" \
    -d '{"net": {"named": "proton_8"}, "options": {"max_wavelengths": 8}}' \
    | grep -q '"audit":{"clean":true'
curl -sf "http://$serve_addr/metrics" | grep -q 'xring_serve_request_wall_us_bucket'
curl -sf "http://$serve_addr/metrics" | grep -q 'xring_serve_slo_availability_burn_rate_5m'
# Flight recorder: the /synth request above must be in the debug ring,
# and its record must resolve by id with a per-phase breakdown.
curl -sf "http://$serve_addr/debug/requests" | grep -q '"route":"/synth"'
flight_id=$(curl -sf "http://$serve_addr/debug/requests" \
    | sed -n 's/.*"id":"\([0-9a-f]\{32\}\)".*/\1/p' | head -1)
if [ -z "$flight_id" ]; then
    echo "serve: flight recorder returned no request ids" >&2
    exit 1
fi
curl -sf "http://$serve_addr/debug/requests/$flight_id" | grep -q '"phases":{'
curl -sf -X POST "http://$serve_addr/shutdown" | grep -q '"status":"draining"'
# Graceful-drain check: the daemon must exit 0 on its own and report the
# drain summary; a leaked handler would hang the wait (and fail CI).
wait "$serve_pid"
exec 9>&-
rm -f "$serve_fifo"
grep -q "drained after" "$serve_log" || {
    echo "serve: daemon exited without draining" >&2
    cat "$serve_log" >&2
    exit 1
}

echo "==> fault-sweep smoke (CLI Pareto report over spare levels)"
./target/release/xring fault-sweep --grid 2x4 --wl 8 --levels 0,1 \
    | grep -q '<= pareto'

echo "==> sweep smoke (CLI #wl sweep marks a winner)"
./target/release/xring sweep --grid 2x4 --wl 8 | grep -q '<= best'

echo "==> floorplan limit smoke (the CLI refuses an oversized floorplan before building it)"
for floorplan in "--irregular 100000,1,100000000" "--grid 4x4 --pitch 4000000000000000000"; do
    status=0
    # The floorplan is two or four words: split it.
    limit_out=$(timeout 10 ./target/release/xring synth $floorplan 2>&1) || status=$?
    if [ "$status" -ne 1 ] || ! echo "$limit_out" | grep -q '^error: .* exceeds the limit of'; then
        echo "floorplan: 'xring synth $floorplan' exited $status: $limit_out" >&2
        exit 1
    fi
done

echo "==> batch smoke (a ring shared by a batch's #wl points is solved once)"
batch_nodes() {
    ./target/release/xring --jobs 1 batch --irregular 32,5,16000 --wl-list "$1" \
        | sed -n 's/.*milp: \([0-9]*\) nodes.*/\1/p'
}
nodes_one=$(batch_nodes 16)
nodes_five=$(batch_nodes 12,16,20,24,28)
if [ -z "$nodes_one" ] || [ "$nodes_one" != "$nodes_five" ]; then
    echo "batch: 5 #wl points explored '$nodes_five' B&B nodes, 1 point '$nodes_one'" >&2
    exit 1
fi

echo "==> deadline smoke (an LP solve stops at the deadline: the 8x8 job degrades in ~3 s)"
# The 8x8 grid's B&B reaches a dual-degenerate LP after ~1.5 s that runs
# for minutes unless the pivot loop honours the deadline. Every design a
# job returns has passed the audit, so "1 ok" is an audit-clean design.
deadline_out=$(timeout 20 ./target/release/xring --jobs 1 batch --grid 8x8 --wl-list 16 \
    --deadline-ms 3000 --degradation allow) || {
    echo "deadline: the 8x8 job did not finish within 20 s: $deadline_out" >&2
    exit 1
}
echo "$deadline_out" | grep -q '1 ok, 0 failed.*1 heuristic' && echo "$deadline_out" | grep -q '\[heuristic\]' || {
    echo "deadline: the 8x8 job did not degrade to a heuristic design: $deadline_out" >&2
    exit 1
}

echo "==> table smoke (Table III's XRing rows come from the audited engine sweep)"
./target/release/xring table 3 | grep -q '^XRing'

echo "==> flag spelling smoke (every value flag takes --flag=V; batch refuses --deadline-ms 0)"
folded="target/ci-synth.folded"
rm -f "$folded"
./target/release/xring synth --grid=2x4 --wl=8 --trace-format=folded --trace="$folded" >/dev/null
grep -q '^[^ ]* [0-9][0-9]*$' "$folded" || {
    echo "flags: synth --trace-format=folded --trace=$folded wrote no folded stacks" >&2
    exit 1
}
status=0
deadline_err=$(./target/release/xring batch --grid 2x2 --wl-list 4 --deadline-ms 0 2>&1) || status=$?
if [ "$status" -ne 1 ] || ! echo "$deadline_err" | grep -q '^error: --deadline-ms: must be at least 1'; then
    echo "flags: 'xring batch --deadline-ms 0' exited $status: $deadline_err" >&2
    exit 1
fi

echo "==> incremental edit smoke (CLI edit loop, byte-identity check, ring + shortcut replayed)"
edit_out=$(./target/release/xring edit --irregular 16,5,8000 --wl 8)
echo "$edit_out" | grep -q 'byte-identical to cold synthesis of the edited spec: yes'
echo "$edit_out" | grep -q '2/2 phases replayed'

echo "==> golden work counters (exact solver, pipeline and allocation counts per fixture)"
cargo test -q --offline --test golden_work

echo "ci: all green"

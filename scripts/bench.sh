#!/bin/sh
# Reproducible benchmark harness: runs the stepping and kernel benchmarks
# with -benchmem and converts the output into a schema'd JSON artifact
# (BENCH_10.json at the repo root) via cmd/benchjson. The artifact embeds
#
#   - the current measurements, including a -cpu GOMAXPROCS sweep of the
#     serial and workers=4 channel steppers (benchjson records each -N name
#     suffix as "procs", so the variants coexist),
#   - the committed seed baseline (scripts/bench_baseline.json), so one
#     file carries the before/after pair, and
#   - the la.Tuner per-shape kernel sweep for the Table 1 channel order
#     (N=9, 2D) — the data behind the installed dispatch table.
#
# Usage:
#   scripts/bench.sh            full run (default: 5x ~1s per benchmark)
#   scripts/bench.sh quick      CI smoke: one iteration per benchmark plus
#                               the zero-alloc gate on the serial and W4
#                               steps; artifact written to a temp dir and
#                               only validated, not committed
#
# Environment overrides:
#   BENCH_REGEX    single-GOMAXPROCS benchmark selector (default: the tuned
#                  and instrumented Table 1 steppers, the distributed
#                  channel stepper at P=4 and P=64, Table 3 kernels, and the
#                  per-preconditioner channel steppers)
#   BENCH_SWEEP    benchmarks run under the -cpu sweep (default: the Table 1
#                  serial and workers=4 steppers)
#   BENCH_CPU      -cpu list for the sweep (default 1,4)
#   BENCH_TIME     -benchtime value for the full run (default 1s)
#   BENCH_COUNT    -count value for the full run (default 1)
#   BENCH_OUT      artifact path for the full run (default BENCH_10.json)
set -eu
cd "$(dirname "$0")/.."

regex="${BENCH_REGEX:-BenchmarkTable1ChannelStepTuned$|BenchmarkTable1ChannelStepInstrumented$|BenchmarkChannelStepDistributed$|BenchmarkChannelStepDistributedP64$|BenchmarkTable3|BenchmarkPrecondChannelStep}"
sweep="${BENCH_SWEEP:-BenchmarkTable1ChannelStep$|BenchmarkTable1ChannelStepW4$}"
cpus="${BENCH_CPU:-1,4}"
mode="${1:-full}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# alloc_gate <bench.txt>: the serial and workers=4 steady-state steps must
# report exactly 0 allocs/op at every GOMAXPROCS — the per-step arenas are a
# load-bearing invariant, so any allocation is a CI failure, not a drift.
alloc_gate() {
    if grep -E "^BenchmarkTable1ChannelStep(W4)?(-[0-9]+)?[[:space:]]" "$1" |
        grep -v " 0 allocs/op" | grep .; then
        echo "bench gate: steady-state channel step allocates (want 0 allocs/op)" >&2
        return 1
    fi
    echo "bench gate: serial and W4 steps are allocation-free"
}

case "$mode" in
quick)
    echo "== bench smoke: -benchtime=1x over $regex =="
    go test -run '^$' -bench "$regex" -benchtime=1x -benchmem . | tee "$tmp/bench.txt"
    echo "== bench smoke: -benchtime=1x -cpu $cpus over $sweep =="
    go test -run '^$' -bench "$sweep" -benchtime=1x -benchmem -cpu "$cpus" . |
        tee -a "$tmp/bench.txt"
    alloc_gate "$tmp/bench.txt"
    go run ./cmd/benchjson -in "$tmp/bench.txt" -out "$tmp/bench.json" \
        -label "ci-smoke" -baseline scripts/bench_baseline.json -tune 9:2 -tune-ms 3
    # Validate the artifact round-trips as JSON and carries measurements.
    go run ./cmd/benchjson -in /dev/null -stamp=false >/dev/null # parser self-check
    grep -q '"schema": "repro-bench/1"' "$tmp/bench.json"
    grep -q '"name": "Table1ChannelStep"' "$tmp/bench.json"
    grep -q '"procs": 4' "$tmp/bench.json"
    echo "bench smoke OK (artifact validated, not committed)"
    ;;
full)
    out="${BENCH_OUT:-BENCH_10.json}"
    benchtime="${BENCH_TIME:-1s}"
    count="${BENCH_COUNT:-1}"
    echo "== bench: -benchtime=$benchtime -count=$count over $regex =="
    go test -run '^$' -bench "$regex" -benchtime="$benchtime" -count="$count" -benchmem . |
        tee "$tmp/bench.txt"
    echo "== bench: -cpu $cpus worker sweep over $sweep =="
    go test -run '^$' -bench "$sweep" -benchtime="$benchtime" -count="$count" \
        -benchmem -cpu "$cpus" . | tee -a "$tmp/bench.txt"
    alloc_gate "$tmp/bench.txt"
    go run ./cmd/benchjson -in "$tmp/bench.txt" -out "$out" \
        -label "scripts/bench.sh full" -baseline scripts/bench_baseline.json -tune 9:2
    echo "wrote $out"
    ;;
*)
    echo "usage: scripts/bench.sh [quick|full]" >&2
    exit 2
    ;;
esac

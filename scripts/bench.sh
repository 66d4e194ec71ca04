#!/usr/bin/env bash
# bench.sh — run the T-series, ablation, and engine benchmarks at a pinned
# -benchtime and emit a machine-readable JSON report (ns/op, B/op,
# allocs/op per bench), the format stored in BENCH_PR3.json.
#
# Usage: scripts/bench.sh [benchtime] [output.json]
#
#   benchtime  pinned go test -benchtime value (default 10x; CI smoke uses 1x)
#   output     JSON report path (default bench.json)
#
# The raw `go test -bench` output streams to stderr so interactive runs
# stay observable; only the JSON goes to the output file.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-10x}"
out="${2:-bench.json}"
pattern='^(BenchmarkT[0-9]+|BenchmarkA[123]|BenchmarkEngine10kRandom|BenchmarkEngineHardInstance|BenchmarkRunPhase10k|BenchmarkSweepGrid64|BenchmarkSweepReplicateHeavy|BenchmarkLargeSparse|BenchmarkObs|BenchmarkOpenIndexed)'

raw="$(go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -timeout 60m . ./internal/obs/ ./internal/sweep/)"
printf '%s\n' "$raw" >&2

printf '%s\n' "$raw" | awk -v benchtime="$benchtime" '
BEGIN {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benches\": [", benchtime
    first = 1
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i - 1)
        if ($i == "B/op")      bytes  = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ","
    first = 0
    printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes  != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n  ]\n}" }
' > "$out"

echo "bench.sh: wrote $out" >&2

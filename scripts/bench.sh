#!/bin/sh
# bench.sh — run the paper-artifact and batch benchmark suites and emit a
# JSON snapshot for the bench trajectory.
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_9.json)
#
# BENCH_0.json (pre-spatial-index), BENCH_1.json (pre-virtual-time),
# BENCH_2.json (pre-live-migration), BENCH_3.json (pre-shared-
# execution), BENCH_4.json (pre-incremental-replanning), BENCH_5.json
# (pre-failure-repair), BENCH_6.json (pre-observability), BENCH_7.json
# (pre-sharding), and BENCH_8.json (pre-data-plane-sharding) are
# committed baselines; the default output BENCH_9.json — which runs
# BenchmarkX17_Scale16k on the sharded data plane (DefaultX17Params now
# carries DataShards: 16) and adds the 100k-node event-kernel numbers
# (BenchmarkShardedNetwork100k vs ...SingleQueue; on one core they are
# within noise, on >= 8 cores the sharded plane must pull ahead) — sits
# alongside them so the trajectory stays in the repo. Bump the default
# for later milestones.
#
# Each end-to-end benchmark runs once (-benchtime 1x): the suites are
# experiment regenerations, so a single iteration is already seconds of
# work and the numbers are for trajectory tracking, not
# microbenchmarking. The tracer and scheduler micro-benchmarks run a
# fixed iteration count in a second pass so their ns/op is meaningful.
set -eu

out=${1:-BENCH_9.json}
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkFig|BenchmarkX|BenchmarkIntegrated|BenchmarkTwoStep|BenchmarkOptimize|BenchmarkPlan|BenchmarkShardedNetwork' \
  -benchtime 1x -timeout 30m . | tee "$tmp"

go test -run '^$' -bench 'BenchmarkTraceEmit' -benchtime 1000000x -timeout 10m . | tee -a "$tmp"

# Scheduler micro-benchmarks: each op schedules and drains 100k timers;
# 20 iterations (2M events each side) keeps the wheel-vs-heap ordering
# out of single-run noise. The pure queue-operation comparison lives in
# internal/simtime (BenchmarkWheelQueue100kPending vs Heap...).
go test -run '^$' -bench 'BenchmarkSchedule100k' -benchtime 20x -timeout 10m . | tee -a "$tmp"

# Layer micro-benchmarks with allocation counts: Vivaldi embedding and
# one 16k-node gossip round (cost-space embedding), and the raw wheel
# vs reference-heap queue operations (event kernel).
go test -run '^$' -bench 'BenchmarkEmbed200Nodes|BenchmarkTickerRound16k|BenchmarkWheelQueue|BenchmarkHeapQueue' \
  -benchmem -timeout 10m ./internal/vivaldi ./internal/simtime | tee -a "$tmp"

awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
  name = $1; iters = $2; ns = $3
  sub(/-[0-9]+$/, "", name)
  metrics = ""
  for (i = 5; i + 1 <= NF; i += 2) {
    gsub(/"/, "", $(i+1))
    metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), $(i+1), $i)
  }
  if (!first) print ","
  first = 0
  printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
  if (metrics != "") printf ", %s", metrics
  printf "}"
}
END { print "\n]" }
' "$tmp" > "$out"

echo "wrote $out"

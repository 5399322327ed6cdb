#!/usr/bin/env bash
# scripts/bench.sh — run the unit microbenchmarks under internal/ and
# record them as BENCH_<date>.json in the repo root, the snapshot format
# cmd/benchcmp compares.
#
# Every benchmark runs -count 5 times at -benchtime 1s, so a snapshot
# holds five samples of each: benchcmp gates on their medians and 95%
# confidence intervals, never on one sample. Both settings are fixed so
# any two snapshots are comparable. Every result line of go test -bench
# (ns/op, B/op, allocs/op and the custom metrics such as ns/instr and
# instr/s) is captured.
#
# Usage:
#   scripts/bench.sh                              # every microbenchmark
#   BENCH='BenchmarkTAGEPredict' scripts/bench.sh  # subset by regexp
#   OUT=BENCH_ci.json scripts/bench.sh            # custom output file
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=1s
count=5
pattern="${BENCH:-.}"
date_tag="$(date +%F)"
out="${OUT:-BENCH_${date_tag}.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" ./internal/... 2>&1 | tee "$raw" >&2

{
  printf '{\n'
  printf '  "date": "%s",\n' "$date_tag"
  printf '  "go": "%s",\n' "$(go version)"
  printf '  "commit": "%s",\n' "$(git describe --always --dirty 2>/dev/null || echo unknown)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "count": %d,\n' "$count"
  printf '  "results": [\n'
  awk '
    /^Benchmark/ && NF >= 4 {
      if (n++) printf ",\n"
      printf "    {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", $1, $2
      msep = ""
      for (i = 3; i + 1 <= NF; i += 2) {
        printf "%s\"%s\":%s", msep, $(i+1), $i
        msep = ","
      }
      printf "}}"
    }
    END { print "" }
  ' "$raw"
  printf '  ]\n}\n'
} > "$out"

# Fail loudly if nothing was benchmarked (e.g. a typoed BENCH pattern).
if ! grep -q '"name"' "$out"; then
  echo "bench.sh: no benchmark results captured (pattern: $pattern)" >&2
  exit 1
fi
echo "bench.sh: wrote $out" >&2

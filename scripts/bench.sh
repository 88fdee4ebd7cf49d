#!/usr/bin/env sh
# bench.sh — run the benchmark suite and snapshot the results as JSON so the
# performance trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                 # full suite -> BENCH_<stamp>.json
#   scripts/bench.sh ObserveBatch    # filtered   -> BENCH_<stamp>.json
#
# The snapshot records the raw `go test -bench` lines (which carry both
# ns/op and the protocol-cost custom metrics) plus the environment. The
# suite includes the BenchmarkMultiProducerIngest* family (E17), so every
# snapshot tracks concurrent-frontend ingest throughput — serial baseline
# vs p=1/2/8 producer goroutines — across PRs. Compare
# two snapshots with e.g.:
#   diff <(jq -r .results[] BENCH_a.json) <(jq -r .results[] BENCH_b.json)
set -eu

cd "$(dirname "$0")/.."

FILTER="${1:-.}"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
OUT="BENCH_${STAMP}.json"
RAW="$(mktemp)"
TAB="$(printf '\t')"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$FILTER" -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$RAW"

{
	printf '{\n'
	printf '  "stamp": "%s",\n' "$STAMP"
	printf '  "filter": "%s",\n' "$FILTER"
	printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
	printf '  "results": [\n'
	# go test separates columns with raw tabs, which JSON forbids inside a
	# string: escape them (after backslashes, before quoting).
	grep '^Benchmark' "$RAW" | sed 's/\\/\\\\/g; s/"/\\"/g; s/'"$TAB"'/\\t/g; s/.*/    "&"/' | sed '$!s/$/,/'
	printf '  ]\n'
	printf '}\n'
} >"$OUT"

echo "wrote $OUT"

#!/usr/bin/env sh
# bench_compare.sh — compare two BENCH_<stamp>.json snapshots (as written by
# scripts/bench.sh) benchmark by benchmark, benchstat-style, and gate on
# ingestion-throughput regressions.
#
# Usage:
#   scripts/bench_compare.sh OLD.json NEW.json [gate-regex] [threshold-pct]
#
# Prints old/new ns/op and the delta for every benchmark present in both
# snapshots. Exits non-zero when any benchmark matching gate-regex regresses
# by more than threshold-pct percent ns/op (default 10). The default gate
# covers the ingestion suites (Observe*/RankObserve*, including the
# ObserveTransport/ObserveBatchTransport cross-transport family), the
# concurrent-ingest path (MultiProducerIngest*), the merge-tree suite, and
# the wire codec round trip. Uses `benchstat` for the pretty report when it
# is installed; the gate itself has no dependencies beyond POSIX sh + awk.
set -eu

if [ "$#" -lt 2 ]; then
	echo "usage: $0 OLD.json NEW.json [gate-regex] [threshold-pct]" >&2
	exit 2
fi
OLD="$1"
NEW="$2"
GATE="${3:-^Benchmark(Observe|ObserveTransport|ObserveBatchTransport|RankObserve|MultiProducerIngest|Merge|WireRoundTrip|TreeFanIn)}"
THRESHOLD="${4:-10}"

# extract <file> — recover the raw `go test -bench` lines from the snapshot.
# Column separators are JSON-escaped tabs (\t); stamps written before
# bench.sh escaped them carry raw tabs, which pass through unchanged.
TAB="$(printf '\t')"
extract() {
	sed -n 's/^[[:space:]]*"\(Benchmark.*\)",\{0,1\}$/\1/p' "$1" | sed 's/\\t/'"$TAB"'/g'
}

if command -v benchstat >/dev/null 2>&1; then
	OLDTXT="$(mktemp)" NEWTXT="$(mktemp)"
	trap 'rm -f "$OLDTXT" "$NEWTXT"' EXIT
	extract "$OLD" >"$OLDTXT"
	extract "$NEW" >"$NEWTXT"
	benchstat "$OLDTXT" "$NEWTXT" || true
fi

{ extract "$OLD" | sed 's/^/OLD /'; extract "$NEW" | sed 's/^/NEW /'; } | awk -v gate="$GATE" -v thr="$THRESHOLD" '
{
	which = $1
	name = $2
	ns = ""
	for (i = 3; i <= NF; i++) if ($i == "ns/op") { ns = $(i - 1); break }
	if (ns == "") next
	if (which == "OLD") old[name] = ns
	else new[name] = ns
}
END {
	worst = 0
	printf "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
	for (name in new) {
		if (!(name in old)) continue
		delta = (new[name] - old[name]) / old[name] * 100
		mark = ""
		if (name ~ gate) {
			mark = " [gated]"
			if (delta > worst) worst = delta
			if (delta > thr) mark = " [REGRESSION]"
		}
		printf "%-55s %14s %14s %+8.1f%%%s\n", name, old[name], new[name], delta, mark
	}
	printf "worst gated delta: %+.1f%% (threshold +%s%%)\n", worst, thr
	if (worst > thr) exit 1
}
' || { echo "bench_compare: ns/op regression above ${THRESHOLD}% in gated benchmarks" >&2; exit 1; }

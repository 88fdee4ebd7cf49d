#!/bin/sh
# Serving smoke drill: boot a single-process tracker-as-a-service
# (`tracksim serve -local`), point `tracksim loadgen` at it with a mixed
# read/write workload and -check (flush, then compare /v1/count against
# the acknowledged arrival total), curl every query endpoint asserting
# the documented status codes — unsupported queries must 404, never 500 —
# and require a parseable Prometheus exposition. Finishes with SIGINT and
# expects the graceful drain to exit cleanly. A second row boots a
# distributed coordinator (`tracksim serve -k 2 -http`) that no site ever
# dials: its probes must answer at once and SIGINT must stop it.
#
#   sh scripts/serve_smoke.sh [port]
#
# Exits non-zero on any divergence. Used by CI's serve smoke step;
# runnable locally anytime (needs the go toolchain, curl, and a free
# loopback port).
set -eu

PORT="${1:-7981}"
ADDR="127.0.0.1:$PORT"
DIR="$(mktemp -d)"
BIN="$DIR/tracksim"
trap 'kill -9 $SRV_PID 2>/dev/null || true; rm -rf "$DIR"' EXIT
SRV_PID=

go build -o "$BIN" ./cmd/tracksim

"$BIN" serve -local -http "$ADDR" -problem count -alg deterministic \
    -k 8 -eps 0.1 >"$DIR/serve.log" 2>&1 &
SRV_PID=$!

# Wait for the API to come up.
i=0
until curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "serve_smoke: server never became healthy" >&2
        cat "$DIR/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done

# Mixed traffic + correctness check (loadgen fails the run itself if the
# flushed estimate leaves the ε band around the acknowledged arrivals).
"$BIN" loadgen -addr "$ADDR" -duration 3s -workers 4 -qps 2000 \
    -readratio 0.3 -check

code() { # code METHOD PATH [BODY] -> HTTP status
    if [ "$1" = POST ] && [ $# -ge 3 ]; then
        curl -s -o /dev/null -w '%{http_code}' -X POST -d "$3" "http://$ADDR$2"
    elif [ "$1" = POST ]; then
        curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR$2"
    else
        curl -s -o /dev/null -w '%{http_code}' "http://$ADDR$2"
    fi
}

expect() { # expect WANT GOT LABEL
    if [ "$2" != "$1" ]; then
        echo "serve_smoke: $3 returned $2, want $1" >&2
        exit 1
    fi
}

expect 200 "$(code GET /v1/healthz)" "healthz"
expect 200 "$(code GET /v1/count)" "count"
expect 200 "$(code GET /metrics)" "metrics"
expect 200 "$(code POST /v1/observe '{"site":0,"count":3}')" "observe"
expect 200 "$(code POST /v1/flush)" "flush"
# A count deployment has no freq/rank/quantile answers: 404, never 500.
expect 404 "$(code GET '/v1/freq?item=1')" "freq on count problem"
expect 404 "$(code GET '/v1/rank?value=1')" "rank on count problem"
expect 404 "$(code GET '/v1/quantile?phi=0.5')" "quantile on count problem"
# Malformed parameters are the caller's fault.
expect 400 "$(code POST /v1/observe '{"site":-1}')" "bad site"
expect 405 "$(code GET /v1/observe)" "GET observe"

# The exposition must carry our metric family and only parseable samples.
curl -fsS "http://$ADDR/metrics" >"$DIR/metrics.txt"
grep -q '^disttrack_up 1$' "$DIR/metrics.txt" || {
    echo "serve_smoke: disttrack_up 1 missing from /metrics" >&2
    exit 1
}
grep -q '^disttrack_arrivals_total ' "$DIR/metrics.txt" || {
    echo "serve_smoke: disttrack_arrivals_total missing from /metrics" >&2
    exit 1
}
if grep -v '^#' "$DIR/metrics.txt" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(e[+-][0-9]+)?$' | grep -q .; then
    echo "serve_smoke: unparseable sample line in /metrics:" >&2
    grep -v '^#' "$DIR/metrics.txt" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(e[+-][0-9]+)?$' >&2
    exit 1
fi

# Graceful drain: SIGINT must flush, seal, and exit zero. (The shutdown
# path is bounded — a 10s HTTP drain deadline plus the flush — so wait
# cannot hang; CI's step timeout is the backstop regardless.)
kill -INT "$SRV_PID"
wait "$SRV_PID" && RC=0 || RC=$?
if [ "$RC" -ne 0 ]; then
    echo "serve_smoke: serve exited $RC after SIGINT" >&2
    cat "$DIR/serve.log" >&2
    exit 1
fi
grep -q 'drained' "$DIR/serve.log" || {
    echo "serve_smoke: no drain line in serve log" >&2
    cat "$DIR/serve.log" >&2
    exit 1
}
SRV_PID=

# Distributed row: a coordinator still waiting for its sites must answer
# probes at once — healthz degraded (200), queries 503, disttrack_up 0 —
# and SIGINT must stop it while it assembles.
DIST_HTTP="127.0.0.1:$((PORT + 1))"
"$BIN" serve -addr "127.0.0.1:$((PORT + 2))" -http "$DIST_HTTP" -k 2 \
    >"$DIR/dist.log" 2>&1 &
SRV_PID=$!
i=0
until curl -s --max-time 3 "http://$DIST_HTTP/v1/healthz" >"$DIR/health.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "serve_smoke: assembling coordinator never answered /v1/healthz" >&2
        cat "$DIR/dist.log" >&2
        exit 1
    fi
    sleep 0.1
done
grep -q '"degraded"' "$DIR/health.json" || {
    echo "serve_smoke: assembling healthz is not degraded: $(cat "$DIR/health.json")" >&2
    exit 1
}
dcode() { curl -s --max-time 3 -o /dev/null -w '%{http_code}' "http://$DIST_HTTP$1" || true; }
expect 200 "$(dcode /v1/healthz)" "assembling healthz"
expect 503 "$(dcode /v1/count)" "assembling count"
curl -s --max-time 3 "http://$DIST_HTTP/metrics" >"$DIR/dist_metrics.txt" || true
grep -q '^disttrack_up 0$' "$DIR/dist_metrics.txt" || {
    echo "serve_smoke: disttrack_up 0 missing from the assembling coordinator's /metrics" >&2
    exit 1
}
kill -INT "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "serve_smoke: assembling coordinator still running 5s after SIGINT" >&2
        cat "$DIR/dist.log" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$SRV_PID" && RC=0 || RC=$?
if [ "$RC" -ne 0 ]; then
    echo "serve_smoke: assembling coordinator exited $RC after SIGINT" >&2
    cat "$DIR/dist.log" >&2
    exit 1
fi
SRV_PID=

echo "serve_smoke: OK"

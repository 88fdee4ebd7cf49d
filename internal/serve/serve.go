// Package serve is the tracker-as-a-service surface: an HTTP/JSON query
// API (count, frequency, rank, quantile) plus a Prometheus-format /metrics
// endpoint, served over any tracking deployment through a small Backend
// interface. The package is deliberately dependency-neutral — it imports
// only the standard library, so both the disttrack facade (single-process
// trackers) and cmd/tracksim's distributed coordinator can sit behind it
// without import cycles.
//
// Endpoints:
//
//	GET  /v1/count             → {"estimate": n̂}
//	GET  /v1/freq?item=N       → {"item": N, "estimate": f̂}
//	GET  /v1/rank?value=X      → {"value": X, "rank": r̂}
//	GET  /v1/quantile?phi=Q    → {"phi": Q, "value": v}
//	POST /v1/observe           ← {"site": S, "item": N, "value": X, "count": C}
//	POST /v1/flush             → {"ok": true}   (everything-observed barrier)
//	GET  /v1/healthz           → deployment info + arrivals + live sites
//	GET  /metrics              → Prometheus text exposition
//
// Queries a deployment cannot answer (a count tracker asked for a rank, a
// distributed coordinator asked to Observe) return 404 with a JSON error —
// the endpoint is absent for this deployment, not broken. A backend that
// is temporarily unable to answer (still assembling its sites) returns
// 503. Malformed parameters return 400. /metrics and /v1/healthz never
// fail: when the backend cannot produce a snapshot they degrade — the
// exposition carries disttrack_up 0 and the health document reports the
// error — so probes and scrapes keep working through outages.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrUnsupported marks a query the deployment behind the Backend cannot
// answer at all (as opposed to a transient failure): a frequency query
// against a count tracker, an Observe against a distributed coordinator
// whose ingest runs on remote site processes. The handler maps it to 404.
var ErrUnsupported = errors.New("serve: not supported by this deployment")

// FaultCounts mirrors the tracker's fault-injection counters (all zero
// without a fault plan).
type FaultCounts struct {
	Dropped     int64
	Retransmits int64
	Duplicated  int64
	Reordered   int64
	Delayed     int64
	Partitioned int64
}

// Snapshot is a consistent reading of a deployment's cost and health
// ledger, the neutral image of disttrack.Metrics / runtime.Metrics that
// /metrics and /v1/healthz export.
type Snapshot struct {
	Arrivals       int64
	MessagesUp     int64
	MessagesDown   int64
	WordsUp        int64
	WordsDown      int64
	Broadcasts     int64
	Dropped        int64
	LiveSites      int
	MaxSiteSpace   int
	MaxCoordSpace  int
	Snapshots      int64
	ReplayedFrames int64
	Resyncs        int64
	Depth          int
	LevelMessages  [2]int64
	LevelWords     [2]int64
	Faults         FaultCounts
}

// Info describes the deployment: static facts the server reports in
// /v1/healthz and as labels on the disttrack_info metric.
type Info struct {
	Problem   string
	Algorithm string
	Transport string
	Topology  string
	K         int
	Epsilon   float64
}

// Backend answers queries against a live tracking deployment. Estimates
// must be internally consistent reads (the callers behind disttrack run
// them at quiescent instants); methods are called concurrently from HTTP
// handler goroutines and must be safe for that. A method that the
// deployment cannot ever answer returns ErrUnsupported; any other error is
// treated as transient (503).
type Backend interface {
	Count() (float64, error)
	Freq(item int64) (float64, error)
	Rank(value float64) (float64, error)
	Quantile(phi float64) (float64, error)
	Observe(site int, item int64, value float64, count int64) error
	Flush() error
	Snapshot() (Snapshot, error)
}

// Funcs adapts closures to the Backend interface; a nil field answers
// ErrUnsupported. This is how the facade trackers and the distributed
// coordinator wire themselves in without this package importing them.
type Funcs struct {
	CountFn    func() (float64, error)
	FreqFn     func(item int64) (float64, error)
	RankFn     func(value float64) (float64, error)
	QuantileFn func(phi float64) (float64, error)
	ObserveFn  func(site int, item int64, value float64, count int64) error
	FlushFn    func() error
	SnapshotFn func() (Snapshot, error)
}

func (f Funcs) Count() (float64, error) {
	if f.CountFn == nil {
		return 0, ErrUnsupported
	}
	return f.CountFn()
}

func (f Funcs) Freq(item int64) (float64, error) {
	if f.FreqFn == nil {
		return 0, ErrUnsupported
	}
	return f.FreqFn(item)
}

func (f Funcs) Rank(value float64) (float64, error) {
	if f.RankFn == nil {
		return 0, ErrUnsupported
	}
	return f.RankFn(value)
}

func (f Funcs) Quantile(phi float64) (float64, error) {
	if f.QuantileFn == nil {
		return 0, ErrUnsupported
	}
	return f.QuantileFn(phi)
}

func (f Funcs) Observe(site int, item int64, value float64, count int64) error {
	if f.ObserveFn == nil {
		return ErrUnsupported
	}
	return f.ObserveFn(site, item, value, count)
}

func (f Funcs) Flush() error {
	if f.FlushFn == nil {
		return ErrUnsupported
	}
	return f.FlushFn()
}

func (f Funcs) Snapshot() (Snapshot, error) {
	if f.SnapshotFn == nil {
		return Snapshot{}, ErrUnsupported
	}
	return f.SnapshotFn()
}

// endpoint indexes the per-endpoint HTTP request counters exported as
// disttrack_http_requests_total{path=...}.
type endpoint int

const (
	epCount endpoint = iota
	epFreq
	epRank
	epQuantile
	epObserve
	epFlush
	epHealthz
	epMetrics
	epCounters // len marker
)

var endpointPath = [epCounters]string{
	"/v1/count", "/v1/freq", "/v1/rank", "/v1/quantile",
	"/v1/observe", "/v1/flush", "/v1/healthz", "/metrics",
}

// Server serves the HTTP/JSON query API and the Prometheus exposition over
// one Backend. The zero value with a Backend is ready; Handler builds the
// mux lazily and is safe for concurrent use.
type Server struct {
	Backend Backend
	Info    Info

	once sync.Once
	mux  *http.ServeMux
	reqs [epCounters]atomic.Int64
	errs atomic.Int64
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler {
	s.once.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc(endpointPath[epCount], s.handleCount)
		mux.HandleFunc(endpointPath[epFreq], s.handleFreq)
		mux.HandleFunc(endpointPath[epRank], s.handleRank)
		mux.HandleFunc(endpointPath[epQuantile], s.handleQuantile)
		mux.HandleFunc(endpointPath[epObserve], s.handleObserve)
		mux.HandleFunc(endpointPath[epFlush], s.handleFlush)
		mux.HandleFunc(endpointPath[epHealthz], s.handleHealthz)
		mux.HandleFunc(endpointPath[epMetrics], s.handleMetrics)
		s.mux = mux
	})
	return s.mux
}

// writeJSON emits one JSON document; the encoder cannot fail on the maps
// and structs this package builds, so errors are not rechecked.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// fail maps a backend error onto the endpoint contract: ErrUnsupported is
// 404 (this deployment has no such query), anything else 503 (transient).
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errs.Add(1)
	status := http.StatusServiceUnavailable
	if errors.Is(err, ErrUnsupported) {
		status = http.StatusNotFound
	}
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.errs.Add(1)
	s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// guard counts the request and enforces the endpoint's method; it reports
// whether the handler should proceed.
func (s *Server) guard(w http.ResponseWriter, r *http.Request, ep endpoint, method string) bool {
	s.reqs[ep].Add(1)
	if r.Method != method {
		s.errs.Add(1)
		w.Header().Set("Allow", method)
		s.writeJSON(w, http.StatusMethodNotAllowed,
			map[string]string{"error": method + " only"})
		return false
	}
	return true
}

// queryFloat parses a required float query parameter.
func queryFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing ?%s=", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epCount, http.MethodGet) {
		return
	}
	est, err := s.Backend.Count()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]float64{"estimate": est})
}

func (s *Server) handleFreq(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epFreq, http.MethodGet) {
		return
	}
	raw := r.URL.Query().Get("item")
	if raw == "" {
		s.badRequest(w, "missing ?item=")
		return
	}
	item, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		s.badRequest(w, "bad item %q", raw)
		return
	}
	est, err := s.Backend.Freq(item)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"item": item, "estimate": est})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epRank, http.MethodGet) {
		return
	}
	value, err := queryFloat(r, "value")
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	rank, err := s.Backend.Rank(value)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]float64{"value": value, "rank": rank})
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epQuantile, http.MethodGet) {
		return
	}
	phi, err := queryFloat(r, "phi")
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	if phi < 0 || phi > 1 {
		s.badRequest(w, "phi %g outside [0,1]", phi)
		return
	}
	v, err := s.Backend.Quantile(phi)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]float64{"phi": phi, "value": v})
}

// observeReq is the /v1/observe body. Count defaults to 1 when omitted.
type observeReq struct {
	Site  int     `json:"site"`
	Item  int64   `json:"item"`
	Value float64 `json:"value"`
	Count int64   `json:"count"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epObserve, http.MethodPost) {
		return
	}
	var req observeReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, "bad body: %v", err)
		return
	}
	if req.Count == 0 {
		req.Count = 1
	}
	if req.Count < 0 {
		s.badRequest(w, "negative count %d", req.Count)
		return
	}
	if req.Site < 0 || (s.Info.K > 0 && req.Site >= s.Info.K) {
		s.badRequest(w, "site %d out of range [0, %d)", req.Site, s.Info.K)
		return
	}
	if err := s.Backend.Observe(req.Site, req.Item, req.Value, req.Count); err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epFlush, http.MethodPost) {
		return
	}
	if err := s.Backend.Flush(); err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epHealthz, http.MethodGet) {
		return
	}
	doc := map[string]any{
		"status":    "ok",
		"problem":   s.Info.Problem,
		"algorithm": s.Info.Algorithm,
		"transport": s.Info.Transport,
		"topology":  s.Info.Topology,
		"k":         s.Info.K,
		"epsilon":   s.Info.Epsilon,
	}
	if snap, err := s.Backend.Snapshot(); err != nil {
		// Degraded, not down: the probe keeps answering 200 so orchestrators
		// do not kill a coordinator that is merely assembling its sites.
		doc["status"] = "degraded"
		doc["error"] = err.Error()
	} else {
		doc["arrivals"] = snap.Arrivals
		doc["live_sites"] = snap.LiveSites
	}
	s.writeJSON(w, http.StatusOK, doc)
}

// promEscape escapes a Prometheus label value.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promWriter accumulates Prometheus text exposition lines.
type promWriter struct{ b strings.Builder }

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) val(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s%s %g\n", name, labels, v)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.val(name, "", float64(v))
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.val(name, "", v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.guard(w, r, epMetrics, http.MethodGet) {
		return
	}
	var p promWriter
	p.header("disttrack_info", "Deployment shape (always 1; facts ride the labels).", "gauge")
	p.val("disttrack_info", fmt.Sprintf(
		`problem="%s",algorithm="%s",transport="%s",topology="%s"`,
		promEscape(s.Info.Problem), promEscape(s.Info.Algorithm),
		promEscape(s.Info.Transport), promEscape(s.Info.Topology)), 1)
	p.gauge("disttrack_sites", "Configured number of sites (k).", float64(s.Info.K))
	p.gauge("disttrack_epsilon", "Target relative error.", s.Info.Epsilon)

	p.header("disttrack_http_requests_total", "HTTP requests served, by path.", "counter")
	for ep := endpoint(0); ep < epCounters; ep++ {
		p.val("disttrack_http_requests_total",
			fmt.Sprintf(`path="%s"`, endpointPath[ep]), float64(s.reqs[ep].Load()))
	}
	p.counter("disttrack_http_errors_total",
		"HTTP requests answered with a non-2xx status.", s.errs.Load())

	snap, err := s.Backend.Snapshot()
	if err != nil {
		// Scrapes must survive a backend outage: export liveness 0 and stop.
		p.gauge("disttrack_up", "Whether the tracker ledger is readable (1) or not (0).", 0)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, p.b.String())
		return
	}
	p.gauge("disttrack_up", "Whether the tracker ledger is readable (1) or not (0).", 1)
	p.counter("disttrack_arrivals_total", "Elements observed across all sites.", snap.Arrivals)
	p.header("disttrack_messages_total",
		"Protocol messages exchanged, by direction (up = site to coordinator).", "counter")
	p.val("disttrack_messages_total", `direction="up"`, float64(snap.MessagesUp))
	p.val("disttrack_messages_total", `direction="down"`, float64(snap.MessagesDown))
	p.header("disttrack_words_total",
		"Communication volume in the paper's word units, by direction.", "counter")
	p.val("disttrack_words_total", `direction="up"`, float64(snap.WordsUp))
	p.val("disttrack_words_total", `direction="down"`, float64(snap.WordsDown))
	p.counter("disttrack_broadcasts_total", "Coordinator broadcast operations.", snap.Broadcasts)
	p.counter("disttrack_dropped_total",
		"Elements shed by the ingestion frontend (IngestDrop or terminal failure).", snap.Dropped)
	p.gauge("disttrack_live_sites", "Sites currently reachable.", float64(snap.LiveSites))
	p.gauge("disttrack_site_space_words_max",
		"High-water per-site working space in words.", float64(snap.MaxSiteSpace))
	p.gauge("disttrack_coord_space_words_max",
		"High-water coordinator working space in words.", float64(snap.MaxCoordSpace))
	p.counter("disttrack_snapshots_total",
		"Coordinator-state snapshots written to the durable store.", snap.Snapshots)
	p.gauge("disttrack_replayed_frames",
		"WAL frames replayed by the most recent coordinator recovery.", float64(snap.ReplayedFrames))
	p.counter("disttrack_resyncs_total", "Site resync replays served to rejoining sites.", snap.Resyncs)
	if snap.Depth > 0 {
		p.gauge("disttrack_tree_depth", "Coordination tree depth (0 = flat star).", float64(snap.Depth))
		p.header("disttrack_level_messages_total",
			"Messages per tree level (0 = leaf, 1 = root fan-in).", "counter")
		p.val("disttrack_level_messages_total", `level="0"`, float64(snap.LevelMessages[0]))
		p.val("disttrack_level_messages_total", `level="1"`, float64(snap.LevelMessages[1]))
		p.header("disttrack_level_words_total", "Words per tree level.", "counter")
		p.val("disttrack_level_words_total", `level="0"`, float64(snap.LevelWords[0]))
		p.val("disttrack_level_words_total", `level="1"`, float64(snap.LevelWords[1]))
	}
	f := snap.Faults
	if f != (FaultCounts{}) {
		p.header("disttrack_faults_total", "Injected fault events, by kind.", "counter")
		p.val("disttrack_faults_total", `kind="dropped"`, float64(f.Dropped))
		p.val("disttrack_faults_total", `kind="retransmits"`, float64(f.Retransmits))
		p.val("disttrack_faults_total", `kind="duplicated"`, float64(f.Duplicated))
		p.val("disttrack_faults_total", `kind="reordered"`, float64(f.Reordered))
		p.val("disttrack_faults_total", `kind="delayed"`, float64(f.Delayed))
		p.val("disttrack_faults_total", `kind="partitioned"`, float64(f.Partitioned))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}

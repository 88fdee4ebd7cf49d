package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disttrack"
	"disttrack/internal/serve"
)

// request kinds of the HTTP mix
const (
	reqObserve = iota
	reqQuery
	reqMetrics
	reqKinds
)

var reqKindName = [reqKinds]string{"observe", "query", "metrics"}

// minResolvable is the smallest ε·n at which an HTTP answer is audited for
// accuracy. An acknowledged observe is staged, not yet applied, and while
// the drainer sits in a WAL snapshot the backlog reaches a few hundred
// elements; the band must be an order of magnitude wider than that before
// a miss says anything about the tracker.
const minResolvable = 2048

// stack is one serving deployment: tracker, serve.Server and a real
// listener, the way cmd/tracksim serve -local wires them.
type stack struct {
	base    string
	srv     *http.Server
	tk      tracker
	store   disttrack.PersistStore
	dir     string
	served  chan struct{}
	probe   *serveProbe // nil untraced
	setupS  float64
	metrics func() disttrack.Metrics
}

// serveProbe holds the traced run's instruments inside the server: the
// middleware around Handler() and the wrapped serve.Funcs.
type serveProbe struct {
	tr        *tracer
	mu        sync.Mutex
	handlerUS [reqKinds][]float64
	backendUS [reqKinds][]float64
	// observeNsPerElem is each backend observe call's time over the
	// elements it carried.
	observeNsPerElem []float64
}

func (p *serveProbe) handler(kind int, parent, group int32, t0, t1 time.Time) {
	p.tr.add("serve.handler."+reqKindName[kind], parent, group, t0, t1)
	p.mu.Lock()
	p.handlerUS[kind] = append(p.handlerUS[kind], float64(t1.Sub(t0))/1e3)
	p.mu.Unlock()
}

// backend records one wrapped serve.Funcs call that carried elems elements.
func (p *serveProbe) backend(kind int, t0 time.Time, elems int64) {
	t1 := time.Now()
	p.tr.add("serve.backend."+reqKindName[kind], -1, -1, t0, t1)
	p.mu.Lock()
	p.backendUS[kind] = append(p.backendUS[kind], float64(t1.Sub(t0))/1e3)
	if kind == reqObserve {
		p.observeNsPerElem = append(p.observeNsPerElem, float64(t1.Sub(t0))/float64(elems))
	}
	p.mu.Unlock()
}

func kindOfPath(path string) int {
	switch {
	case path == "/v1/observe":
		return reqObserve
	case path == "/metrics":
		return reqMetrics
	default:
		return reqQuery
	}
}

// startStack builds the serving stack over a fresh disk store under dir.
// The time it takes is the workload's set-up time.
func startStack(sp spec, seed uint64, dir string, probe *serveProbe) (*stack, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := disttrack.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	opt := sp.Opt
	opt.Seed = seed
	opt.Persist = store
	tk := newTracker(sp.Problem, opt)
	s := &stack{tk: tk, store: store, dir: dir, probe: probe, served: make(chan struct{}), metrics: tk.Metrics}

	timed := func(kind int, elems int64) func() { // defer timed(...)() around a backend call
		if probe == nil {
			return func() {}
		}
		t0 := time.Now()
		return func() { probe.backend(kind, t0, elems) }
	}
	fn := serve.Funcs{
		FlushFn: tk.Flush,
		SnapshotFn: func() (serve.Snapshot, error) {
			defer timed(reqMetrics, 0)()
			m := tk.Metrics()
			return serve.Snapshot{Arrivals: m.Arrivals, MessagesUp: m.MessagesUp, MessagesDown: m.MessagesDown,
				WordsUp: m.WordsUp, WordsDown: m.WordsDown, Broadcasts: m.Broadcasts, Dropped: m.Dropped,
				LiveSites: m.LiveSites, MaxSiteSpace: m.MaxSiteSpace, MaxCoordSpace: m.MaxCoordSpace,
				Snapshots: m.Snapshots}, nil
		},
	}
	switch t := tk.(type) {
	case countTracker:
		fn.CountFn = func() (float64, error) { defer timed(reqQuery, 0)(); return t.Estimate(), nil }
		fn.ObserveFn = func(site int, _ int64, _ float64, n int64) error {
			defer timed(reqObserve, n)()
			t.ObserveBatch(site, int(n))
			return nil
		}
	case freqTracker:
		fn.FreqFn = func(item int64) (float64, error) { defer timed(reqQuery, 0)(); return t.Estimate(item), nil }
		fn.ObserveFn = func(site int, item int64, _ float64, n int64) error {
			defer timed(reqObserve, n)()
			t.ObserveBatch(site, item, int(n))
			return nil
		}
	case rankTracker:
		fn.RankFn = func(x float64) (float64, error) { defer timed(reqQuery, 0)(); return t.Rank(x), nil }
		fn.ObserveFn = func(site int, _ int64, v float64, n int64) error {
			defer timed(reqObserve, n)()
			t.ObserveBatch(site, v, int(n))
			return nil
		}
	}
	api := &serve.Server{Backend: fn, Info: serve.Info{Problem: sp.Problem.String(),
		Algorithm: "randomized", Transport: opt.Transport.String(), Topology: opt.Topology.String(),
		K: opt.K, Epsilon: opt.Epsilon}}
	inner := api.Handler()
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bench/noop" { // the floor: net/http and the kernel alone
			w.WriteHeader(http.StatusOK)
			return
		}
		if probe == nil {
			inner.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		t1 := time.Now()
		parent, group := int32(-1), int32(-1)
		if f := strings.Split(r.Header.Get("X-Bench-Span"), "/"); len(f) == 2 {
			p, _ := strconv.Atoi(f[0])
			g, _ := strconv.Atoi(f[1])
			parent, group = int32(p), int32(g)
		}
		probe.handler(kindOfPath(r.URL.Path), parent, group, t0, t1)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tk.Close()
		store.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	go func() {
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
		close(s.served)
	}()
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// flush is the everything-acknowledged-is-applied barrier, over HTTP.
func (s *stack) flush(c *client) (float64, error) {
	t0 := time.Now()
	code, _, err := c.do(http.MethodPost, s.base+"/v1/flush", "", "")
	if err == nil && code != 200 {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		err = fmt.Errorf("POST /v1/flush: %w", err)
	}
	return time.Since(t0).Seconds(), err
}

// close tears the stack down: graceful HTTP Shutdown, tracker Close (which
// seals the WAL with a snapshot and a sync), store Close.
func (s *stack) close(clients []*client) (float64, error) {
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The keep-alive connections are idle, so Shutdown closes them itself
	// and returns at once (~0.1 ms); closing them from the client side first
	// races its idle check, and losing costs a 1 ms poll interval.
	err := s.srv.Shutdown(ctx)
	<-s.served
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if e := s.tk.Close(); e != nil && err == nil {
		err = fmt.Errorf("tracker Close: %w", e)
	}
	if e := s.store.Close(); e != nil && err == nil {
		err = fmt.Errorf("store Close: %w", e)
	}
	return time.Since(t0).Seconds(), err
}

// client is one closed-loop HTTP client holding exactly one keep-alive
// connection.
type client struct {
	hc   *http.Client
	body bytes.Buffer // reused across requests
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// do sends one request and returns the status and body (valid until the
// client's next request).
func (c *client) do(method, url, body, spanHeader string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if spanHeader != "" {
		req.Header.Set("X-Bench-Span", spanHeader)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// httpReq is one precomputed request of the mix.
type httpReq struct {
	kind  uint8
	count int32
	qi    int8 // index into load.qItems for a query, or of the observed item when it is tracked, else -1
}

// load is the shared state of the client side: the request schedule and
// the exact ledger answers are audited against.
type load struct {
	sp   spec
	st   *stream
	base string
	reqs []httpReq // request i is reqs[i%len]; its event is stream position i%n
	tr   *tracer
	next atomic.Int64

	// qItems are the items queries ask about; sent/acked count their
	// elements as requested and as acknowledged (2xx), so a concurrent
	// answer is audited against the interval the two bracket.
	qItems                []int64
	sent, acked           []atomic.Int64
	sentTotal, ackedTotal atomic.Int64
}

// sample is one completed request.
type sample struct {
	kind     uint8
	seq      int64 // position in the request schedule
	ok       bool
	lat, gen float64 // latency and generator lateness, µs
	errRatio float64 // query error ÷ ε·n, or -1 when not audited
}

func newLoad(sp spec, st *stream, seed uint64, base string, tr *tracer) *load {
	h := sp.HTTP
	l := &load{sp: sp, st: st, base: base, tr: tr}
	r := newRNG(seed ^ 0x68747470)
	idx := map[int64]int8{}
	if sp.Problem == probFreq {
		for i := 0; i < 16; i++ { // eight heavy hitters, eight from the tail
			item := int64(i)
			if i >= 8 {
				item = int64(1000 + r.intn(sp.Universe-1000))
			}
			if _, dup := idx[item]; !dup {
				idx[item] = int8(len(l.qItems))
				l.qItems = append(l.qItems, item)
			}
		}
	}
	l.sent = make([]atomic.Int64, len(l.qItems))
	l.acked = make([]atomic.Int64, len(l.qItems))
	n := len(st.sites)
	l.reqs = make([]httpReq, n)
	for i := range l.reqs {
		q := httpReq{qi: -1, count: 1}
		switch u := r.float(); {
		case u < h.ObserveFrac:
			q.kind = reqObserve
			if r.float() < h.BatchFrac {
				q.count = int32(h.BatchCount)
			}
			if st.items != nil {
				if j, ok := idx[st.items[i]]; ok {
					q.qi = j
				}
			}
		case u < h.ObserveFrac+h.QueryFrac:
			q.kind = reqQuery
			if len(l.qItems) > 0 {
				q.qi = int8(r.intn(len(l.qItems)))
			}
		default:
			q.kind = reqMetrics
		}
		l.reqs[i] = q
	}
	return l
}

// issue performs request i on client c and audits the reply. due is the
// instant latency is charged from (the send instant in a closed loop).
func (l *load) issue(c *client, i int64, due time.Time) sample {
	n := int64(len(l.st.sites))
	pos := i % n
	q := l.reqs[pos]
	s := sample{kind: q.kind, seq: i, errRatio: -1}
	sent := time.Now()
	s.gen = float64(sent.Sub(due)) / 1e3
	hdr := ""
	id := int32(-1)
	if l.tr != nil {
		id = l.tr.begin("client."+reqKindName[q.kind], -1, int32(i))
		hdr = strconv.Itoa(int(id)) + "/" + strconv.FormatInt(i, 10)
	}
	var code int
	var body []byte
	var err error
	switch q.kind {
	case reqObserve:
		b := make([]byte, 0, 96)
		b = append(b, `{"site":`...)
		b = strconv.AppendInt(b, int64(l.st.sites[pos]), 10)
		if l.st.items != nil {
			b = append(b, `,"item":`...)
			b = strconv.AppendInt(b, l.st.items[pos], 10)
		}
		if l.st.values != nil {
			b = append(b, `,"value":`...)
			b = strconv.AppendFloat(b, l.st.values[pos], 'g', -1, 64)
		}
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(q.count), 10)
		b = append(b, '}')
		if q.qi >= 0 {
			l.sent[q.qi].Add(int64(q.count))
		}
		l.sentTotal.Add(int64(q.count))
		code, _, err = c.do(http.MethodPost, l.base+"/v1/observe", string(b), hdr)
		if err == nil && code == 200 {
			if q.qi >= 0 {
				l.acked[q.qi].Add(int64(q.count))
			}
			l.ackedTotal.Add(int64(q.count))
		}
	case reqQuery:
		switch l.sp.Problem {
		case probCount:
			code, _, err = c.do(http.MethodGet, l.base+"/v1/count", "", hdr)
		case probRank:
			code, _, err = c.do(http.MethodGet, l.base+"/v1/rank?value="+
				strconv.FormatFloat(l.st.values[pos], 'g', -1, 64), "", hdr)
		case probFreq:
			lo, nlo := l.acked[q.qi].Load(), l.ackedTotal.Load()
			code, body, err = c.do(http.MethodGet, l.base+"/v1/freq?item="+
				strconv.FormatInt(l.qItems[q.qi], 10), "", hdr)
			hi := l.sent[q.qi].Load()
			if band := l.sp.Opt.Epsilon * float64(nlo); err == nil && code == 200 && band >= minResolvable {
				if a, ok := jsonNumber(body, `"estimate":`); ok {
					s.errRatio = math.Max(0, math.Max(float64(lo)-a, a-float64(hi))) / band
				} else {
					code = -1 // unparseable answer counts as failed
				}
			}
		}
	case reqMetrics:
		code, _, err = c.do(http.MethodGet, l.base+"/metrics", "", hdr)
	}
	s.lat = float64(time.Since(due)) / 1e3
	l.tr.end(id)
	s.ok = err == nil && code == 200
	return s
}

// jsonNumber extracts the number following key in a small JSON document.
func jsonNumber(doc []byte, key string) (float64, bool) {
	s := string(doc)
	i := strings.Index(s, key)
	if i < 0 {
		return 0, false
	}
	s = strings.TrimLeft(s[i+len(key):], " ")
	end := strings.IndexAny(s, ",}\n ")
	if end < 0 {
		end = len(s)
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	return v, err == nil
}

// closedLoop runs the mix with every client sending its next request as
// soon as the previous reply arrives, for d or until limit requests.
func (l *load) closedLoop(clients []*client, d time.Duration, limit int64) ([]sample, float64) {
	var wg sync.WaitGroup
	out := make([][]sample, len(clients))
	for w := range out { // sized up front: a growing slice is garbage the server's GC would pay for
		out[w] = make([]sample, 0, min(limit, int64(d.Seconds()*30000)+1024))
	}
	start := time.Now()
	deadline := start.Add(d)
	stopAt := l.next.Load() + limit
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				i := l.next.Add(1) - 1
				if now.After(deadline) || i >= stopAt {
					l.next.Add(-1)
					return
				}
				out[w] = append(out[w], l.issue(c, i, now))
			}
		}()
	}
	wg.Wait()
	return flatten(out), time.Since(start).Seconds()
}

// openLoop sends request j of the phase at start + j/rate whatever the
// server does. A client that is free before the next due time waits for it;
// one that is late sends at once, and the latency it records is still
// charged from the due time, so a stall shows up in every request it delays.
func (l *load) openLoop(clients []*client, d time.Duration, rate float64, stall func(j int64)) ([]sample, float64) {
	var wg sync.WaitGroup
	out := make([][]sample, len(clients))
	start := time.Now()
	interval := float64(time.Second) / rate
	total := int64(d.Seconds() * rate)
	base := l.next.Load()
	for w := range out {
		out[w] = make([]sample, 0, total)
	}
	var slot atomic.Int64
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := slot.Add(1) - 1
				if j >= total {
					return
				}
				due := start.Add(time.Duration(float64(j) * interval))
				waitUntil(due)
				if stall != nil {
					stall(j)
				}
				out[w] = append(out[w], l.issue(c, base+j, due))
			}
		}()
	}
	wg.Wait()
	l.next.Add(total)
	return flatten(out), time.Since(start).Seconds()
}

// waitUntil sleeps until shortly before t, then yields until t: the
// scheduler's sleep overshoot would otherwise be charged to the server, and
// a hard spin would take a core from it.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 300*time.Microsecond:
			time.Sleep(d - 200*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// httpRun is the outcome of an HTTP-driven run; the traced ladder reads the
// extra fields.
type httpRun struct {
	result                *runResult
	probe                 *serveProbe
	floorUS               []float64
	allocsPerReq, reqPerS float64
	storeDir              string
	facade                map[string]float64
}

// runHTTP drives the workload over HTTP: set-up cycles, phase A (closed
// loop, capacity), phase B (open loop at the frozen rate, latency), then
// the flush audit and teardown. tr non-nil makes it the traced variant.
func runHTTP(sp spec, seed uint64, seconds float64, outDir string, tr *tracer) *httpRun {
	h := sp.HTTP
	res := newResult(sp, seed, seconds, false)
	run := &httpRun{result: res, facade: map[string]float64{}}
	fail := func(format string, args ...any) { res.Gate = append(res.Gate, fmt.Sprintf(format, args...)) }

	// The served tracker's own ledger depends on how the scheduler
	// interleaved two connections, so it is kept as a diagnostic. The count
	// metrics come from the same tracker configuration fed the workload's
	// epoch block by one caller on the sequential transport: exact, and the
	// number a protocol change would move. It runs first, so that its block
	// is garbage before anything is timed.
	genStart := time.Now()
	var sr *libRun
	if sp.ExactEpochs > 0 {
		shadow := sp
		shadow.Opt = disttrack.Options{K: sp.Opt.K, Epsilon: sp.Opt.Epsilon}
		sr = &libRun{sp: shadow, st: genStream(sp, seed, false), seed: seed}
		res.Detail.StreamDigest = sr.st.digest()
		for e := 0; e < sp.ExactEpochs; e++ {
			sr.epoch(e, false)
		}
		sr.finish()
		sr.st = nil
	}
	// The request schedule cycles over a smaller block: the benchmark's own
	// live heap sets how long the server's GC cycles take, and with them the
	// latency tail, so it is kept small and collected before the clock starts.
	block := sp
	block.EpochElems = h.Block
	st := genStream(block, seed, false)
	res.Detail.GenS = time.Since(genStart).Seconds()
	debug.FreeOSMemory()

	if tr != nil {
		run.probe = &serveProbe{tr: tr}
	}
	tmp, err := os.MkdirTemp(mkOut(outDir), "wal-")
	if err != nil {
		fail("temp dir: %v", err)
		return run
	}
	if tr == nil { // a traced run's store is recovered by the persist probe; its caller removes it
		defer os.RemoveAll(tmp)
	}
	clients := make([]*client, h.Conns)
	for i := range clients {
		clients[i] = newClient()
	}

	// Set-up cycles: each builds the whole stack, serves a short warm-up so
	// there is a WAL to seal, and tears down. The last stack stays up for
	// the measured phases.
	var setupS, drainS []float64
	var sk *stack
	var ld *load
	warm := int64(min(1000, len(st.sites)/2))
	for cyc := 0; cyc < h.Setups; cyc++ {
		sk, err = startStack(sp, epochSeed(seed, cyc), filepath.Join(tmp, strconv.Itoa(cyc)), run.probe)
		if err != nil {
			fail("set-up cycle %d: %v", cyc, err)
			return run
		}
		setupS = append(setupS, sk.setupS)
		ld = newLoad(sp, st, seed, sk.base, nil)
		ws, _ := ld.closedLoop(clients, time.Minute, warm)
		res.Attempted += int64(len(ws))
		res.Failed += countFailed(ws)
		if cyc == h.Setups-1 {
			break
		}
		f, ferr := sk.flush(clients[0])
		c, cerr := sk.close(clients)
		res.Attempted += 2
		for _, err := range []error{ferr, cerr} {
			if err != nil {
				res.Failed++
				fail("set-up cycle %d teardown: %v", cyc, err)
			}
		}
		drainS = append(drainS, f+c)
	}
	ld.tr = tr
	run.storeDir = sk.dir

	if tr != nil { // the floor: same client, no-op handler
		for i := 0; i < 2000; i++ {
			t0 := time.Now()
			clients[0].do(http.MethodGet, sk.base+"/bench/noop", "", "")
			run.floorUS = append(run.floorUS, float64(time.Since(t0))/1e3)
		}
	}

	phase := time.Duration(seconds * 0.45 * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	elems0 := ld.ackedTotal.Load()
	limitA := int64(h.PhaseA)
	if limitA == 0 {
		limitA = math.MaxInt64 / 2
	}
	a, wallA := ld.closedLoop(clients, phase, limitA)
	runtime.ReadMemStats(&ms1)
	elemsA := ld.ackedTotal.Load() - elems0
	okA := int64(len(a)) - countFailed(a)
	run.reqPerS = float64(okA) / wallA
	run.allocsPerReq = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(a))
	run.facade["allocs_per_kelem"] = float64(ms1.Mallocs-ms0.Mallocs) * 1000 / float64(elemsA)
	run.facade["bytes_per_elem"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(elemsA)
	run.facade["gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	b, _ := ld.openLoop(clients, phase, h.OpenRate, nil)
	res.Attempted += int64(len(a) + len(b))
	res.Failed += countFailed(a) + countFailed(b)

	// Flush barrier, then the audit: the exporter must account for every
	// acknowledged element, and with nothing in flight every tracked item
	// must sit inside ε·n of its exact count.
	c0 := clients[0]
	f, err := sk.flush(c0)
	res.Attempted++
	if err != nil {
		res.Failed++
		fail("%v", err)
	}
	acked := ld.ackedTotal.Load()
	if _, body, err := c0.do(http.MethodGet, sk.base+"/metrics", "", ""); err != nil {
		fail("GET /metrics: %v", err)
	} else if got, ok := promValue(body, "disttrack_arrivals_total"); !ok || int64(got) != acked {
		res.Failed += max(1, acked-int64(got))
		fail("/metrics reports %v arrivals after flush, clients hold %d acknowledged elements", got, acked)
	}
	eps := sp.Opt.Epsilon
	for qi, item := range ld.qItems {
		code, body, err := c0.do(http.MethodGet, sk.base+"/v1/freq?item="+strconv.FormatInt(item, 10), "", "")
		ans, ok := jsonNumber(body, `"estimate":`)
		res.Attempted++
		if err != nil || code != 200 || !ok {
			res.Failed++
			fail("final query item %d: status %d, %v", item, code, err)
		} else if off := math.Abs(ans-float64(ld.acked[qi].Load())) / (eps * float64(acked)); off > grossError {
			res.Failed++
			fail("flushed final answer for item %d off by %.2f ε·n", item, off)
		}
	}
	m0 := time.Now()
	m := sk.metrics()
	run.facade["metrics_us"] = float64(time.Since(m0)) / 1e3
	if m.Dropped != 0 || m.Arrivals != acked {
		fail("tracker ledger: %d arrivals, %d dropped, %d acknowledged", m.Arrivals, m.Dropped, acked)
	}
	c, err := sk.close(clients)
	res.Attempted++
	if err != nil {
		res.Failed++
		fail("teardown: %v", err)
	}
	drainS = append(drainS, f+c)
	run.facade["flush_ms"], run.facade["close_ms"] = f*1e3, c*1e3
	run.facade["new_ms"] = median(setupS) * 1e3

	// The accuracy audit over every audited answer of both phases.
	var errSum float64
	var errN, viol int
	for _, s := range append(a[:len(a):len(a)], b...) {
		if s.errRatio >= 0 {
			errSum += s.errRatio
			errN++
			if s.errRatio > 1 {
				viol++
			}
			if s.errRatio > grossError {
				res.Failed++
			}
		}
	}
	if errN == 0 && sp.Problem == probFreq && sp.Opt.Epsilon*float64(ld.ackedTotal.Load()) >= 4*minResolvable {
		fail("no query was audited")
	}
	if float64(viol) > delta*float64(max(1, errN)) {
		fail("%d of %d queries outside ε·n (allowed share %.2f)", viol, errN, delta)
	}

	q := windowed(latencies(b, reqQuery))
	o := windowed(latencies(b, reqObserve))
	late := make([]float64, len(b))
	for i, s := range b {
		late[i] = math.Max(0, s.gen)
	}
	g := summarize(late, 99)
	res.Detail.Timings = map[string]timing{"query_us": q, "observe_us": o, "gen_lateness_us": g}
	if !h.Probe && g.P50 > 1e6/h.OpenRate {
		// a late tail is the server's doing (a client waits for its reply
		// before it can send again); a late median is the generator's
		fail("open-loop generator ran %.0f µs late at the median: it cannot hold %.0f req/s", g.P50, h.OpenRate)
	}
	if !h.Probe && wallA >= 1 && h.OpenRate > 0.5*run.reqPerS { // a shorter phase A is no measure of capacity
		fail("open-loop rate %.0f req/s exceeds half of the measured capacity %.0f req/s", h.OpenRate, run.reqPerS)
	}

	// The served tracker's own ledger depends on how the scheduler
	// interleaved two connections (the round boundaries it lands on move
	// words per element by tens of percent at one seed), so it is kept as a
	// diagnostic. The count metrics come from the same tracker
	// configuration fed the same block by one caller on the sequential
	// transport: exact, and the number a protocol change would move.
	res.Detail.Served = &exactCounts{Arrivals: m.Arrivals, Words: m.Words, Messages: m.Messages,
		ErrSum: errSum, ErrN: errN}
	res.Detail.Queries, res.Detail.EpsViolations = errN, viol

	res.set("setup_s", median(setupS))
	res.set("ingest_melems_per_s", float64(elemsA)/1e6/wallA)
	res.set("ops_per_s", run.reqPerS)
	res.set("query_p50_us", q.P50)
	res.set("query_p95_us", q.Tail)
	res.set("observe_p50_us", o.P50)
	res.set("observe_p95_us", o.Tail)
	res.set("rss_peak_mb", rssPeakMB())
	res.set("drain_s", median(drainS))
	if sr != nil {
		res.Detail.Queries += sr.queries
		res.Detail.EpsViolations += sr.violations
		res.Attempted += sr.attempted
		res.Failed += sr.failed
		for _, gf := range sr.gate {
			fail("sequential replay: %s", gf)
		}
		res.Detail.Exact = &sr.exact
		kelem := float64(sr.exact.Arrivals) / 1000
		res.set("words_per_kelem", float64(sr.exact.Words)/kelem)
		res.set("msgs_per_kelem", float64(sr.exact.Messages)/kelem)
		res.set("err_over_eps_mean", sr.exact.ErrSum/float64(sr.exact.ErrN))
	}
	return run
}

// latencies returns the latencies of one kind of request in schedule order.
func latencies(samples []sample, kind uint8) []float64 {
	ordered := append([]sample(nil), samples...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	var out []float64
	for _, s := range ordered {
		if s.ok && s.kind == kind {
			out = append(out, s.lat)
		}
	}
	return out
}

func countFailed(ss []sample) int64 {
	var n int64
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// promValue finds an unlabelled sample in a Prometheus text exposition.
func promValue(body []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// mkOut creates the output directory and returns it.
func mkOut(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

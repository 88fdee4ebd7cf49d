// The serving surface: tracksim serve -http exposes the HTTP/JSON query
// API and Prometheus /metrics from internal/serve over either deployment
// shape — a distributed coordinator (queries routed onto the tcp serve
// loop via Inspect) or, with -local, an in-process tracker whose ingestion
// also runs over HTTP. tracksim loadgen drives mixed ingest+query traffic
// against either.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"disttrack"
	"disttrack/internal/registry"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/serve"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// localSnapshot maps the facade's ledger onto the serving surface's
// neutral snapshot.
func localSnapshot(m disttrack.Metrics, fs disttrack.FaultStats) serve.Snapshot {
	return serve.Snapshot{
		Arrivals:       m.Arrivals,
		MessagesUp:     m.MessagesUp,
		MessagesDown:   m.MessagesDown,
		WordsUp:        m.WordsUp,
		WordsDown:      m.WordsDown,
		Broadcasts:     m.Broadcasts,
		Dropped:        m.Dropped,
		LiveSites:      m.LiveSites,
		MaxSiteSpace:   m.MaxSiteSpace,
		MaxCoordSpace:  m.MaxCoordSpace,
		Snapshots:      m.Snapshots,
		ReplayedFrames: m.ReplayedFrames,
		Resyncs:        m.Resyncs,
		Depth:          m.Depth,
		LevelMessages:  m.LevelMessages,
		LevelWords:     m.LevelWords,
		Faults: serve.FaultCounts{
			Dropped: fs.Dropped, Retransmits: fs.Retransmits, Duplicated: fs.Duplicated,
			Reordered: fs.Reordered, Delayed: fs.Delayed, Partitioned: fs.Partitioned,
		},
	}
}

// tracker is what the facade's three trackers share.
type tracker interface {
	Flush() error
	Metrics() disttrack.Metrics
	FaultStats() disttrack.FaultStats
	Close() error
}

// localTracker owns one in-process tracker facade wired into the serving
// surface: ObserveFn feeds the concurrent ingestion frontend, queries read
// quiesced snapshots, and Close seals the store (final snapshot + sync).
type localTracker struct {
	tracker
	backend serve.Funcs
}

func newLocalTracker(cfg *distConfig, opt disttrack.Options, qlo, qhi float64) localTracker {
	var lt localTracker
	f := &lt.backend
	switch cfg.problem {
	case "count":
		t := disttrack.NewCountTracker(opt)
		lt.tracker = t
		f.CountFn = func() (float64, error) { return t.Estimate(), nil }
		f.ObserveFn = func(site int, _ int64, _ float64, n int64) error {
			t.ObserveBatch(site, int(n))
			return nil
		}
	case "freq":
		t := disttrack.NewFrequencyTracker(opt)
		lt.tracker = t
		f.FreqFn = func(item int64) (float64, error) { return t.Estimate(item), nil }
		f.ObserveFn = func(site int, item int64, _ float64, n int64) error {
			t.ObserveBatch(site, item, int(n))
			return nil
		}
	case "rank":
		t := disttrack.NewRankTracker(opt)
		lt.tracker = t
		f.RankFn = func(x float64) (float64, error) { return t.Rank(x), nil }
		f.QuantileFn = func(phi float64) (float64, error) {
			v := t.Quantile(phi, qlo, qhi)
			if math.IsNaN(v) {
				return 0, errors.New("no values observed yet")
			}
			return v, nil
		}
		// The total count is the rank of +∞ — free on a rank tracker.
		f.CountFn = func() (float64, error) { return t.Rank(math.Inf(1)), nil }
		f.ObserveFn = func(site int, _ int64, value float64, n int64) error {
			t.ObserveBatch(site, value, int(n))
			return nil
		}
	}
	f.FlushFn = lt.Flush
	f.SnapshotFn = func() (serve.Snapshot, error) {
		return localSnapshot(lt.Metrics(), lt.FaultStats()), nil
	}
	return lt
}

// serveLocal hosts the tracker in this process: ingest and queries both
// arrive over HTTP, the tracker runs with ConcurrentIngest on the chosen
// in-process transport, and SIGINT/SIGTERM drains the frontend and seals
// the store through the tracker's Close path.
func serveLocal(cfg *distConfig, httpAddr, transport string, seed uint64, walDir string, snapEvery int64, qlo, qhi float64) {
	opt := disttrack.Options{
		K: cfg.k, Epsilon: cfg.eps, Algorithm: parseAlg(cfg.alg), Seed: seed,
		Rescale: cfg.rescale, Robust: cfg.robust,
		Transport: parseTransport(transport), ConcurrentIngest: true,
	}
	topo := "flat"
	if cfg.tree() {
		opt.Topology, opt.Fanout = disttrack.TopologyTree, cfg.fanout
		topo = "tree"
	}
	if walDir != "" {
		store, err := disttrack.OpenDiskStore(walDir)
		if err != nil {
			fatalf("%v", err)
		}
		defer store.Close()
		opt.Persist, opt.SnapshotEvery = store, int(snapEvery)
	}
	lt := newLocalTracker(cfg, opt, qlo, qhi)
	api := &serve.Server{Backend: lt.backend, Info: serve.Info{
		Problem: cfg.problem, Algorithm: cfg.alg, Transport: transport,
		Topology: topo, K: cfg.k, Epsilon: cfg.eps,
	}}
	hs := &http.Server{Addr: httpAddr, Handler: api.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	fmt.Printf("local tracker: problem=%s alg=%s k=%d eps=%g transport=%s topology=%s\n",
		cfg.problem, cfg.alg, cfg.k, cfg.eps, transport, topo)
	fmt.Printf("HTTP query API + /metrics on %s (SIGINT/SIGTERM drains and seals)\n", httpAddr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		fatalf("http: %v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "\nreceived %v; draining\n", sig)
	}
	// Stop admitting requests and wait out the in-flight handlers, then
	// drain the ingestion frontend and seal the store — Close writes the
	// final snapshot and syncs, so the WAL directory is a clean resume
	// point with nothing left to replay.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if err := lt.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: flush: %v\n", err)
	}
	if err := lt.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: close: %v\n", err)
	}
	m := lt.Metrics()
	fmt.Printf("drained: %d arrivals (%d dropped), %d messages, %d words, %d broadcasts\n",
		m.Arrivals, m.Dropped, m.Messages, m.Words, m.Broadcasts)
	if walDir != "" {
		fmt.Printf("sealed %s: %d snapshots over the store's lifetime\n", walDir, m.Snapshots)
	}
}

// distBackend routes queries onto the tcp serve loop via Inspect, so they
// run at instants when no frame is mid-application and may read the
// coordinator coherently. Once Serve has returned the loop is gone and the
// coordinator quiescent, so the final state stays queryable by direct
// reads through drain and report.
type distBackend struct {
	srv   *tcp.Server
	mu    sync.Mutex
	done  bool
	final runtime.Metrics
}

var errAssembling = errors.New("coordinator has not finished assembling its sites")

func (b *distBackend) finish(m runtime.Metrics) {
	b.mu.Lock()
	b.done, b.final = true, m
	b.mu.Unlock()
}

func (b *distBackend) run(read func(m runtime.Metrics)) error {
	if b.srv.Inspect(read) {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.done {
		return errAssembling
	}
	read(b.final)
	return nil
}

func distSnapshot(m runtime.Metrics) serve.Snapshot {
	return serve.Snapshot{
		Arrivals:       m.Arrivals,
		MessagesUp:     m.MessagesUp,
		MessagesDown:   m.MessagesDown,
		WordsUp:        m.WordsUp,
		WordsDown:      m.WordsDown,
		Broadcasts:     m.Broadcasts,
		LiveSites:      m.LiveSites,
		MaxSiteSpace:   m.MaxSiteSpace,
		MaxCoordSpace:  m.MaxCoordSpace,
		Snapshots:      m.Snapshots,
		ReplayedFrames: m.ReplayedFrames,
		Resyncs:        m.Resyncs,
	}
}

// distFuncs wires the distributed coordinator's queries into the serving
// surface. Only the deployment's own problem is exposed — a count
// coordinator asked for ranks answers 404, not garbage. There is no
// ObserveFn: ingestion happens on the site processes.
func distFuncs(q registry.Queries, b *distBackend, qlo, qhi float64) serve.Funcs {
	f := serve.Funcs{
		SnapshotFn: func() (serve.Snapshot, error) {
			var s serve.Snapshot
			err := b.run(func(m runtime.Metrics) { s = distSnapshot(m) })
			return s, err
		},
	}
	query := func(fn func() float64) (float64, error) {
		var v float64
		if err := b.run(func(runtime.Metrics) { v = fn() }); err != nil {
			return 0, err
		}
		if math.IsNaN(v) {
			return 0, errors.New("no values observed yet")
		}
		return v, nil
	}
	if q.Count != nil {
		f.CountFn = func() (float64, error) { return query(q.Count) }
	}
	if q.Freq != nil {
		f.FreqFn = func(item int64) (float64, error) {
			return query(func() float64 { return q.Freq(item) })
		}
	}
	if q.Rank != nil {
		f.RankFn = func(x float64) (float64, error) {
			return query(func() float64 { return q.Rank(x) })
		}
		// The total count is the rank of +∞ — free on a rank tracker.
		f.CountFn = func() (float64, error) {
			return query(func() float64 { return q.Rank(math.Inf(1)) })
		}
		f.QuantileFn = func(phi float64) (float64, error) {
			return query(func() float64 { return q.Quantile(phi, qlo, qhi) })
		}
	}
	return f
}

// healthDoc is the subset of /v1/healthz loadgen bootstraps from.
type healthDoc struct {
	Status    string  `json:"status"`
	Problem   string  `json:"problem"`
	Algorithm string  `json:"algorithm"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon"`
	Arrivals  int64   `json:"arrivals"`
}

func fetchHealth(client *http.Client, base string) (healthDoc, error) {
	var doc healthDoc
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// loadgenMain drives configurable mixed ingest+query traffic against a
// tracksim serve -http endpoint and reports achieved throughput and a
// client-side latency histogram. It bootstraps the deployment shape
// (problem, k, ε) from /v1/healthz, so pointing it at any serving tracker
// just works.
func loadgenMain(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of a tracksim serve -http API")
	dur := fs.Duration("duration", 5*time.Second, "how long to run")
	workers := fs.Int("workers", 8, "concurrent client goroutines")
	qps := fs.Float64("qps", 0, "target aggregate request rate (0 = unthrottled)")
	readRatio := fs.Float64("readratio", 0.5, "fraction of requests that are queries; the rest are /v1/observe writes")
	items := fs.Int("items", 1000, "item universe for freq traffic")
	zipfAlpha := fs.Float64("zipf", 1.1, "zipf exponent for item popularity")
	batch := fs.Int("batch", 1, "elements per observe request")
	seed := fs.Uint64("seed", 1, "workload RNG seed")
	check := fs.Bool("check", false,
		"after the run: flush, then exit non-zero unless /v1/count is within ε of the server's arrivals")
	fs.Parse(args)
	if *readRatio < 0 || *readRatio > 1 {
		fatalf("-readratio must be in [0,1] (got %g)", *readRatio)
	}
	if *workers < 1 || *batch < 1 || *items < 1 {
		fatalf("-workers, -batch, and -items must be >= 1")
	}
	if *qps < 0 {
		fatalf("-qps must be >= 0 (0 = unthrottled)")
	}

	base := strings.TrimRight(*addr, "/")
	// Accept a bare host:port the way curl does.
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}
	health, err := fetchHealth(client, base)
	if err != nil {
		fatalf("loadgen: cannot reach %s: %v", base, err)
	}
	if health.K <= 0 {
		fatalf("loadgen: %s/v1/healthz reports k=%d; not a tracksim serve endpoint?", base, health.K)
	}
	fmt.Printf("loadgen: %s — problem=%s alg=%s k=%d eps=%g (%s)\n",
		base, health.Problem, health.Algorithm, health.K, health.Epsilon, health.Status)
	fmt.Printf("traffic: %d workers, %v, readratio=%g, batch=%d, qps=%s\n",
		*workers, *dur, *readRatio, *batch, qpsLabel(*qps))

	var (
		reads, writes, httpErrs, written int64
		valueSeq                         int64 // globally distinct values for rank streams
	)
	// Per-worker pacing: each worker owns 1/workers of the target rate.
	var interval time.Duration
	if *qps > 0 {
		interval = time.Duration(float64(time.Second) * float64(*workers) / *qps)
	}
	perWorker := make([][]time.Duration, *workers)
	deadline := time.Now().Add(*dur)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.New(*seed + uint64(w)*0x9e3779b97f4a7c15)
			itemFn := workload.ZipfItems(*items, *zipfAlpha, rng.Split())
			lats := make([]time.Duration, 0, 4096)
			next := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				isRead := rng.Float64() < *readRatio
				start := time.Now()
				var status int
				var err error
				if isRead {
					status, err = doRead(client, base, health.Problem, itemFn(i), rng)
				} else {
					v := float64(atomic.AddInt64(&valueSeq, int64(*batch)))
					body := fmt.Sprintf(`{"site":%d,"item":%d,"value":%g,"count":%d}`,
						rng.Intn(health.K), itemFn(i), v, *batch)
					status, err = doPost(client, base+"/v1/observe", body)
				}
				lats = append(lats, time.Since(start))
				switch {
				case err != nil || status >= 400:
					atomic.AddInt64(&httpErrs, 1)
				case isRead:
					atomic.AddInt64(&reads, 1)
				default:
					atomic.AddInt64(&writes, 1)
					atomic.AddInt64(&written, int64(*batch))
				}
			}
			perWorker[w] = lats
		}(w)
	}
	wg.Wait()

	var all []time.Duration
	for _, l := range perWorker {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := int64(len(all))
	fmt.Printf("\nrequests:  %d total (%d reads, %d writes, %d errors) — %.0f req/s achieved\n",
		total, reads, writes, httpErrs, float64(total)/dur.Seconds())
	fmt.Printf("ingested:  %d elements acknowledged\n", written)
	if total > 0 {
		fmt.Printf("latency:   p50 %v  p90 %v  p99 %v  max %v\n",
			percentile(all, 0.50), percentile(all, 0.90),
			percentile(all, 0.99), all[len(all)-1])
	}
	if httpErrs > 0 && total > 0 && httpErrs*5 > total {
		fatalf("loadgen: %d of %d requests failed", httpErrs, total)
	}
	if *check {
		checkCount(client, base, health.Epsilon)
	}
}

func qpsLabel(qps float64) string {
	if qps <= 0 {
		return "unthrottled"
	}
	return fmt.Sprintf("%g", qps)
}

// doRead issues one problem-appropriate query. Rank deployments alternate
// rank and quantile probes, driven by the rng.
func doRead(client *http.Client, base, problem string, item int64, rng *stats.RNG) (int, error) {
	var url string
	switch problem {
	case "freq":
		url = fmt.Sprintf("%s/v1/freq?item=%d", base, item)
	case "rank":
		if rng.Bernoulli(0.5) {
			url = fmt.Sprintf("%s/v1/quantile?phi=%.3f", base, rng.Float64())
		} else {
			url = fmt.Sprintf("%s/v1/rank?value=%g", base, rng.Float64()*1e6)
		}
	default:
		url = base + "/v1/count"
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func doPost(client *http.Client, url, body string) (int, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// checkCount is loadgen's accuracy gate: flush (everything-observed
// barrier, where the deployment supports it), read the server's own
// arrival count as ground truth, and require /v1/count within ε of it.
func checkCount(client *http.Client, base string, eps float64) {
	// A 404 is fine: distributed deployments ingest on the site processes
	// and have no flush surface; their Done/Progress frames keep arrivals
	// current instead.
	if status, err := doPost(client, base+"/v1/flush", ""); err != nil {
		fatalf("check: flush: %v", err)
	} else if status != http.StatusOK && status != http.StatusNotFound {
		fatalf("check: flush: status %d", status)
	}
	health, err := fetchHealth(client, base)
	if err != nil {
		fatalf("check: %v", err)
	}
	if health.Arrivals == 0 {
		fatalf("check: server reports 0 arrivals — no traffic landed")
	}
	resp, err := client.Get(base + "/v1/count")
	if err != nil {
		fatalf("check: count: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fmt.Println("check: skipped (deployment has no count query)")
		return
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("check: count: status %d", resp.StatusCode)
	}
	var doc struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		fatalf("check: count: %v", err)
	}
	truth := float64(health.Arrivals)
	rel := math.Abs(doc.Estimate-truth) / truth
	if rel > eps {
		fatalf("CHECK FAIL: estimate %.0f vs %d arrivals — relative error %.4f > ε=%g",
			doc.Estimate, health.Arrivals, rel, eps)
	}
	fmt.Printf("LOADGEN CHECK OK: estimate %.0f vs %d arrivals (relative error %.4f <= ε=%g)\n",
		doc.Estimate, health.Arrivals, rel, eps)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

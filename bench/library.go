package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"disttrack"
)

// tracker is the slice of the public facade a library workload drives. Each
// implementation feeds with a tight typed loop so that the interface call
// is paid once per chunk, not once per element.
type tracker interface {
	observe(st *stream, lo, hi int)
	// ask answers one query burst() times over and returns the answer.
	ask(q query) float64
	burst() int
	Flush() error
	Close() error
	Metrics() disttrack.Metrics
}

type countTracker struct{ *disttrack.CountTracker }

func (t countTracker) observe(st *stream, lo, hi int) {
	for _, s := range st.sites[lo:hi] {
		t.Observe(int(s))
	}
}

// countBurst is how many Estimate calls one count query is: a single call
// is a few hundred nanoseconds, half of it the clock's own, so a burst is
// timed and its mean reported.
const countBurst = 256

func (t countTracker) burst() int { return countBurst }
func (t countTracker) ask(query) float64 {
	var v float64
	for i := 0; i < countBurst; i++ {
		v = t.Estimate()
	}
	return v
}

type freqTracker struct{ *disttrack.FrequencyTracker }

func (t freqTracker) observe(st *stream, lo, hi int) {
	items := st.items[lo:hi]
	for i, s := range st.sites[lo:hi] {
		t.Observe(int(s), items[i])
	}
}
func (t freqTracker) burst() int          { return 1 }
func (t freqTracker) ask(q query) float64 { return t.Estimate(q.Item) }

type rankTracker struct{ *disttrack.RankTracker }

func (t rankTracker) observe(st *stream, lo, hi int) {
	values := st.values[lo:hi]
	for i, s := range st.sites[lo:hi] {
		t.Observe(int(s), values[i])
	}
}
func (t rankTracker) burst() int { return 1 }
func (t rankTracker) ask(q query) float64 {
	if q.Kind == qQuantile {
		return t.Quantile(q.X, 0, valueHi)
	}
	return t.Rank(q.X)
}

func newTracker(p problem, opt disttrack.Options) tracker {
	switch p {
	case probCount:
		return countTracker{disttrack.NewCountTracker(opt)}
	case probFreq:
		return freqTracker{disttrack.NewFrequencyTracker(opt)}
	default:
		return rankTracker{disttrack.NewRankTracker(opt)}
	}
}

// delta is the share of queries allowed outside ε·n: the randomized
// trackers promise each instant with probability 0.9, so a miss is within
// their contract and is counted (eps_violations), not failed. A run asks
// 10^4 to 10^5 questions; calling every allowed miss a failed operation
// would make `failed` non-zero at random on a correct system.
const delta = 0.1

// grossError is the multiple of ε·n beyond which an answer is a
// malfunction, not a miss: the protocols size their variance so that ε·n is
// three standard deviations, which puts 3·ε·n at nine.
const grossError = 3

// libRun accumulates one run of a library workload, epoch by epoch.
type libRun struct {
	sp   spec
	st   *stream
	seed uint64
	tr   *tracer // nil on an untraced run

	// per epoch, every epoch
	setupS, drainS, rate, opsRate []float64
	// per chunk / per query, every epoch
	chunkUS, queryUS []float64
	// traced epochs only
	metricsUS, flushMS, closeMS  []float64
	allocsPerKelem, bytesPerElem []float64
	gcPauseMS                    []float64
	tracedRate, untracedRate     []float64
	epochs                       int
	attempted, failed            int64
	queries, violations          int
	gate                         []string // correctness-gate failures; empty means correct
	exact                        exactCounts
	answers                      []float64
}

// exactCounts are summed over the fixed prefix of epochs only, so that they
// repeat exactly at a given seed on any machine.
type exactCounts struct {
	Epochs        int     `json:"epochs"`
	Arrivals      int64   `json:"arrivals"`
	Words         int64   `json:"words"`
	Messages      int64   `json:"messages"`
	ErrSum        float64 `json:"err_sum"`
	ErrN          int     `json:"err_n"`
	MaxErrOverEps float64 `json:"max_err_over_eps"`
}

func (r *libRun) failf(format string, args ...any) {
	r.gate = append(r.gate, fmt.Sprintf(format, args...))
}

// epoch runs epoch e: a fresh tracker over the whole block with a query
// after every chunk, then flush, the flushed final query, the ledger read
// and close. Verification against ground truth happens after the clock has
// stopped. traced adds spans and allocation accounting.
func (r *libRun) epoch(e int, traced bool) {
	sp, st := r.sp, r.st
	n := len(st.sites)
	eps := sp.Opt.Epsilon
	opt := sp.Opt
	opt.Seed = epochSeed(r.seed, e)
	tr := r.tr
	if !traced {
		tr = nil
	}
	group := int32(e)
	root := tr.begin("epoch", -1, group)

	t0 := time.Now()
	tk := newTracker(sp.Problem, opt)
	t1 := time.Now()
	tr.add("disttrack.New", root, group, t0, t1)

	if r.answers == nil {
		r.answers = make([]float64, len(st.queries))
	}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	burst := float64(tk.burst())
	ingest := tr.begin("ingest", root, group)
	last := len(st.queries) - 1
	start := time.Now()
	pos, c0 := 0, start
	for j, q := range st.queries[:last] {
		tk.observe(st, pos, int(q.N))
		pos = int(q.N)
		c1 := time.Now()
		r.answers[j] = tk.ask(q)
		c2 := time.Now()
		r.chunkUS = append(r.chunkUS, float64(c1.Sub(c0))/1e3)
		r.queryUS = append(r.queryUS, float64(c2.Sub(c1))/1e3/burst)
		tr.add("Observe x4096", ingest, group, c0, c1)
		tr.add("query", ingest, group, c1, c2)
		c0 = c2
	}
	tk.observe(st, pos, n)
	f0 := time.Now()
	ferr := tk.Flush()
	end := time.Now()
	tr.add("Flush", ingest, group, f0, end)
	tr.end(ingest)

	r.answers[last] = tk.ask(st.queries[last])
	q1 := time.Now()
	m := tk.Metrics()
	m1 := time.Now()
	cerr := tk.Close()
	done := time.Now()
	tr.add("query", root, group, end, q1)
	tr.add("Metrics", root, group, q1, m1)
	tr.add("Close", root, group, m1, done)
	tr.end(root)

	wall := end.Sub(start).Seconds()
	r.epochs++
	r.setupS = append(r.setupS, t1.Sub(t0).Seconds())
	r.drainS = append(r.drainS, done.Sub(f0).Seconds())
	r.rate = append(r.rate, float64(n)/1e6/wall)
	ops := n + len(st.queries)*tk.burst() + 2 // observes, queries, Flush, Close
	r.opsRate = append(r.opsRate, float64(ops)/wall)
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.allocsPerKelem = append(r.allocsPerKelem, float64(ms1.Mallocs-ms0.Mallocs)*1000/float64(n))
		r.bytesPerElem = append(r.bytesPerElem, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n))
		r.gcPauseMS = append(r.gcPauseMS, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		r.metricsUS = append(r.metricsUS, float64(m1.Sub(q1))/1e3)
		r.flushMS = append(r.flushMS, float64(end.Sub(f0))/1e6)
		r.closeMS = append(r.closeMS, float64(done.Sub(m1))/1e6)
		r.tracedRate = append(r.tracedRate, float64(n)/1e6/wall)
	} else {
		r.untracedRate = append(r.untracedRate, float64(n)/1e6/wall)
	}

	// --- off the clock: account operations and audit against ground truth
	r.attempted += int64(ops)
	if ferr != nil {
		r.failed++
		r.failf("epoch %d: Flush: %v", e, ferr)
	}
	if cerr != nil {
		r.failed++
		r.failf("epoch %d: Close: %v", e, cerr)
	}
	if lost := int64(n) - m.Arrivals; lost != 0 || m.Dropped != 0 {
		r.failed += max(lost, m.Dropped, 1)
		r.failf("epoch %d: sent %d elements, tracker counts %d arrivals and %d dropped", e, n, m.Arrivals, m.Dropped)
	}
	inPrefix := e < sp.ExactEpochs
	for j, q := range st.queries {
		ratio := st.errOf(q, r.answers[j]) / (eps * float64(q.N))
		r.queries++
		if ratio > 1 {
			r.violations++
		}
		if ratio > grossError || math.IsNaN(ratio) {
			r.failed++
			r.failf("epoch %d: answer %d of %d off by %.2f ε·n", e, j, last, ratio)
		}
		if inPrefix {
			r.exact.ErrSum += ratio
			r.exact.ErrN++
			r.exact.MaxErrOverEps = max(r.exact.MaxErrOverEps, ratio)
		}
	}
	// Every epoch starts from a collected heap, so that one epoch's garbage
	// is not the next one's GC pause (or the run's peak memory).
	runtime.GC()
	if inPrefix {
		r.exact.Epochs++
		r.exact.Arrivals += m.Arrivals
		r.exact.Words += m.Words
		r.exact.Messages += m.Messages
		if opt.Transport != disttrack.TransportSequential {
			r.checkSequentialReplay(e, opt, m)
		}
	}
}

// checkSequentialReplay holds the repository to its transport-independence
// promise: the same Options on TransportSequential must exchange exactly
// the same words and messages.
func (r *libRun) checkSequentialReplay(e int, opt disttrack.Options, got disttrack.Metrics) {
	opt.Transport = disttrack.TransportSequential
	tk := newTracker(r.sp.Problem, opt)
	tk.observe(r.st, 0, len(r.st.sites))
	want := tk.Metrics()
	tk.Close()
	if want.Words != got.Words || want.Messages != got.Messages {
		r.failf("epoch %d: %v sent %d words / %d messages, sequential replay %d / %d",
			e, r.sp.Opt.Transport, got.Words, got.Messages, want.Words, want.Messages)
	}
}

// finish closes the gate and turns the accumulated samples into metrics.
func (r *libRun) finish() {
	if r.queries > 0 && float64(r.violations) > delta*float64(r.queries) {
		r.failf("%d of %d queries outside ε·n (allowed share %.2f)", r.violations, r.queries, delta)
	}
}

// runLibrary executes a library workload for about the given duration (and
// at least its exact prefix of epochs) and reports the end-to-end metrics.
func runLibrary(sp spec, seed uint64, seconds float64) *runResult {
	genStart := time.Now()
	st := genStream(sp, seed, false)
	genS := time.Since(genStart).Seconds()
	res := runLibraryOn(sp, st, seed, seconds)
	res.Detail.GenS = genS
	return res
}

// runLibraryOn is runLibrary over an already generated stream (the tests
// hand it one with a wrong truth table to see the gate fire).
func runLibraryOn(sp spec, st *stream, seed uint64, seconds float64) *runResult {
	r := &libRun{sp: sp, st: st, seed: seed}
	begin := time.Now()
	for e := 0; e < sp.ExactEpochs || time.Since(begin).Seconds() < seconds; e++ {
		r.epoch(e, false)
	}
	r.finish()

	res := newResult(sp, seed, seconds, false)
	res.Detail.StreamDigest = st.digest()
	res.Detail.Epochs = r.epochs
	res.Detail.Queries, res.Detail.EpsViolations = r.queries, r.violations
	res.Detail.Exact = &r.exact
	res.Attempted, res.Failed, res.Gate = r.attempted, r.failed, r.gate
	q := windowed(r.queryUS)
	o := windowed(r.chunkUS)
	res.Detail.Timings = map[string]timing{"query_us": q, "observe_us": o}
	kelem := float64(r.exact.Arrivals) / 1000
	res.set("setup_s", median(r.setupS))
	res.set("ingest_melems_per_s", median(r.rate))
	res.set("ops_per_s", median(r.opsRate))
	res.set("query_p50_us", q.P50)
	res.set("query_p95_us", q.Tail)
	res.set("observe_p50_us", o.P50)
	res.set("observe_p95_us", o.Tail)
	res.set("words_per_kelem", float64(r.exact.Words)/kelem)
	res.set("msgs_per_kelem", float64(r.exact.Messages)/kelem)
	res.set("err_over_eps_mean", r.exact.ErrSum/float64(r.exact.ErrN))
	res.set("rss_peak_mb", rssPeakMB())
	res.set("drain_s", median(r.drainS))
	return res
}

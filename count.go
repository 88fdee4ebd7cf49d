package disttrack

import "disttrack/internal/registry"

// CountTracker continuously tracks n(t), the total number of elements
// received across all sites (the paper's count-tracking problem, Section 2).
//
// Without Options.ConcurrentIngest, one goroutine at a time may use the
// tracker; with it, Observe/ObserveBatch and the query methods are safe
// from any number of goroutines. The embedded core provides Flush,
// Metrics, and Close.
type CountTracker struct {
	k int // == Options.K, hot-path copy on the same cache line as eng/fe
	core
	est func() float64
}

// NewCountTracker builds a count tracker. It panics on invalid options.
func NewCountTracker(opt Options) *CountTracker {
	t := &CountTracker{k: opt.K}
	t.est = t.build(opt, registry.Count).Count
	return t
}

// Observe records one element arriving at the given site (0-based).
func (t *CountTracker) Observe(site int) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if t.fe == nil {
		t.eng.Arrive(site, 0, 0)
		return
	}
	t.fe.Observe(site, 0, 0)
}

// ObserveBatch records count elements arriving at the given site. It is
// equivalent to count Observe calls — same estimates, same Metrics — but
// runs in time proportional to the messages the batch triggers, not its
// length (the site skip-samples the gap to its next report).
func (t *CountTracker) ObserveBatch(site int, count int) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if count < 0 {
		panic("disttrack: negative batch count")
	}
	if t.fe == nil {
		t.eng.ArriveBatch(site, 0, 0, int64(count))
		return
	}
	t.fe.ObserveBatch(site, 0, 0, int64(count))
}

// Estimate returns the coordinator's current estimate of n. With
// ConcurrentIngest it reads a quiescent snapshot: everything ingested up to
// some recent cascade boundary (call Flush first for an
// everything-observed-so-far barrier).
func (t *CountTracker) Estimate() float64 {
	var v float64
	t.query(func() { v = t.est() })
	return v
}

// CrashRestartCoordinator simulates a coordinator crash and durable
// restart: the live coordinator is discarded and a freshly built one
// recovers from Options.Persist (snapshot restore plus write-ahead-log
// replay), remounting over the same site machines. The recovered
// coordinator is bit-identical to the crashed one at its last logged
// frame, so estimates and Metrics carry on exactly. Requires
// Options.Persist; incompatible with ConcurrentIngest and FaultPlan.
func (t *CountTracker) CrashRestartCoordinator() error {
	q, err := t.restart()
	if err == nil {
		t.est = q.Count
	}
	return err
}

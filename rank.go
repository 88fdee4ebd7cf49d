package disttrack

import "disttrack/internal/registry"

// RankTracker continuously tracks ranks over a totally ordered domain with
// absolute error ±ε·n(t), which also answers quantile queries — the paper's
// rank-tracking problem (Section 4).
//
// Without Options.ConcurrentIngest, one goroutine at a time may use the
// tracker; with it, Observe/ObserveBatch and the query methods are safe
// from any number of goroutines. The embedded core provides Flush,
// Metrics, and Close.
type RankTracker struct {
	k int // == Options.K, hot-path copy on the same cache line as eng/fe
	core
	rankFn   func(x float64) float64
	quantile func(q, lo, hi float64) float64
}

// NewRankTracker builds a rank tracker. It panics on invalid options.
func NewRankTracker(opt Options) *RankTracker {
	t := &RankTracker{k: opt.K}
	q := t.build(opt, registry.Rank)
	t.rankFn, t.quantile = q.Rank, q.Quantile
	return t
}

// Observe records value arriving at the given site. The paper assumes
// distinct values; callers with duplicate values can break ties by adding a
// unique small offset.
func (t *RankTracker) Observe(site int, value float64) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if t.fe == nil {
		t.eng.Arrive(site, 0, value)
		return
	}
	t.fe.Observe(site, 0, value)
}

// ObserveBatch records count consecutive arrivals of value at the given
// site. It is equivalent to count Observe calls — same estimates, same
// Metrics, bit-identical protocol state. The randomized tracker ingests the
// run through the merge summaries' closed-form InsertRun (a run is already
// sorted, so full buffers skip the sort and same-value merges skip the
// element work), jumping between summary-emission, residual-sample, and
// report boundaries; note the paper's distinct-values assumption applies
// across the stream as a whole.
func (t *RankTracker) ObserveBatch(site int, value float64, count int) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if count < 0 {
		panic("disttrack: negative batch count")
	}
	if t.fe == nil {
		t.eng.ArriveBatch(site, 0, value, int64(count))
		return
	}
	t.fe.ObserveBatch(site, 0, value, int64(count))
}

// Rank returns the estimated number of observed values strictly smaller
// than x. With ConcurrentIngest it reads a quiescent snapshot: everything
// ingested up to some recent cascade boundary (call Flush first for an
// everything-observed-so-far barrier).
func (t *RankTracker) Rank(x float64) float64 {
	var v float64
	t.query(func() { v = t.rankFn(x) })
	return v
}

// Quantile returns a value whose estimated rank is q·n, located by bisection
// over the domain interval [lo, hi]. On an empty tracker (nothing observed
// yet) it returns NaN — there is no value of any rank. With ConcurrentIngest
// the whole bisection runs inside one quiescent snapshot, so every probe
// sees the same protocol state.
func (t *RankTracker) Quantile(q, lo, hi float64) float64 {
	var v float64
	t.query(func() { v = t.quantile(q, lo, hi) })
	return v
}

// CrashRestartCoordinator simulates a coordinator crash and durable
// restart; see CountTracker.CrashRestartCoordinator. Requires
// Options.Persist; incompatible with ConcurrentIngest and FaultPlan.
func (t *RankTracker) CrashRestartCoordinator() error {
	q, err := t.restart()
	if err == nil {
		t.rankFn, t.quantile = q.Rank, q.Quantile
	}
	return err
}

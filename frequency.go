package disttrack

import "disttrack/internal/registry"

// FrequencyTracker continuously tracks per-item frequencies with absolute
// error ±ε·n(t) — the heavy-hitters tracking problem (Section 3).
//
// Without Options.ConcurrentIngest, one goroutine at a time may use the
// tracker; with it, Observe/ObserveBatch and the query methods are safe
// from any number of goroutines. The embedded core provides Flush,
// Metrics, and Close.
type FrequencyTracker struct {
	k int // == Options.K, hot-path copy on the same cache line as eng/fe
	core
	est func(item int64) float64
}

// NewFrequencyTracker builds a frequency tracker. It panics on invalid
// options.
func NewFrequencyTracker(opt Options) *FrequencyTracker {
	t := &FrequencyTracker{k: opt.K}
	t.est = t.build(opt, registry.Freq).Freq
	return t
}

// Observe records item arriving at the given site.
func (t *FrequencyTracker) Observe(site int, item int64) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if t.fe == nil {
		t.eng.Arrive(site, item, 0)
		return
	}
	t.fe.Observe(site, item, 0)
}

// ObserveBatch records count consecutive arrivals of item at the given
// site — a hot flow at one gateway. It is equivalent to count Observe
// calls — same estimates, same Metrics — but runs in time proportional to
// the messages the batch triggers, not its length.
func (t *FrequencyTracker) ObserveBatch(site int, item int64, count int) {
	if site < 0 || site >= t.k {
		panic("disttrack: site out of range")
	}
	if count < 0 {
		panic("disttrack: negative batch count")
	}
	if t.fe == nil {
		t.eng.ArriveBatch(site, item, 0, int64(count))
		return
	}
	t.fe.ObserveBatch(site, item, 0, int64(count))
}

// Estimate returns the current frequency estimate for item. Randomized
// estimates are unbiased and may be slightly negative for rare items; clamp
// at zero if presenting to users. A query is O(1) — one map read per copy —
// however much state the coordinator holds: every algorithm's coordinator
// keeps a per-item running estimate current as messages arrive. With
// ConcurrentIngest it reads a
// quiescent snapshot: everything ingested up to some recent cascade
// boundary (call Flush first for an everything-observed-so-far barrier).
func (t *FrequencyTracker) Estimate(item int64) float64 {
	var v float64
	t.query(func() { v = t.est(item) })
	return v
}

// CrashRestartCoordinator simulates a coordinator crash and durable
// restart; see CountTracker.CrashRestartCoordinator. Requires
// Options.Persist; incompatible with ConcurrentIngest and FaultPlan.
func (t *FrequencyTracker) CrashRestartCoordinator() error {
	q, err := t.restart()
	if err == nil {
		t.est = q.Freq
	}
	return err
}

package disttrack

import (
	"disttrack/internal/boost"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/sample"
	"disttrack/internal/stats"
)

// FrequencyTracker continuously tracks per-item frequencies with absolute
// error ±ε·n(t) — the heavy-hitters tracking problem (Section 3).
//
// Without Options.ConcurrentIngest, one goroutine at a time may use the
// tracker; with it, Observe/ObserveBatch and the query methods are safe
// from any number of goroutines. The embedded core provides Flush,
// Metrics, and Close.
type FrequencyTracker struct {
	opt Options
	k   int // == opt.K, hot-path copy on the same cache line as eng/fe
	core
	est func(item int64) float64
}

// NewFrequencyTracker builds a frequency tracker. It panics on invalid
// options.
func NewFrequencyTracker(opt Options) *FrequencyTracker {
	opt.validate()
	if opt.Robust {
		panic("disttrack: Options.Robust is only supported by CountTracker (robust frequency tracking is not implemented)")
	}
	t := &FrequencyTracker{opt: opt, k: opt.K}
	switch opt.Algorithm {
	case AlgorithmRandomized:
		cfg := freq.Config{K: opt.K, Eps: opt.Epsilon, Rescale: opt.Rescale}
		if opt.Copies > 1 {
			root := stats.New(opt.Seed)
			ps := make([]proto.Protocol, opt.Copies)
			coords := make([]*freq.Coordinator, opt.Copies)
			for i := range ps {
				ps[i], coords[i] = freq.NewProtocol(cfg, root.Uint64())
			}
			t.mountCore(opt, boost.Wrap(ps))
			t.est = medianEstimate(coords)
			t.fe = frontend(opt, t.eng)
			return t
		}
		if opt.Topology == TopologyTree {
			tp, coord := freq.NewTreeProtocol(cfg, opt.Fanout, opt.Seed)
			t.mountCoreTree(opt, tp)
			t.est = coord.Estimate
		} else {
			p, coord := freq.NewProtocol(cfg, opt.Seed)
			t.mountCore(opt, p)
			t.est = coord.Estimate
		}
	case AlgorithmDeterministic:
		if opt.Topology == TopologyTree {
			panic("disttrack: TopologyTree is incompatible with AlgorithmDeterministic frequency tracking (its SpaceSaving summaries have no merge path for re-aggregation); use AlgorithmRandomized, AlgorithmSampling, or TopologyFlat")
		}
		p, coord := freq.NewDetProtocol(opt.K, opt.Epsilon)
		t.mountCore(opt, p)
		t.est = coord.Estimate
	case AlgorithmSampling:
		scfg := sample.Config{K: opt.K, Eps: opt.Epsilon}
		if opt.Topology == TopologyTree {
			tp, coord := sample.NewTreeProtocol(scfg, opt.Fanout, opt.Seed)
			t.mountCoreTree(opt, tp)
			t.est = coord.Freq
		} else {
			p, coord := sample.NewProtocol(scfg, opt.Seed)
			t.mountCore(opt, p)
			t.est = coord.Freq
		}
	default:
		panic("disttrack: unknown Algorithm")
	}
	t.fe = frontend(opt, t.eng)
	return t
}

// medianEstimate is the boosted (Options.Copies > 1) point query: the median
// of the independent copies' estimates.
func medianEstimate(coords []*freq.Coordinator) func(item int64) float64 {
	return func(item int64) float64 {
		ests := make([]float64, len(coords))
		for i, c := range coords {
			ests[i] = c.Estimate(item)
		}
		return stats.Median(ests)
	}
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
	var est func(item int64) float64
	var fresh proto.Coordinator
	switch t.opt.Algorithm {
	case AlgorithmRandomized:
		cfg := freq.Config{K: t.opt.K, Eps: t.opt.Epsilon, Rescale: t.opt.Rescale}
		if t.opt.Copies > 1 {
			coords := make([]*freq.Coordinator, t.opt.Copies)
			inner := make([]proto.Coordinator, t.opt.Copies)
			for i := range coords {
				coords[i] = freq.NewCoordinator(cfg)
				inner[i] = coords[i]
			}
			fresh = boost.WrapCoordinators(inner)
			est = medianEstimate(coords)
		} else {
			coord := freq.NewCoordinator(cfg)
			fresh, est = coord, coord.Estimate
		}
	case AlgorithmDeterministic:
		coord := freq.NewDetCoordinator(t.opt.K)
		fresh, est = coord, coord.Estimate
	case AlgorithmSampling:
		coord := sample.NewCoordinator(sample.Config{K: t.opt.K, Eps: t.opt.Epsilon})
		fresh, est = coord, coord.Freq
	default:
		panic("disttrack: unknown Algorithm")
	}
	if _, err := t.crashRestartCoordinator(func() proto.Coordinator { return fresh }); err != nil {
		return err
	}
	t.est = est
	return nil
}

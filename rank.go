package disttrack

import (
	"disttrack/internal/boost"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/sample"
	"disttrack/internal/stats"
)

// RankTracker continuously tracks ranks over a totally ordered domain with
// absolute error ±ε·n(t), which also answers quantile queries — the paper's
// rank-tracking problem (Section 4).
//
// Without Options.ConcurrentIngest, one goroutine at a time may use the
// tracker; with it, Observe/ObserveBatch and the query methods are safe
// from any number of goroutines. The embedded core provides Flush,
// Metrics, and Close.
type RankTracker struct {
	opt Options
	k   int // == opt.K, hot-path copy on the same cache line as eng/fe
	core
	rankFn   func(x float64) float64
	quantile func(q, lo, hi float64) float64
}

// NewRankTracker builds a rank tracker. It panics on invalid options.
func NewRankTracker(opt Options) *RankTracker {
	opt.validate()
	if opt.Robust {
		panic("disttrack: Options.Robust is only supported by CountTracker (robust rank tracking is not implemented)")
	}
	t := &RankTracker{opt: opt, k: opt.K}
	switch opt.Algorithm {
	case AlgorithmRandomized:
		cfg := rank.Config{K: opt.K, Eps: opt.Epsilon, Rescale: opt.Rescale}
		if opt.Copies > 1 {
			root := stats.New(opt.Seed)
			ps := make([]proto.Protocol, opt.Copies)
			coords := make([]*rank.Coordinator, opt.Copies)
			for i := range ps {
				ps[i], coords[i] = rank.NewProtocol(cfg, root.Uint64())
			}
			t.mountCore(opt, boost.Wrap(ps))
			t.rankFn = func(x float64) float64 {
				ests := make([]float64, len(coords))
				for i, c := range coords {
					ests[i] = c.Rank(x)
				}
				return stats.Median(ests)
			}
			t.quantile = rank.Bisect(t.rankFn)
			t.fe = frontend(opt, t.eng)
			return t
		}
		if opt.Topology == TopologyTree {
			tp, coord := rank.NewTreeProtocol(cfg, opt.Fanout, opt.Seed)
			t.mountCoreTree(opt, tp)
			t.rankFn = coord.Rank
			t.quantile = coord.Quantile
		} else {
			p, coord := rank.NewProtocol(cfg, opt.Seed)
			t.mountCore(opt, p)
			t.rankFn = coord.Rank
			t.quantile = coord.Quantile
		}
	case AlgorithmDeterministic:
		if opt.Topology == TopologyTree {
			panic("disttrack: TopologyTree is incompatible with AlgorithmDeterministic rank tracking (its Greenwald-Khanna snapshots have no merge path for re-aggregation); use AlgorithmRandomized, AlgorithmSampling, or TopologyFlat")
		}
		p, coord := rank.NewDetProtocol(opt.K, opt.Epsilon)
		t.mountCore(opt, p)
		t.rankFn = coord.Rank
		t.quantile = coord.Quantile
	case AlgorithmSampling:
		scfg := sample.Config{K: opt.K, Eps: opt.Epsilon}
		if opt.Topology == TopologyTree {
			tp, coord := sample.NewTreeProtocol(scfg, opt.Fanout, opt.Seed)
			t.mountCoreTree(opt, tp)
			t.rankFn = coord.Rank
			t.quantile = rank.Bisect(coord.Rank)
		} else {
			p, coord := sample.NewProtocol(scfg, opt.Seed)
			t.mountCore(opt, p)
			t.rankFn = coord.Rank
			t.quantile = rank.Bisect(coord.Rank)
		}
	default:
		panic("disttrack: unknown Algorithm")
	}
	t.fe = frontend(opt, t.eng)
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
	var rankFn func(x float64) float64
	var quantile func(q, lo, hi float64) float64
	var fresh proto.Coordinator
	switch t.opt.Algorithm {
	case AlgorithmRandomized:
		cfg := rank.Config{K: t.opt.K, Eps: t.opt.Epsilon, Rescale: t.opt.Rescale}
		if t.opt.Copies > 1 {
			coords := make([]*rank.Coordinator, t.opt.Copies)
			inner := make([]proto.Coordinator, t.opt.Copies)
			for i := range coords {
				coords[i] = rank.NewCoordinator(cfg)
				inner[i] = coords[i]
			}
			fresh = boost.WrapCoordinators(inner)
			rankFn = func(x float64) float64 {
				ests := make([]float64, len(coords))
				for i, c := range coords {
					ests[i] = c.Rank(x)
				}
				return stats.Median(ests)
			}
			quantile = rank.Bisect(rankFn)
		} else {
			coord := rank.NewCoordinator(cfg)
			fresh, rankFn, quantile = coord, coord.Rank, coord.Quantile
		}
	case AlgorithmDeterministic:
		coord := rank.NewDetCoordinator(t.opt.K)
		fresh, rankFn, quantile = coord, coord.Rank, coord.Quantile
	case AlgorithmSampling:
		coord := sample.NewCoordinator(sample.Config{K: t.opt.K, Eps: t.opt.Epsilon})
		fresh, rankFn, quantile = coord, coord.Rank, rank.Bisect(coord.Rank)
	default:
		panic("disttrack: unknown Algorithm")
	}
	if _, err := t.crashRestartCoordinator(func() proto.Coordinator { return fresh }); err != nil {
		return err
	}
	t.rankFn, t.quantile = rankFn, quantile
	return nil
}

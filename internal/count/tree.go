package count

// Hierarchical (tree) assemblies of the count trackers. An interior node
// runs a full child-facing Coordinator over its shard of sites and feeds
// the shard's running count upward as virtual arrivals, so the root-level
// protocol tracks the tree's total exactly as it would track k real
// streams. Every protocol message stays absolute-state, so the root remains
// a pure function of its delivered (from, msg) sequence and the
// persistence/Resync machinery applies unchanged at every level.

import (
	"disttrack/internal/proto"
	"disttrack/internal/stats"
)

// Agg is the randomized tracker's aggregator: the child-facing Coordinator
// plus a monotone feed ledger. The shard's true count is nondecreasing, so
// the running maximum of the (ε-accurate at every quiescent instant)
// estimate is itself ε-accurate — clamping to it is what makes an
// estimate-driven feed sound under the no-retraction rule.
type Agg struct {
	*Coordinator
	fed int64
}

// NewAgg wraps a child-facing coordinator as an aggregator.
func NewAgg(c *Coordinator) *Agg { return &Agg{Coordinator: c} }

// DrainFeed implements proto.Aggregator.
func (a *Agg) DrainFeed(feed func(item int64, value float64, count int64)) {
	if est := int64(a.Estimate()); est > a.fed {
		feed(0, 0, est-a.fed)
		a.fed = est
	}
}

// Fed reports the virtual arrivals pushed upward so far (tests, recovery).
func (a *Agg) Fed() int64 { return a.fed }

// SeedFed primes the feed ledger after a coordinator recovery: everything
// up to the recovered estimate has already been fed to the parent.
func (a *Agg) SeedFed() { a.fed = int64(a.Estimate()) }

// DetAgg is the deterministic tracker's aggregator. It feeds the raw
// reported sum Σ n̄_i — a monotone integer that undercounts the shard by at
// most a (1+ε_level) factor and never overcounts — so the deterministic
// always-bound survives re-aggregation: the root's reported sum stays in
// [n/Π(1+ε_level), n] and its midpoint correction keeps |est − n| ≤ εn.
type DetAgg struct {
	*DetCoordinator
	fed int64
}

// NewDetAgg wraps a child-facing deterministic coordinator as an aggregator.
func NewDetAgg(c *DetCoordinator) *DetAgg { return &DetAgg{DetCoordinator: c} }

// DrainFeed implements proto.Aggregator.
func (a *DetAgg) DrainFeed(feed func(item int64, value float64, count int64)) {
	if a.sum > a.fed {
		feed(0, 0, a.sum-a.fed)
		a.fed = a.sum
	}
}

// SeedFed primes the feed ledger after a coordinator recovery.
func (a *DetAgg) SeedFed() { a.fed = a.sum }

// NewTreeProtocol assembles the randomized count tracker as a two-level
// tree (proto.AssembleTree): k leaf sites sharded fanout-per-aggregator, each
// level running at the split error budget, site RNGs split from seed.
// Returns the assembly and the root coordinator (the query surface).
func NewTreeProtocol(cfg Config, fanout int, seed uint64) (proto.Tree, *Coordinator) {
	cfg.validate()
	root := stats.New(seed)
	return proto.AssembleTree(cfg.K, fanout, cfg.Eps, func(k int, eps float64) (proto.Protocol, *Coordinator) {
		lcfg := cfg
		lcfg.K, lcfg.Eps = k, eps
		sites := make([]proto.Site, k)
		for i := range sites {
			sites[i] = NewSite(lcfg, root.Split())
		}
		coord := NewCoordinator(lcfg)
		return proto.Protocol{Coord: coord, Sites: sites}, coord
	}, func(c *Coordinator) proto.Aggregator { return NewAgg(c) })
}

// NewDetTreeProtocol assembles the deterministic count tracker as a
// two-level tree. The deterministic baseline's reports merge by summation,
// so it keeps its δ = 0 guarantee through re-aggregation (unlike the
// frequency/rank deterministic baselines, whose summaries have no merge
// path).
func NewDetTreeProtocol(k int, eps float64, fanout int) (proto.Tree, *DetCoordinator) {
	return proto.AssembleTree(k, fanout, eps, NewDetProtocol,
		func(c *DetCoordinator) proto.Aggregator { return NewDetAgg(c) })
}

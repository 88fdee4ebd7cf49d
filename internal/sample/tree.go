package sample

// Hierarchical (tree) assembly of the sampling tracker. Every element the
// child-facing coordinator accepts into its retained sample was kept with
// probability 2^−L (L = the coordinator's level at accept time), so feeding
// it upward as 2^L identical virtual arrivals is an unbiased re-expression
// of the shard's stream: the parent-facing site then subsamples that stream
// exactly as it would subsample real arrivals. Weighting by the element's
// own geometric level instead would bias the feed upward — the level tag is
// conditioned on having reached L, not on the acceptance probability.

import (
	"disttrack/internal/proto"
	"disttrack/internal/stats"
)

type pendingElem struct {
	item   int64
	value  float64
	weight int64
}

// Agg is the sampler's aggregator: the child-facing Coordinator plus the
// accepted-element feed buffer. Pending elements are captured in Receive
// and released at the next quiescent instant; between two drains only one
// leaf arrives (the hosting topology's single-feeder contract), so the
// captured order follows a single FIFO child link and is deterministic
// across transports.
type Agg struct {
	*Coordinator
	pending []pendingElem
}

// NewAgg wraps a child-facing coordinator as an aggregator.
func NewAgg(c *Coordinator) *Agg { return &Agg{Coordinator: c} }

// Receive implements proto.Coordinator, capturing accepted elements at
// their accept-time weight.
func (a *Agg) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	levelBefore := a.level
	a.Coordinator.Receive(from, m, send, broadcast)
	if em, ok := m.(ElementMsg); ok && em.Level >= levelBefore {
		a.pending = append(a.pending, pendingElem{
			item: em.Item, value: em.Value, weight: int64(1) << uint(levelBefore),
		})
	}
}

// DrainFeed implements proto.Aggregator.
func (a *Agg) DrainFeed(feed func(item int64, value float64, count int64)) {
	for _, e := range a.pending {
		feed(e.item, e.value, e.weight)
	}
	a.pending = a.pending[:0]
}

// SeedFed primes the aggregator after a coordinator recovery: restored
// elements were fed before the crash, so the buffer starts empty.
func (a *Agg) SeedFed() { a.pending = a.pending[:0] }

// NewTreeProtocol assembles the sampling tracker as a two-level tree. The
// sample baseline's error is driven by the retained-sample size, not a
// per-level ε, so both levels run at the full ε budget (the split budget
// proto.AssembleTree offers is ignored) and the root's sample (of the
// aggregators' unbiased virtual streams) keeps the flat star's guarantee up
// to the feed-quantization noise of the shard levels.
func NewTreeProtocol(cfg Config, fanout int, seed uint64) (proto.Tree, *Coordinator) {
	cfg.validate()
	root := stats.New(seed)
	return proto.AssembleTree(cfg.K, fanout, cfg.Eps, func(k int, _ float64) (proto.Protocol, *Coordinator) {
		lcfg := cfg
		lcfg.K = k
		sites := make([]proto.Site, k)
		for i := range sites {
			sites[i] = NewSite(root.Split())
		}
		coord := NewCoordinator(lcfg)
		return proto.Protocol{Coord: coord, Sites: sites}, coord
	}, func(c *Coordinator) proto.Aggregator { return NewAgg(c) })
}

package freq

// Hierarchical (tree) assembly of the randomized frequency tracker. The
// aggregator tracks which items its shard has reported activity for and, at
// each quiescent instant, pushes the increase in its per-item estimate
// upward as virtual arrivals of that item. Per-item true frequencies are
// nondecreasing, so clamping each item's feed to its running maximum keeps
// the virtual stream sound (arrivals cannot be retracted) while the
// estimate itself may wiggle (the −d/p sample terms).
//
// The deterministic baseline has no tree assembly: its SpaceSaving
// summaries admit no lossless merge path, which is exactly the gap the
// facade's topology validation pins.

import (
	"disttrack/internal/proto"
	"disttrack/internal/stats"
)

// Agg is the frequency aggregator: the child-facing Coordinator plus a
// per-item feed ledger and an insertion-ordered dirty set. Only items
// touched by a CounterMsg or SampleMsg since the last drain can have moved,
// so DrainFeed is O(recent activity), not O(tracked items).
type Agg struct {
	*Coordinator
	fed   map[int64]int64
	dirty []int64
	mark  map[int64]bool
}

// NewAgg wraps a child-facing coordinator as an aggregator.
func NewAgg(c *Coordinator) *Agg {
	return &Agg{Coordinator: c, fed: make(map[int64]int64), mark: make(map[int64]bool)}
}

// Receive implements proto.Coordinator, recording which items moved.
func (a *Agg) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	a.Coordinator.Receive(from, m, send, broadcast)
	switch msg := m.(type) {
	case CounterMsg:
		a.touch(msg.Item)
	case SampleMsg:
		a.touch(msg.Item)
	}
}

func (a *Agg) touch(item int64) {
	if !a.mark[item] {
		a.mark[item] = true
		a.dirty = append(a.dirty, item)
	}
}

// DrainFeed implements proto.Aggregator: for each item touched since the
// last quiescent instant, feed the growth of its shard estimate upward.
// Iterating the dirty list in insertion order keeps the virtual stream —
// and with it every message above this node — deterministic.
func (a *Agg) DrainFeed(feed func(item int64, value float64, count int64)) {
	for _, item := range a.dirty {
		delete(a.mark, item)
		if est := int64(a.Estimate(item)); est > a.fed[item] {
			feed(item, 0, est-a.fed[item])
			a.fed[item] = est
		}
	}
	a.dirty = a.dirty[:0]
}

// SeedFed primes the feed ledger after a coordinator recovery: every item
// the restored state holds an estimate for is considered already fed up to
// that estimate (an item absent from the ledger reads as fed 0, which is
// also what a non-positive estimate seeds).
func (a *Agg) SeedFed() {
	for item, est := range a.est {
		if _, ok := a.fed[item]; !ok {
			a.fed[item] = max(est, 0)
		}
	}
}

// NewTreeProtocol assembles the randomized frequency tracker as a
// two-level tree (see count.NewTreeProtocol for the shape): each level runs
// at the split budget, and the root coordinator answers Estimate queries
// for the whole tree.
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

package rank

// Hierarchical (tree) assembly of the randomized rank tracker. The
// aggregator re-expresses its shard's stream through the residual samples
// alone: each SampleMsg covers the gap of arrivals since the previous
// sample of its chunk (gaps are geometric with mean 1/p), so feeding the
// sampled value gap-many times upward reproduces the shard's mass with a
// per-gap rank perturbation of at most the gap length — a lower-order term
// against the level's εn̄/√k' block size. Summaries are still absorbed into
// the child-facing coordinator (they answer nothing here, but keep the
// protocol's wire behaviour identical to the flat star, and the extra state
// is what Resync/persistence already handle).
//
// The deterministic baseline (periodic GK snapshots) has no tree assembly:
// its snapshots admit no merge path, which the facade's topology validation
// pins.

import (
	"disttrack/internal/proto"
	"disttrack/internal/stats"
)

// chunkKey identifies one site's chunk inside a group.
type chunkKey struct {
	site  int
	chunk int64
}

type feedEvent struct {
	value float64
	count int64
}

// Agg is the rank aggregator: the child-facing Coordinator plus the
// gap-weighted feed ledger. Pending events are captured in Receive and
// released at the next quiescent instant; between two drains only one leaf
// arrives (the hosting topology's single-feeder contract), so every pending
// event comes from a single FIFO child link and the captured order is
// deterministic across transports.
type Agg struct {
	*Coordinator
	fedIdx  map[chunkKey]int64
	pending []feedEvent
}

// NewAgg wraps a child-facing coordinator as an aggregator.
func NewAgg(c *Coordinator) *Agg {
	return &Agg{Coordinator: c, fedIdx: make(map[chunkKey]int64)}
}

// Receive implements proto.Coordinator, turning each residual sample into a
// gap-weighted virtual run.
func (a *Agg) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	a.Coordinator.Receive(from, m, send, broadcast)
	if msg, ok := m.(SampleMsg); ok && a.admits(msg) {
		k := chunkKey{site: from, chunk: msg.Chunk}
		if gap := msg.Index - a.fedIdx[k]; gap > 0 {
			a.pending = append(a.pending, feedEvent{value: msg.Value, count: gap})
			a.fedIdx[k] = msg.Index
		}
	}
}

// DrainFeed implements proto.Aggregator.
func (a *Agg) DrainFeed(feed func(item int64, value float64, count int64)) {
	for _, ev := range a.pending {
		feed(0, ev.value, ev.count)
	}
	a.pending = a.pending[:0]
}

// SeedFed primes the feed ledger after a coordinator recovery: every
// restored sample's gap counts as already fed.
func (a *Agg) SeedFed() {
	a.pending = a.pending[:0]
	for site, siteChunks := range a.chunks {
		for id, v := range siteChunks {
			if v == nil || len(v.samples) == 0 {
				continue
			}
			k := chunkKey{site: site, chunk: int64(id)}
			if last := v.samples[len(v.samples)-1].index; last > a.fedIdx[k] {
				a.fedIdx[k] = last
			}
		}
	}
}

// NewTreeProtocol assembles the randomized rank tracker as a two-level
// tree (see count.NewTreeProtocol for the shape): each level runs at the
// split budget, and the root coordinator answers Rank/Quantile queries for
// the whole tree.
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

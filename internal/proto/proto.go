// Package proto defines the contracts between tracking protocols and the
// runtimes that host them.
//
// A protocol is written as two passive state machines — a per-site machine
// and a coordinator machine — that exchange Messages. The same protocol code
// runs unchanged on the sequential exact-accounting simulator
// (internal/sim) and on the concurrent goroutine runtime (internal/netsim);
// both enforce the paper's "communication is instant" semantics by running
// every message cascade to quiescence before the next element arrives.
package proto

import (
	"errors"
	"fmt"
	"math"
)

// Message is one unit of communication. Words reports its size in the
// paper's word-based accounting: any integer less than N, an element, a
// counter value, or a level tag is one word. The envelope (sender identity)
// is free. A broadcast costs k times the message.
type Message interface {
	Words() int
}

// Site is the per-site half of a protocol. Runtimes guarantee that calls on
// one Site value are never concurrent.
type Site interface {
	// Arrive processes one element landing at this site: item is the
	// identity used by frequency tracking, value the ordered key used by
	// rank tracking (count tracking ignores both). out enqueues a message
	// to the coordinator.
	Arrive(item int64, value float64, out func(Message))

	// Receive processes one message from the coordinator.
	Receive(m Message, out func(Message))

	// SpaceWords reports the site's current working space in words.
	SpaceWords() int
}

// BatchSite is an optional fast path for sites that can absorb a run of
// identical arrivals in closed form — skip-sampling the gap to their next
// report instead of flipping one coin per arrival, or ingesting the run
// into a summary wholesale (merge.InsertRun) instead of value by value.
type BatchSite interface {
	Site

	// ArriveBatch processes up to count consecutive arrivals of the same
	// (item, value) pair, stopping early after the first arrival that
	// emitted at least one message. It returns the number of arrivals
	// consumed, at least 1 when count >= 1. Stopping at message boundaries
	// lets the hosting runtime deliver the messages — and any coordinator
	// response, such as a round broadcast that changes the site's sampling
	// probability — before the rest of the run is fed, so a batched run is
	// indistinguishable from element-at-a-time delivery.
	ArriveBatch(item int64, value float64, count int64, out func(Message)) int64
}

// ArriveChunk feeds up to count identical arrivals to s, using the BatchSite
// fast path when s implements it and falling back to a single Arrive (one
// element consumed) otherwise. It returns the number of arrivals consumed.
func ArriveChunk(s Site, item int64, value float64, count int64, out func(Message)) int64 {
	if count <= 0 {
		return 0
	}
	if bs, ok := s.(BatchSite); ok {
		return bs.ArriveBatch(item, value, count, out)
	}
	s.Arrive(item, value, out)
	return 1
}

// ArriveSerial implements the BatchSite contract for sites whose per-element
// work cannot be skipped (e.g. every value must enter a summary): it feeds
// elements one at a time through arrive, stopping after the first element
// that emitted a message, and returns the number consumed. Protocol sites
// embed it as their ArriveBatch body.
func ArriveSerial(arrive func(item int64, value float64, out func(Message)),
	item int64, value float64, count int64, out func(Message)) int64 {
	emitted := false
	wrap := func(m Message) { emitted = true; out(m) }
	var done int64
	for done < count && !emitted {
		arrive(item, value, wrap)
		done++
	}
	return done
}

// Coordinator is the central half of a protocol. Runtimes guarantee that
// calls are never concurrent.
type Coordinator interface {
	// Receive processes a message from site from. send transmits to a single
	// site; broadcast transmits to all k sites at k times the cost.
	Receive(from int, m Message, send func(to int, m Message), broadcast func(Message))

	// SpaceWords reports the coordinator's current state size in words.
	SpaceWords() int
}

// Resyncer is an optional Coordinator capability used by the distributed
// mode's crash/rejoin recovery: Resync emits the messages that bring a
// freshly created site machine up to the coordinator's current round or
// level — the same round broadcast (or level announcement) a live site
// would have received, replayed for the newcomer. Coordinators whose sites
// carry no coordinator-fed state (the deterministic baselines) simply
// don't implement it.
type Resyncer interface {
	Resync(emit func(Message))
}

// Snapshotter is an optional Coordinator capability used by the durability
// layer (internal/persist): SnapshotState serializes the coordinator's
// entire state as a stream of (from, message) records, and RestoreState
// rebuilds that state record by record into a freshly constructed
// coordinator. The records reuse the protocol's own message types (plus
// StateMsg for pieces no protocol message carries), so they ride the
// existing wire codecs; from is the site a record is attributed to, or -1
// for global records. RestoreState must be a pure state write — it never
// emits messages and never triggers round transitions, compactions, or any
// other Receive-path side effect — and a SnapshotState/RestoreState round
// trip through a fresh coordinator must reproduce the original state
// exactly. Records must be replayed in emission order. RestoreState
// ignores records it does not recognize and bounds-checks from before
// indexing per-site state, so a corrupt log degrades to an error or a
// partial restore, never a panic.
//
// Coordinators that don't implement Snapshotter (the deterministic
// baselines) still recover — the persistence layer falls back to replaying
// the full write-ahead log from an empty coordinator, it just cannot
// compact the log with snapshots.
type Snapshotter interface {
	SnapshotState(emit func(from int, m Message))
	RestoreState(from int, m Message)
}

// StateMsg is a generic snapshot record for coordinator state that no
// protocol message carries (round indices, per-round probabilities,
// per-site thresholds). Key identifies the field — each coordinator
// package owns a disjoint key range, because records from an embedded
// rounds.Coordinator flow through the embedding coordinator's
// RestoreState — and A, B, F carry the value. StateMsg never crosses the
// site/coordinator links; it exists only inside snapshots and write-ahead
// logs, but implements Message so it can ride the wire codec registry.
type StateMsg struct {
	Key  int64
	A, B int64
	F    float64
}

// Words implements Message.
func (StateMsg) Words() int { return 4 }

// Protocol bundles a coordinator with its k sites, ready to be mounted on a
// runtime.
type Protocol struct {
	Coord Coordinator
	Sites []Site
}

// K returns the number of sites.
func (p Protocol) K() int { return len(p.Sites) }

// Aggregator is the coordinator half of an interior tree node: it runs the
// coordinator-side protocol against its children (the embedded Coordinator
// contract, including the optional Resyncer/Snapshotter capabilities) and
// re-expresses the absorbed child reports as virtual arrivals for the
// site-side protocol it plays against its parent.
//
// DrainFeed is called by the hosting topology at quiescent instants — after
// an arrival's (or batch's) cascade has fully settled — never mid-cascade.
// That timing is what keeps a tree deterministic across transports: the
// aggregator's state at a quiescent instant is a pure function of the set
// of messages delivered, independent of their interleaving across child
// links, so the feed decisions (and with them every message above this
// node) replay bit-identically on every fabric. feed(item, value, count)
// injects count identical virtual arrivals into the parent-facing site;
// implementations must only ever add mass (arrivals cannot be retracted),
// so estimate-driven feeds clamp to their running maximum.
type Aggregator interface {
	Coordinator
	DrainFeed(feed func(item int64, value float64, count int64))
}

// Tree is a two-level protocol assembly ready to be mounted on a tree
// topology: the leaf sites are sharded into Groups (each an independent
// protocol instance whose Coord must implement Aggregator), and Root is an
// ordinary protocol with one site per group — the aggregators' parent-facing
// halves — whose coordinator answers queries for the whole tree.
type Tree struct {
	// Groups holds one child-facing protocol per aggregator; leaf sites are
	// assigned contiguously, Fanout per group (the last group may be
	// smaller).
	Groups []Protocol
	// Root is the top-level protocol: K() == len(Groups) sites fed by the
	// aggregators' virtual arrivals.
	Root Protocol
	// Fanout is the number of leaf sites per group.
	Fanout int
}

// Leaves returns the total number of leaf sites.
func (t Tree) Leaves() int {
	n := 0
	for _, g := range t.Groups {
		n += g.K()
	}
	return n
}

// GroupOf maps a global leaf index to its (group, within-group site) pair.
func (t Tree) GroupOf(leaf int) (group, idx int) {
	return leaf / t.Fanout, leaf % t.Fanout
}

// TreeShape is the layout of a two-level tree over K leaves: Groups =
// ⌈K/Fanout⌉ aggregator groups of Fanout contiguous leaves (the last may be
// shorter), every level running at LevelEps = SplitEps(ε, 2). The Tree
// assemblies, the facade's option validation, and cmd/tracksim's
// multi-process deployment all take their shard arithmetic from here.
type TreeShape struct {
	K, Fanout, Groups int
	LevelEps          float64
}

// NewTreeShape lays k leaves out under aggregators of the given fanout. The
// errors are worded in the facade's vocabulary (Options.Fanout is
// tracksim's -fanout), because they are its rejection messages too.
func NewTreeShape(k, fanout int, eps float64) (TreeShape, error) {
	if fanout < 2 {
		return TreeShape{}, errors.New("Options.Fanout must be >= 2 with TopologyTree (each aggregator needs a real group)")
	}
	groups := (k + fanout - 1) / fanout
	if groups < 2 {
		return TreeShape{}, fmt.Errorf("TopologyTree depth is inconsistent with K: K=%d, Fanout=%d yields a single aggregator group — K must exceed Fanout (use TopologyFlat)", k, fanout)
	}
	return TreeShape{K: k, Fanout: fanout, Groups: groups, LevelEps: SplitEps(eps, 2)}, nil
}

// Size returns the number of leaves in group g.
func (s TreeShape) Size(g int) int {
	return min(s.Fanout, s.K-g*s.Fanout)
}

// AssembleTree builds a family's two-level tree over k leaves. level(k, eps)
// assembles one flat protocol of k sites at the per-level ε and is called
// once per group, in group order, then once for the root — the order in
// which the assemblies draw their site RNGs; agg wraps a group's coordinator
// as its aggregator. Returns the tree and the root coordinator (the query
// surface). A shape NewTreeShape rejects is a caller bug and panics.
func AssembleTree[C Coordinator](k, fanout int, eps float64,
	level func(k int, eps float64) (Protocol, C), agg func(C) Aggregator) (Tree, C) {
	s, err := NewTreeShape(k, fanout, eps)
	if err != nil {
		panic("proto: " + err.Error())
	}
	tr := Tree{Fanout: fanout}
	for g := 0; g < s.Groups; g++ {
		p, c := level(s.Size(g), s.LevelEps)
		p.Coord = agg(c)
		tr.Groups = append(tr.Groups, p)
	}
	root, c := level(s.Groups, s.LevelEps)
	tr.Root = root
	return tr, c
}

// SplitEps divides a tracker's error budget ε across the levels of a tree
// so the compounded error stays within ε: each level runs at
// x = (1+ε)^(1/levels) − 1, which makes the worst-case multiplicative
// blow-up Π(1+x) = 1+ε exactly, and (since x ≤ ε/levels by concavity) keeps
// the additive sum Σx ≤ ε for the underestimate side.
func SplitEps(eps float64, levels int) float64 {
	if levels <= 1 {
		return eps
	}
	return math.Pow(1+eps, 1/float64(levels)) - 1
}

package rank

import (
	"sync"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/summary/gk"
)

// DetSnapshotMsg ships a site's full GK summary snapshot. It travels as a
// pooled pointer message (boxing the three-word value into proto.Message
// allocates per snapshot): draw with NewDetSnapshot, and the coordinator
// recycles the shell after taking ownership of the tuple storage.
type DetSnapshotMsg struct {
	Snap gk.Snapshot
}

// Words implements proto.Message (value receiver, so both the pooled
// pointer form and plain values satisfy the interface).
func (m DetSnapshotMsg) Words() int { return m.Snap.Words() }

// detSnapshotPool recycles message shells (the gk tuple storage inside has
// its own pool, gk.SnapshotPool). Mutex-guarded stack rather than
// sync.Pool, which would allocate the pointer box on Put.
var detSnapshotPool struct {
	mu   sync.Mutex
	free []*DetSnapshotMsg
}

// NewDetSnapshot draws a snapshot message shell from the pool (the wire
// decoder uses it too, so decoded frames recycle the same shells).
func NewDetSnapshot(snap gk.Snapshot) *DetSnapshotMsg {
	detSnapshotPool.mu.Lock()
	var m *DetSnapshotMsg
	if n := len(detSnapshotPool.free); n > 0 {
		m = detSnapshotPool.free[n-1]
		detSnapshotPool.free = detSnapshotPool.free[:n-1]
		detSnapshotPool.mu.Unlock()
	} else {
		detSnapshotPool.mu.Unlock()
		m = new(DetSnapshotMsg)
	}
	m.Snap = snap
	return m
}

// RecycleDetSnapshot returns a delivered message's shell to the pool,
// dropping its reference to the tuple storage (whose ownership moved to
// the consumer). Only the final consumer may call it, exactly once.
func RecycleDetSnapshot(m *DetSnapshotMsg) {
	m.Snap = gk.Snapshot{}
	detSnapshotPool.mu.Lock()
	detSnapshotPool.free = append(detSnapshotPool.free, m)
	detSnapshotPool.mu.Unlock()
}

// DetSite is the per-site half of the deterministic rank-tracking baseline
// (Cormode et al. [6] style): a Greenwald–Khanna summary over the site's
// whole stream, snapshotted to the coordinator every T = max(1, ⌊εn̄/(4k)⌋)
// arrivals. Communication O(k/ε²·logN) words; error at most
// εn/8 (GK) + k·T ≤ 3εn/8 at all times.
//
// The paper's own deterministic baseline [29] improves this to
// O(k/ε·logN·log²(1/ε)); the experiment harness plots that analytic curve
// alongside this implementation (experiments.AnalyticWords).
type DetSite struct {
	k   int
	eps float64
	rs  *rounds.Site
	g   *gk.Summary
	// pool recycles snapshot tuple slices with the coordinator that retires
	// them (nil = allocate per snapshot); NewDetProtocol wires a shared one.
	pool *gk.SnapshotPool

	sinceReport int64
}

// NewDetSite returns a deterministic site.
func NewDetSite(k int, eps float64) *DetSite {
	if k <= 0 {
		panic("rank: K must be positive")
	}
	if eps <= 0 || eps >= 1 {
		panic("rank: eps out of (0,1)")
	}
	return &DetSite{k: k, eps: eps, rs: rounds.NewSite(), g: gk.New(eps / 8)}
}

// threshold returns the snapshot period T.
func (s *DetSite) threshold() int64 {
	t := int64(s.eps * float64(s.rs.NBar()) / (4 * float64(s.k)))
	if t < 1 {
		t = 1
	}
	return t
}

// Arrive implements proto.Site.
func (s *DetSite) Arrive(item int64, value float64, out func(proto.Message)) {
	s.g.Insert(value)
	s.sinceReport++
	if s.sinceReport >= s.threshold() {
		out(NewDetSnapshot(s.g.SnapshotInto(s.pool)))
		s.sinceReport = 0
	}
	s.rs.Arrive(out)
}

// ArriveBatch implements proto.BatchSite. Every value must enter the GK
// summary, so the batch is consumed element by element (proto.ArriveSerial).
func (s *DetSite) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	return proto.ArriveSerial(s.Arrive, item, value, count, out)
}

// Receive implements proto.Site.
func (s *DetSite) Receive(m proto.Message, out func(proto.Message)) {
	s.rs.Deliver(m)
}

// SpaceWords implements proto.Site.
func (s *DetSite) SpaceWords() int {
	return s.rs.SpaceWords() + s.g.SpaceWords() + 1
}

// DetCoordinator keeps each site's latest snapshot and sums rank estimates.
type DetCoordinator struct {
	rc    *rounds.Coordinator
	snaps []gk.Snapshot
	// pool receives the tuple storage of superseded snapshots so the sites
	// can reuse it (nil = leave them to the GC).
	pool *gk.SnapshotPool
}

// NewDetCoordinator returns the deterministic coordinator.
func NewDetCoordinator(k int) *DetCoordinator {
	return &DetCoordinator{rc: rounds.NewCoordinator(k), snaps: make([]gk.Snapshot, k)}
}

// Receive implements proto.Coordinator.
func (c *DetCoordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		return
	}
	if sm, ok := m.(*DetSnapshotMsg); ok {
		old := c.snaps[from]
		c.snaps[from] = sm.Snap
		old.Release(c.pool)
		RecycleDetSnapshot(sm)
	}
}

// Rank returns the deterministic estimate of |{elements < x}|.
func (c *DetCoordinator) Rank(x float64) float64 {
	var est int64
	for _, sn := range c.snaps {
		est += sn.Rank(x)
	}
	return float64(est)
}

// Quantile locates a value of estimated rank q·n̂ by bisection over [lo, hi]
// (NaN on an empty coordinator; see Bisect).
func (c *DetCoordinator) Quantile(q float64, lo, hi float64) float64 {
	return Bisect(c.Rank)(q, lo, hi)
}

// SpaceWords implements proto.Coordinator.
func (c *DetCoordinator) SpaceWords() int {
	w := c.rc.SpaceWords()
	for _, sn := range c.snaps {
		w += sn.Words()
	}
	return w
}

// NewDetProtocol assembles the deterministic rank tracker. Sites and the
// coordinator share one snapshot pool: the coordinator retires each
// superseded snapshot's storage and the next site snapshot reuses it.
func NewDetProtocol(k int, eps float64) (proto.Protocol, *DetCoordinator) {
	pool := &gk.SnapshotPool{}
	coord := NewDetCoordinator(k)
	coord.pool = pool
	sites := make([]proto.Site, k)
	for i := range sites {
		ds := NewDetSite(k, eps)
		ds.pool = pool
		sites[i] = ds
	}
	return proto.Protocol{Coord: coord, Sites: sites}, coord
}

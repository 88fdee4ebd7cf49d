package freq

import (
	"sync"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/summary/spacesaving"
)

// DetReportMsg reports a SpaceSaving slot's state (3 words: slot, item,
// count). It travels as a pooled pointer message: boxing a value into the
// proto.Message interface allocates per report, and reports are the
// deterministic tracker's dominant traffic. Draw with NewDetReport; the
// coordinator recycles the shell after copying it.
type DetReportMsg struct {
	Slot  int
	Item  int64
	Count int64
}

// Words implements proto.Message (value receiver, so both the pooled
// pointer form and plain values satisfy the interface).
func (DetReportMsg) Words() int { return 3 }

// detReportPool recycles report shells. A mutex-guarded stack rather than
// sync.Pool: Put-ting into a sync.Pool boxes the pointer and allocates the
// very shell the pool exists to avoid.
var detReportPool struct {
	mu   sync.Mutex
	free []*DetReportMsg
}

// NewDetReport draws a report message from the shell pool (the wire decoder
// uses it too, so decoded frames recycle the same shells).
func NewDetReport(slot int, item, count int64) *DetReportMsg {
	detReportPool.mu.Lock()
	var r *DetReportMsg
	if n := len(detReportPool.free); n > 0 {
		r = detReportPool.free[n-1]
		detReportPool.free = detReportPool.free[:n-1]
		detReportPool.mu.Unlock()
	} else {
		detReportPool.mu.Unlock()
		r = new(DetReportMsg)
	}
	r.Slot, r.Item, r.Count = slot, item, count
	return r
}

// RecycleDetReport returns a delivered report's shell to the pool. Only the
// final consumer may call it, exactly once, after its last read.
func RecycleDetReport(r *DetReportMsg) {
	detReportPool.mu.Lock()
	detReportPool.free = append(detReportPool.free, r)
	detReportPool.mu.Unlock()
}

// DetSite is the per-site half of the deterministic frequency baseline: the
// optimal Θ(k/ε·logN) deterministic tracker of [29], realized as a
// SpaceSaving summary whose monotone counters are reported every time they
// cross a fresh multiple of T = max(1, ⌊εn̄/(8k)⌋).
//
// Error analysis (per query item, summed over sites): staleness < k·T ≤
// εn̄/8 ≤ εn/8; SpaceSaving overestimation Σ_i n_i/m = εn/8 for m = 8/ε
// slots; stale-label slack at most another n_i/m + T per site (a slot only
// changes label while it is the minimum, so its count is ≤ n_i/m). Total
// well under εn.
type DetSite struct {
	k   int
	eps float64
	rs  *rounds.Site
	ss  *spacesaving.Summary

	lastReported map[int]int64 // per slot, the count at its last report
}

// NewDetSite returns a deterministic site.
func NewDetSite(k int, eps float64) *DetSite {
	if k <= 0 {
		panic("freq: K must be positive")
	}
	if eps <= 0 || eps >= 1 {
		panic("freq: eps out of (0,1)")
	}
	m := int(8/eps) + 1
	return &DetSite{
		k:            k,
		eps:          eps,
		rs:           rounds.NewSite(),
		ss:           spacesaving.New(m),
		lastReported: make(map[int]int64, m),
	}
}

// threshold returns the current reporting granularity T.
func (s *DetSite) threshold() int64 {
	nBar := s.rs.NBar()
	t := int64(s.eps * float64(nBar) / (8 * float64(s.k)))
	if t < 1 {
		t = 1
	}
	return t
}

// Arrive implements proto.Site.
func (s *DetSite) Arrive(item int64, value float64, out func(proto.Message)) {
	c := s.ss.Add(item)
	if c.Count >= s.lastReported[c.Slot]+s.threshold() {
		out(NewDetReport(c.Slot, c.Item, c.Count))
		s.lastReported[c.Slot] = c.Count
	}
	s.rs.Arrive(out)
}

// ArriveBatch implements proto.BatchSite. SpaceSaving's heap layout depends
// on the exact sequence of sift operations, so bulk counter increments are
// not state-identical to repeated Adds; the batch is delivered element by
// element (proto.ArriveSerial), preserving the stop-at-first-message
// contract.
func (s *DetSite) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	return proto.ArriveSerial(s.Arrive, item, value, count, out)
}

// Receive implements proto.Site (round broadcasts only adjust T implicitly
// through n̄; no state is cleared — counters are global and monotone).
func (s *DetSite) Receive(m proto.Message, out func(proto.Message)) {
	s.rs.Deliver(m)
}

// SpaceWords implements proto.Site: O(1/ε).
func (s *DetSite) SpaceWords() int {
	return s.rs.SpaceWords() + s.ss.SpaceWords() + len(s.lastReported)
}

// DetCoordinator mirrors each site's reported slots and answers point
// queries with the summed counts of the slots labeled with the query item.
type DetCoordinator struct {
	rc    *rounds.Coordinator
	slots []map[int]DetReportMsg // per site: slot id -> last report
	sum   map[int64]int64        // per item: Σ Count over mirrored slots labeled with it
	words int                    // running space charge: three words per mirrored slot
}

// NewDetCoordinator returns the deterministic coordinator.
func NewDetCoordinator(k int) *DetCoordinator {
	c := &DetCoordinator{rc: rounds.NewCoordinator(k), slots: make([]map[int]DetReportMsg, k), sum: make(map[int64]int64)}
	for i := range c.slots {
		c.slots[i] = make(map[int]DetReportMsg)
	}
	return c
}

// Receive implements proto.Coordinator.
func (c *DetCoordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		return
	}
	if r, ok := m.(*DetReportMsg); ok {
		site := c.slots[from]
		if old, ok := site[r.Slot]; ok {
			c.add(old.Item, -old.Count) // the slot's previous report, possibly under another label
		} else {
			c.words += 3
		}
		site[r.Slot] = *r
		c.add(r.Item, r.Count)
		RecycleDetReport(r)
	}
}

// add moves item's summed count by delta, dropping the key at zero so sum
// holds only items some mirrored slot is still labeled with.
func (c *DetCoordinator) add(item, delta int64) {
	if s := c.sum[item] + delta; s != 0 {
		c.sum[item] = s
	} else {
		delete(c.sum, item)
	}
}

// Estimate returns the deterministic estimate of item j's frequency. O(1):
// Receive keeps the per-item sum current.
func (c *DetCoordinator) Estimate(j int64) float64 { return float64(c.sum[j]) }

// SpaceWords implements proto.Coordinator: an O(1) read of the ledger kept
// by Receive. The per-item sum is derived from the mirrored slots and is not
// charged.
func (c *DetCoordinator) SpaceWords() int { return c.rc.SpaceWords() + c.words }

// NewDetProtocol assembles the deterministic frequency tracker.
func NewDetProtocol(k int, eps float64) (proto.Protocol, *DetCoordinator) {
	coord := NewDetCoordinator(k)
	sites := make([]proto.Site, k)
	for i := range sites {
		sites[i] = NewDetSite(k, eps)
	}
	return proto.Protocol{Coord: coord, Sites: sites}, coord
}

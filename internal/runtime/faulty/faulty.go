// Package faulty is the fault-injection middleware of the tracking
// runtime: it sits on the runtime.Middleware seam inside a concurrent
// transport's Fabric and perturbs every protocol message under a seeded,
// deterministic schedule — drops, duplicates, delays, reorders, and
// per-site partitions/kills.
//
// # Fault model
//
// The layer models a lossy, delaying network *under a reliability
// sublayer* (sequence numbers, acknowledgements, retransmission — the
// ARQ every real deployment runs, TCP itself for the socket transports):
//
//   - a dropped frame is recovered by retransmission: the protocol message
//     still arrives, exactly once and in per-link FIFO order, but the
//     ledger is charged for the lost copy's retransmission and the
//     receiver's NACK — communication degrades, correctness does not;
//   - a duplicated frame is discarded by the receiver's sequence check:
//     the ledger is charged for the extra copy, the machine sees it once;
//   - a delayed frame is genuinely held inside this layer and delivered
//     later — after the current cascade (reorder), or whole arrivals later
//     (delay) — still in per-link FIFO order. Held frames keep their
//     in-flight token parked in the fabric's Barrier, so the quiescence
//     choreography stays truthful: Transport.Quiesce (behind every query
//     and metrics read) settles all deliverable traffic first;
//   - a partitioned (killed) site keeps ingesting locally, but traffic in
//     both directions is trapped in this layer until the partition heals;
//     queries meanwhile see documented partial coverage
//     (Metrics.LiveSites < k) and reconverge once held traffic drains.
//
// Because drops and duplicates are fully masked by the reliability model
// and reorders never escape a cascade, a run under {drop, duplicate,
// reorder} faults produces bit-identical answers and arrival accounting to
// the fault-free run (the chaos-equivalence test in the root package pins
// this); cross-arrival delays and partitions genuinely perturb protocol
// timing and degrade accuracy, which is the point.
//
// All randomness flows through per-link stats.RNG streams split from
// Plan.Seed, and the kill schedule is keyed to the fabric's arrival
// counter, so a fault schedule is reproducible bit-for-bit.
package faulty

import (
	"sync"
	"sync/atomic"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/stats"
)

// Kill cuts one site off from the coordinator for a window of the run.
// While dead, the site's traffic (both directions) is trapped in the fault
// layer and Metrics.LiveSites drops by one; at RejoinAt the partition
// heals and the trapped traffic is delivered, in order.
type Kill struct {
	// Site is the site index to cut off.
	Site int
	// At is the global arrival count at which the site dies.
	At int64
	// RejoinAt is the global arrival count at which it rejoins; 0 means it
	// never does (trapped traffic is released only by Heal, e.g. at Close).
	RejoinAt int64
}

// Plan is a seeded, deterministic fault schedule. The zero value injects
// nothing.
type Plan struct {
	// Seed derives every per-link dice stream; runs with equal plans are
	// bit-identical.
	Seed uint64
	// Drop is the per-message probability that a frame is lost and
	// retransmitted (possibly repeatedly — each retry redraws).
	Drop float64
	// Duplicate is the per-message probability that an extra copy crosses
	// the wire and is discarded by the receiver.
	Duplicate float64
	// Reorder is the per-message probability that a frame is held to the
	// end of the current cascade, letting later traffic overtake it.
	Reorder float64
	// Delay is the per-message probability that a frame is held for
	// DelayArrivals whole arrivals before delivery.
	Delay float64
	// DelayArrivals is how many arrivals a delayed frame is held for
	// (default 1). Queries settle delayed traffic early (Quiesce releases
	// everything deliverable), so delays perturb protocol timing, not
	// query consistency.
	DelayArrivals int64
	// MaxHeld bounds each link's hold queue (default 8); when it
	// overflows, the oldest held frame is delivered immediately.
	MaxHeld int
	// Kills is the site crash/rejoin schedule.
	Kills []Kill
}

// Stats counts fault events. All fields are cumulative.
type Stats struct {
	Dropped     int64 // frames lost (each recovered by a retransmission)
	Retransmits int64 // recovery retransmissions charged to the ledger
	Duplicated  int64 // duplicate frames charged and discarded
	Reordered   int64 // frames held to the end of their cascade
	Delayed     int64 // frames held across arrivals
	Partitioned int64 // frames trapped behind a dead site's partition
}

// held is one frame waiting inside the fault layer.
type held struct {
	m     proto.Message
	dueAt int64 // deliverable once the fabric's arrival clock reaches this
	part  bool  // trapped behind a partition: exempt from full settles
}

// link is one direction of one site's coordinator connection.
type link struct {
	mu   sync.Mutex
	rng  *stats.RNG
	q    []held
	head int
}

func (l *link) len() int { return len(l.q) - l.head }

func (l *link) push(h held) {
	if l.head > 0 && l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
	}
	l.q = append(l.q, h)
}

func (l *link) pop() held {
	h := l.q[l.head]
	l.q[l.head].m = nil
	l.head++
	return h
}

// Injector implements runtime.Middleware for one mounted transport.
// Construct with New, install with Fabric.SetMiddleware before the first
// arrival.
type Injector struct {
	plan Plan
	f    *runtime.Fabric
	k    int
	up   []link // site -> coordinator, by site
	down []link // coordinator -> site, by site

	dropped, retransmits, duplicated int64
	reordered, delayed, partitioned  int64

	healed atomic.Bool // Heal called: every partition is forced open
}

// New builds an injector for the fabric's protocol. The plan is validated
// (probabilities in [0,1), sites in range) and defaulted in place.
func New(f *runtime.Fabric, plan Plan) *Injector {
	k := f.Protocol().K()
	if plan.Drop < 0 || plan.Drop >= 1 ||
		plan.Duplicate < 0 || plan.Duplicate > 1 ||
		plan.Reorder < 0 || plan.Reorder > 1 ||
		plan.Delay < 0 || plan.Delay > 1 {
		panic("faulty: fault probabilities must be in [0,1) for Drop, [0,1] otherwise")
	}
	if plan.DelayArrivals < 0 {
		panic("faulty: negative Plan.DelayArrivals")
	}
	if plan.DelayArrivals == 0 {
		plan.DelayArrivals = 1
	}
	if plan.MaxHeld < 0 {
		panic("faulty: negative Plan.MaxHeld")
	}
	if plan.MaxHeld == 0 {
		plan.MaxHeld = 8
	}
	for _, kl := range plan.Kills {
		if kl.Site < 0 || kl.Site >= k {
			panic("faulty: Kill.Site out of range")
		}
		if kl.At <= 0 || (kl.RejoinAt != 0 && kl.RejoinAt <= kl.At) {
			panic("faulty: Kill window must satisfy 0 < At < RejoinAt")
		}
	}
	inj := &Injector{plan: plan, f: f, k: k, up: make([]link, k), down: make([]link, k)}
	root := stats.New(plan.Seed ^ 0xfa017) // distinct from every protocol stream
	for i := 0; i < k; i++ {
		inj.up[i].rng = root.Split()
		inj.down[i].rng = root.Split()
	}
	return inj
}

// Plan returns the validated, defaulted plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// deadAt reports whether site is inside a kill window at arrival clock n.
func (inj *Injector) deadAt(site int, n int64) bool {
	if inj.healed.Load() {
		return false
	}
	for _, kl := range inj.plan.Kills {
		if kl.Site == site && n >= kl.At && (kl.RejoinAt == 0 || n < kl.RejoinAt) {
			return true
		}
	}
	return false
}

// intercept is the shared Up/Down body. site identifies the link's site
// end (sender for up, receiver for down).
func (inj *Injector) intercept(l *link, site int, up bool, m proto.Message, deliver func(proto.Message)) {
	n := inj.f.Arrivals()
	words := int64(m.Words())
	charge := inj.f.ChargeUp
	nack := inj.f.ChargeDown
	if !up {
		charge, nack = nack, charge
	}

	l.mu.Lock()
	// Losses first: each lost copy is recovered by one NACK on the reverse
	// path (one word) and one retransmission; the retry redraws, so a
	// burst of losses charges a geometric number of round trips.
	for inj.plan.Drop > 0 && l.rng.Bernoulli(inj.plan.Drop) {
		atomic.AddInt64(&inj.dropped, 1)
		atomic.AddInt64(&inj.retransmits, 1)
		nack(1, 1)
		charge(1, words)
	}
	if inj.plan.Duplicate > 0 && l.rng.Bernoulli(inj.plan.Duplicate) {
		// The duplicate crosses the wire and fails the receiver's sequence
		// check: charged, never delivered to the machine.
		atomic.AddInt64(&inj.duplicated, 1)
		charge(1, words)
	}

	h := held{m: m, dueAt: n}
	hold := false
	switch {
	case inj.deadAt(site, n):
		h.part = true
		hold = true
		atomic.AddInt64(&inj.partitioned, 1)
	case inj.plan.Delay > 0 && l.rng.Bernoulli(inj.plan.Delay):
		h.dueAt = n + inj.plan.DelayArrivals
		hold = true
		atomic.AddInt64(&inj.delayed, 1)
	case inj.plan.Reorder > 0 && l.rng.Bernoulli(inj.plan.Reorder):
		// Due immediately but parked: delivered at the cascade's settle,
		// after everything still actively moving.
		hold = true
		atomic.AddInt64(&inj.reordered, 1)
	case l.len() > 0:
		// The link has held traffic; FIFO means this frame queues behind
		// it (the reliability sublayer never reorders within a link).
		hold = true
	}
	if !hold {
		l.mu.Unlock()
		deliver(m)
		return
	}
	l.push(h)
	inj.f.Inflight.Park()
	// Bound the queue: overflow delivers the oldest deliverable frame now.
	// The caller holds the link's owning mutex (the site's for up, the
	// coordinator's for down), so direct delivery is safe.
	var evict proto.Message
	if l.len() > inj.plan.MaxHeld && !l.q[l.head].part {
		evict = l.pop().m
	}
	l.mu.Unlock()
	if evict != nil {
		inj.f.Inflight.Unpark()
		deliver(evict)
	}
}

// Up implements runtime.Middleware.
func (inj *Injector) Up(from int, m proto.Message, deliver func(proto.Message)) {
	inj.intercept(&inj.up[from], from, true, m, deliver)
}

// Down implements runtime.Middleware.
func (inj *Injector) Down(to int, m proto.Message, deliver func(proto.Message)) {
	inj.intercept(&inj.down[to], to, false, m, deliver)
}

// releaseLink delivers one link's head frame under the link's owning mutex
// if it is deliverable. Only the head is considered: FIFO within a link is
// the reliability sublayer's promise, so a due frame never jumps a held
// earlier one.
func (inj *Injector) releaseLink(l *link, site int, up bool, full bool) bool {
	if inj.f.Closed() {
		// The transport's sockets may be gone; a released frame would land
		// on a closed connection, and its token would never retire,
		// hanging every later Quiesce. Held residue stays held — queries
		// after Close read the state as of Close.
		return false
	}
	n := inj.f.Arrivals()
	l.mu.Lock()
	if l.len() == 0 {
		l.mu.Unlock()
		return false
	}
	h := l.q[l.head]
	ok := false
	switch {
	case h.part:
		// Partition-trapped: deliverable only once the kill window is
		// over (or the injector was healed outright).
		ok = inj.healed.Load() || !inj.deadAt(site, n)
	case full:
		ok = true
	default:
		ok = h.dueAt <= n
	}
	if !ok {
		l.mu.Unlock()
		return false
	}
	l.pop()
	l.mu.Unlock()
	inj.f.Inflight.Unpark()
	if up {
		inj.f.ReleaseUp(site, h.m)
	} else {
		inj.f.ReleaseDown(site, h.m)
	}
	return true
}

// Release implements runtime.Middleware: the barrier's idle hook. It
// releases at most ONE frame per call; the barrier then settles that
// frame's whole cascade before asking again. One at a time is what keeps
// per-link FIFO airtight: a release happens at a no-active-work instant,
// so nothing else is moving on the link, and the release hands the frame
// to the link's delivery (applied to the coordinator, queued on the
// fabric's down queue, or written to the socket) before Release returns — anything
// the cascade adds to the same link later queues behind it and can never
// overtake it.
func (inj *Injector) Release(full bool) bool {
	for i := 0; i < inj.k; i++ {
		if inj.releaseLink(&inj.up[i], i, true, full) {
			return true
		}
		if inj.releaseLink(&inj.down[i], i, false, full) {
			return true
		}
	}
	return false
}

// LiveSites implements runtime.Middleware.
func (inj *Injector) LiveSites() int {
	n := inj.f.Arrivals()
	live := inj.k
	for i := 0; i < inj.k; i++ {
		if inj.deadAt(i, n) {
			live--
		}
	}
	return live
}

// Heal force-opens every partition (a never-rejoining kill included) so
// trapped traffic can drain: call before tearing the transport down when a
// plan ends the run with a site still dead, or to end a what-if window
// early. The next Quiesce delivers everything.
func (inj *Injector) Heal() { inj.healed.Store(true) }

// Stats returns a snapshot of the fault counters. Safe to call anytime.
func (inj *Injector) Stats() Stats {
	return Stats{
		Dropped:     atomic.LoadInt64(&inj.dropped),
		Retransmits: atomic.LoadInt64(&inj.retransmits),
		Duplicated:  atomic.LoadInt64(&inj.duplicated),
		Reordered:   atomic.LoadInt64(&inj.reordered),
		Delayed:     atomic.LoadInt64(&inj.delayed),
		Partitioned: atomic.LoadInt64(&inj.partitioned),
	}
}

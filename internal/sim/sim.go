// Package sim is the sequential reference transport: it delivers elements
// to protocol sites one at a time, runs every resulting message cascade to
// quiescence (the paper's instant-communication assumption), and keeps
// exact message/word/space accounting. Harness implements the
// runtime.Transport seam; it is the fabric disttrack mounts by default.
//
// All experiment and benchmark numbers in this repository come from this
// transport, so they are deterministic given the protocol's RNG seeds.
//
// Two ingestion paths exist. Arrive feeds one element; ArriveBatch feeds a
// run of identical elements through the proto.BatchSite fast path, splitting
// the run at every message (so coordinator replies land exactly where they
// would element-at-a-time) and at every space-probe boundary (so probes
// sample the same instants). A batched run is therefore bit-identical to the
// equivalent sequence of Arrive calls, in protocol state and in Metrics,
// while costing O(messages) instead of O(arrivals).
package sim

import (
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/workload"
)

// Harness hosts one protocol instance.
type Harness struct {
	p proto.Protocol
	// SpaceProbeEvery controls how often per-site space is sampled; 0
	// disables periodic probing (a final probe still happens via Probe).
	SpaceProbeEvery int

	metrics runtime.Metrics

	// The message queue is a head-indexed FIFO: popping advances head
	// instead of re-slicing (which would strand the backing array's prefix
	// and re-allocate on every append/pop cycle). The queue is compacted
	// when the dead prefix dominates and reset to offset zero whenever it
	// drains.
	queue []envelope
	head  int

	// Per-site and coordinator-side enqueue closures are built once at New:
	// the hot path hands the same closure to every Arrive/Receive call
	// instead of allocating a fresh capture per arrival.
	siteOuts  []func(proto.Message)
	coordSend func(to int, m proto.Message)
	coordCast func(m proto.Message)

	// batch[i] is non-nil when site i implements the proto.BatchSite fast
	// path (resolved once so ArriveBatch avoids a type assertion per chunk).
	batch []proto.BatchSite

	// tap, when set, observes every delivered message (runtime.Tap).
	tap runtime.Tap

	// coordLog, when set, observes every coordinator-bound message just
	// before the coordinator applies it (the durability layer's
	// write-ahead hook; see runtime.Fabric.SetCoordLog).
	coordLog func(from int, m proto.Message)
}

type envelope struct {
	toCoord bool
	from    int // valid when toCoord
	to      int // valid when !toCoord
	msg     proto.Message
}

// New returns a harness for the protocol. SpaceProbeEvery defaults to 1024.
func New(p proto.Protocol) *Harness {
	if p.Coord == nil || len(p.Sites) == 0 {
		panic("sim: protocol needs a coordinator and at least one site")
	}
	h := &Harness{p: p, SpaceProbeEvery: 1024}
	h.metrics.LiveSites = len(p.Sites) // the sequential fabric never faults
	h.siteOuts = make([]func(proto.Message), len(p.Sites))
	h.batch = make([]proto.BatchSite, len(p.Sites))
	for i := range p.Sites {
		h.siteOuts[i] = func(m proto.Message) {
			h.queue = append(h.queue, envelope{toCoord: true, from: i, msg: m})
		}
		if bs, ok := p.Sites[i].(proto.BatchSite); ok {
			h.batch[i] = bs
		}
	}
	h.coordSend = func(to int, m proto.Message) {
		h.queue = append(h.queue, envelope{to: to, msg: m})
	}
	h.coordCast = func(m proto.Message) {
		h.metrics.Broadcasts++
		for s := range h.p.Sites {
			h.queue = append(h.queue, envelope{to: s, msg: m})
		}
	}
	return h
}

// K returns the number of sites.
func (h *Harness) K() int { return h.p.K() }

// Metrics returns a copy of the current cost ledger.
func (h *Harness) Metrics() runtime.Metrics { return h.metrics }

// Quiesce implements runtime.Transport; the sequential transport is
// quiescent whenever control returns to the caller.
func (h *Harness) Quiesce() {}

// SetTap implements runtime.Transport: tap observes every delivered
// message. Install before the first arrival.
func (h *Harness) SetTap(t runtime.Tap) { h.tap = t }

// Close implements runtime.Transport (nothing to release).
func (h *Harness) Close() {}

// SetCoordLog installs the durability layer's write-ahead hook (see
// runtime.Fabric.SetCoordLog). Install before the first arrival; a nil fn
// removes it.
func (h *Harness) SetCoordLog(fn func(from int, m proto.Message)) { h.coordLog = fn }

// SeedLedger pre-loads the cost ledger, so a harness mounted over a
// recovered coordinator reports Metrics spanning the whole logical run.
// Call before the first arrival.
func (h *Harness) SeedLedger(m runtime.Metrics) {
	live := h.metrics.LiveSites
	h.metrics = m
	h.metrics.LiveSites = live
}

// Arrive delivers one element to site and runs the protocol to quiescence.
func (h *Harness) Arrive(site int, item int64, value float64) {
	h.metrics.Arrivals++
	h.p.Sites[site].Arrive(item, value, h.siteOuts[site])
	if h.head < len(h.queue) {
		h.drain()
	}
	if h.SpaceProbeEvery > 0 && h.metrics.Arrivals%int64(h.SpaceProbeEvery) == 0 {
		h.Probe()
	}
}

// ArriveBatch delivers count identical elements to site, equivalent to count
// Arrive calls but with work proportional to the messages exchanged. Sites
// without the proto.BatchSite fast path degrade to element-at-a-time
// delivery.
func (h *Harness) ArriveBatch(site int, item int64, value float64, count int64) {
	for count > 0 {
		chunk := count
		if h.SpaceProbeEvery > 0 {
			// Split at probe boundaries so space is sampled at the same
			// arrival counts as the per-element path.
			every := int64(h.SpaceProbeEvery)
			if until := every - h.metrics.Arrivals%every; until < chunk {
				chunk = until
			}
		}
		var done int64
		if bs := h.batch[site]; bs != nil {
			done = bs.ArriveBatch(item, value, chunk, h.siteOuts[site])
		} else {
			h.p.Sites[site].Arrive(item, value, h.siteOuts[site])
			done = 1
		}
		h.metrics.Arrivals += done
		count -= done
		if h.head < len(h.queue) {
			h.drain()
		}
		if h.SpaceProbeEvery > 0 && h.metrics.Arrivals%int64(h.SpaceProbeEvery) == 0 {
			h.Probe()
		}
	}
}

// drain processes queued messages (and any messages they trigger) in FIFO
// order until none remain.
func (h *Harness) drain() {
	for h.head < len(h.queue) {
		// Compact when the dead prefix dominates a long cascade, keeping
		// memory proportional to the live queue.
		if h.head >= 1024 && h.head*2 >= len(h.queue) {
			n := copy(h.queue, h.queue[h.head:])
			h.queue = h.queue[:n]
			h.head = 0
		}
		env := h.queue[h.head]
		h.head++
		if env.toCoord {
			h.metrics.MessagesUp++
			h.metrics.WordsUp += int64(env.msg.Words())
			if h.tap != nil {
				h.tap.Up(env.from, env.msg)
			}
			if h.coordLog != nil {
				h.coordLog(env.from, env.msg)
			}
			h.p.Coord.Receive(env.from, env.msg, h.coordSend, h.coordCast)
		} else {
			h.metrics.MessagesDown++
			h.metrics.WordsDown += int64(env.msg.Words())
			if h.tap != nil {
				h.tap.Down(env.to, env.msg)
			}
			h.p.Sites[env.to].Receive(env.msg, h.siteOuts[env.to])
		}
	}
	// Fully drained: reuse the backing array from offset zero.
	h.queue = h.queue[:0]
	h.head = 0
}

// Probe samples current space usage into the high-water marks.
func (h *Harness) Probe() {
	for _, s := range h.p.Sites {
		if w := s.SpaceWords(); w > h.metrics.MaxSiteSpace {
			h.metrics.MaxSiteSpace = w
		}
	}
	if w := h.p.Coord.SpaceWords(); w > h.metrics.MaxCoordSpace {
		h.metrics.MaxCoordSpace = w
	}
}

// Run feeds a whole event sequence; check, if non-nil, is invoked after
// every arrival with the number of arrivals so far (1-based) — protocols'
// concrete query methods are reached through the closure environment.
func (h *Harness) Run(events []workload.Event, check func(arrived int64)) {
	for _, e := range events {
		h.Arrive(e.Site, e.Item, e.Value)
		if check != nil {
			check(h.metrics.Arrivals)
		}
	}
	h.Probe()
}

// RunConfig feeds the events described by a workload.Config without
// materializing them.
func (h *Harness) RunConfig(cfg workload.Config, check func(arrived int64)) {
	cfg.Each(func(e workload.Event) {
		h.Arrive(e.Site, e.Item, e.Value)
		if check != nil {
			check(h.metrics.Arrivals)
		}
	})
	h.Probe()
}

// RunConfigBatched feeds the events described by a workload.Config through
// the batch fast path, coalescing maximal runs of identical consecutive
// events. check, if non-nil, is invoked after each run (not after each
// arrival) with the number of arrivals so far. Protocol state and Metrics
// are identical to RunConfig's; only the check cadence differs.
func (h *Harness) RunConfigBatched(cfg workload.Config, check func(arrived int64)) {
	cfg.EachRun(func(r workload.Batch) {
		h.ArriveBatch(r.Site, r.Item, r.Value, r.Count)
		if check != nil {
			check(h.metrics.Arrivals)
		}
	})
	h.Probe()
}

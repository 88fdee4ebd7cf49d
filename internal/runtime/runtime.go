// Package runtime is the seam between the tracking protocols and the
// message fabrics that host them.
//
// A protocol (internal/proto) is a set of passive state machines; a
// Transport is the fabric that carries their messages and injects arrivals:
//
//   - the sequential exact-accounting simulator (internal/sim);
//   - the in-memory fabric (internal/netsim), which runs every cascade on
//     the feeding goroutine;
//   - the TCP-loopback transport (internal/runtime/tcp), which frames
//     wire-encoded messages (internal/wire) over real sockets.
//
// All three preserve the paper's instant-communication model the same way:
// an arrival is injected only after the previous cascade has fully
// quiesced, so for a fixed seed the per-link message sequences, the cost
// Metrics, and every query answer are identical on every transport (the
// transport-independence test in the root package enforces this). The two
// in-process fabrics share Fabric, which runs no goroutine of its own:
// Fabric.DeliverUp applies each site message on the goroutine that
// delivers it, under one coordinator mutex, and the feeding goroutine
// applies each coordinator message (Fabric.Post, Fabric.DeliverDown) while
// it settles.
//
// The Runtime wrapper owns the choreography the facade needs — quiesce
// before reading metrics, probe space high-water marks at quiescent
// instants — so disttrack.Options can switch fabrics without the facade
// knowing any transport's private protocol.
//
// The tcp subpackage also hosts the genuinely distributed mode: a
// coordinator process (tcp.Server) and k site processes (tcp.SiteConn)
// exchanging the same wire frames over real TCP connections, used by
// cmd/tracksim serve / connect.
package runtime

import "disttrack/internal/proto"

// Metrics is the cost ledger of one run, in the paper's units, shared by
// every transport.
type Metrics struct {
	MessagesUp   int64 // site -> coordinator messages
	MessagesDown int64 // coordinator -> site messages (a broadcast counts k)
	WordsUp      int64
	WordsDown    int64
	Broadcasts   int64 // broadcast operations (before the k factor)
	Arrivals     int64

	// MaxSiteSpace is the high-water mark of the maximum per-site space
	// observed at probe instants; MaxCoordSpace likewise for the
	// coordinator. The sequential transport probes every SpaceProbeEvery
	// arrivals; the concurrent transports probe at quiescent instants on
	// the same cadence (and always when metrics are read), so the marks are
	// meaningful on every transport.
	MaxSiteSpace  int
	MaxCoordSpace int

	// LiveSites is the number of sites currently reachable from the
	// coordinator: k on a healthy transport, fewer while a fault plan has
	// sites killed or partitioned (in-process fault middleware) or while
	// crashed site processes have not rejoined (distributed mode). Queries
	// made while LiveSites < k cover only the live sites' recent data —
	// the documented partial-coverage degradation.
	LiveSites int

	// Durability counters (internal/persist), zero when persistence is
	// off: Snapshots is the number of coordinator-state snapshots taken
	// over the store's lifetime, ReplayedFrames the write-ahead-log frames
	// replayed by the most recent recovery, and Resyncs the site resync
	// replays served (rejoins answered with state replay — distributed
	// mode and in-process coordinator restarts).
	Snapshots      int64
	ReplayedFrames int64
	Resyncs        int64
}

// Messages returns the total message count.
func (m Metrics) Messages() int64 { return m.MessagesUp + m.MessagesDown }

// Words returns the total word count.
func (m Metrics) Words() int64 { return m.WordsUp + m.WordsDown }

// Tap observes every protocol message a transport carries, in delivery
// order per link. A link is one site's duplex connection to the
// coordinator: calls for one (site, direction) pair are ordered and never
// concurrent, but calls for different links may be concurrent on the
// concurrent transports. Transport control traffic (handshakes, frames'
// envelopes) is not reported. Install with Transport.SetTap before the
// first arrival.
type Tap interface {
	// Up observes a site -> coordinator message.
	Up(from int, m proto.Message)
	// Down observes a coordinator -> site message (one call per receiving
	// site for a broadcast).
	Down(to int, m proto.Message)
}

// Transport hosts one mounted protocol: it injects arrivals into site
// machines, carries site <-> coordinator messages, enforces the
// instant-communication model (Arrive returns only after the cascade has
// quiesced), and keeps the cost ledger.
//
// Calls are not safe for concurrent use: one goroutine feeds a transport.
// Callers that need many feeding goroutines put internal/ingest's Frontend
// in front — it stages concurrent arrivals and drains them through a
// single goroutine, keeping this contract intact.
type Transport interface {
	// Arrive injects one element at site and returns after the resulting
	// message cascade has fully quiesced.
	Arrive(site int, item int64, value float64)

	// ArriveBatch injects count identical elements at site, equivalent to
	// count Arrive calls but with work proportional to the messages the
	// batch triggers (proto.BatchSite fast path).
	ArriveBatch(site int, item int64, value float64, count int64)

	// Quiesce blocks until no message is in flight. Arrive already
	// quiesces; this is exposed for callers reading protocol state.
	Quiesce()

	// Probe samples per-site and coordinator space into the Metrics
	// high-water marks. The transport must be quiescent.
	Probe()

	// Metrics returns a snapshot of the cost ledger. Call after Quiesce
	// for a consistent view.
	Metrics() Metrics

	// SetTap installs a message observer. Must be called before the first
	// arrival; a nil tap removes it.
	SetTap(Tap)

	// Close releases the transport's resources (goroutines, sockets). The
	// transport must be quiescent and must not be used afterwards.
	Close()
}

// Runtime hosts one protocol on one transport and owns the choreography the
// public facade relies on: metrics reads quiesce and probe first, so space
// high-water marks are populated on every transport.
type Runtime struct {
	t Transport
}

// New wraps a transport carrying an already-mounted protocol.
func New(t Transport) *Runtime { return &Runtime{t: t} }

// Transport returns the underlying transport.
func (r *Runtime) Transport() Transport { return r.t }

// Arrive injects one element at site.
func (r *Runtime) Arrive(site int, item int64, value float64) {
	r.t.Arrive(site, item, value)
}

// ArriveBatch injects count identical elements at site.
func (r *Runtime) ArriveBatch(site int, item int64, value float64, count int64) {
	r.t.ArriveBatch(site, item, value, count)
}

// Metrics quiesces, probes space at the quiescent instant, and returns the
// ledger.
func (r *Runtime) Metrics() Metrics {
	r.t.Quiesce()
	r.t.Probe()
	return r.t.Metrics()
}

// SetTap installs a message observer on the transport (before any arrival).
func (r *Runtime) SetTap(t Tap) { r.t.SetTap(t) }

// Close shuts the transport down.
func (r *Runtime) Close() { r.t.Close() }

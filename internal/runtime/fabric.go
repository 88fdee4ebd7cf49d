package runtime

import (
	"sync"
	"sync/atomic"

	"disttrack/internal/proto"
)

// Middleware intercepts every protocol message a Fabric-based transport
// carries, between cost accounting and delivery. The fault-injection layer
// (internal/runtime/faulty) is the only implementation; a nil middleware
// means direct delivery.
//
// Per-link calls are serial: Up(i, ...) runs on the settling goroutine (for
// arrival- and receive-triggered sends alike), Down under the coordinator
// mutex. To deliver immediately the middleware calls deliver; to hold the
// message it queues the frame internally and parks its in-flight token
// (Fabric.Inflight.Park), then releases later from Release (the barrier's
// idle hook) by unparking the token and delivering through the link's
// owner (Fabric.ReleaseUp on the settling goroutine, Fabric.ReleaseDown
// under the coordinator mutex). Once the fabric is Closed, nothing may be
// released (check Fabric.Closed).
type Middleware interface {
	// Up intercepts a site->coordinator message already charged to the
	// ledger; deliver carries it to the coordinator.
	Up(from int, m proto.Message, deliver func(m proto.Message))
	// Down intercepts a coordinator->site message already charged to the
	// ledger; deliver carries it to site to.
	Down(to int, m proto.Message, deliver func(m proto.Message))
	// Release is the barrier's idle hook: release held traffic (everything
	// deliverable when full, only due traffic otherwise) and report whether
	// anything was released. Runs on the injecting goroutine at a
	// no-active-work instant.
	Release(full bool) bool
	// LiveSites reports how many sites are currently reachable (not killed
	// or partitioned by the fault plan).
	LiveSites() int
}

// Fabric is the shared core of the in-process transports (netsim, TCP
// loopback): inline arrival injection, the down queue, the in-flight
// counter that realizes the instant-communication quiescence barrier, the
// cost ledger, and quiesce-time space probing. A transport embeds *Fabric,
// registers its per-site and coordinator delivery (and optional flush)
// hooks with BindSite/BindCoord, hands every site->coordinator message that
// reaches the coordinator's end to DeliverUp and every coordinator->site
// message that reaches a site's end to Post, and brackets every message it
// carries with CountUp/CountDown so Arrive's barrier covers it.
//
// The fabric runs no goroutine of its own. Arrivals take the zero-hop fast
// path: Arrive runs the site machine on the injecting goroutine, takes no
// in-flight token and settles only when the machine sent something (see
// Barrier), so a message-free arrival — the overwhelmingly common case
// under the paper's protocols — costs the site machine and a few loads. The
// coordinator runs on whichever goroutine delivers to it (the injector on
// netsim, a connection reader on TCP), under coordMu. Sites receive on the
// injector too: Post queues a down-message with its token still active,
// and the barrier, which only the injecting goroutine settles, drains the
// queue through DeliverDown before every wait. The paper's model lets no
// element arrive while a message is outstanding, so site goroutines would
// buy no parallelism.
//
// Every site-side call (Arrive, ArriveBatch, DeliverDown, ReleaseUp) runs
// on the goroutine that feeds and settles the fabric, which the caller
// keeps to one at a time (the ingest frontend's feed mutex under
// concurrent ingest), so site machines, their pending send buffers and
// their middleware links need no lock. Lock order is coordMu -> the down
// queue's leaf mutex: a coordinator send only enqueues (a Post or a frame
// append), so nothing under coordMu waits for anything else.
type Fabric struct {
	p proto.Protocol

	// SpaceProbeEvery controls how often space is sampled at quiescent
	// instants (0 disables periodic probing; Probe still samples on
	// demand). Probes happen after an injection quiesces, so they read
	// protocol state race-free (the in-flight barrier orders them after
	// every handler).
	SpaceProbeEvery int

	// Inflight counts undelivered messages; DeliverUp and DeliverDown call
	// Inflight.Done() after handling each. Messages held inside the fault
	// middleware park their token instead (see Barrier).
	Inflight Barrier

	tap Tap
	mw  Middleware

	// Per-site send path, built by BindSite: siteOut brackets an emitted
	// message with CountUp and routes it through the middleware to
	// siteDeliver; siteFlush (optional) is the transport's coalescing
	// boundary, called after an injection or a delivered message.
	siteOut     []func(m proto.Message)
	siteDeliver []func(m proto.Message)
	siteFlush   []func()

	// coordMu serializes the coordinator machine, its send path (and so its
	// middleware links and the transport's coordinator-side buffers) and
	// coordLog across every goroutine that delivers to it.
	coordMu sync.Mutex

	// Coordinator send path, built by BindCoord, run under coordMu.
	coordSend      func(to int, m proto.Message)
	coordCast      func(m proto.Message)
	coordDeliverTo []func(m proto.Message)
	coordFlush     func()

	// coordLog, when set, observes every coordinator-bound protocol
	// message under coordMu immediately before the coordinator applies it
	// — the durability layer's write-ahead hook (it must panic or abort on
	// failure; a frame applied but not logged would be lost by recovery).
	// Nil costs one predictable branch on the delivery path.
	coordLog func(from int, m proto.Message)

	// down is the FIFO of coordinator->site messages Post queued for the
	// settling goroutine, from downHead on; downMu is a leaf lock. The
	// storage is reused once the queue empties, so a Post allocates
	// nothing in steady state.
	downMu   sync.Mutex
	down     []downMsg
	downHead int

	// closed flips when MarkClosed runs, turning use-after-Close from a
	// silent in-flight-accounting deadlock into a loud panic (which the
	// ingest frontend converts into a terminal error). failure holds the
	// value a panic on the coordinator path left behind (see DeliverUp);
	// the feeding goroutine raises it the same way.
	closed  atomic.Bool
	failure atomic.Pointer[any]

	messagesUp, messagesDown int64
	wordsUp, wordsDown       int64
	broadcasts, arrivals     int64

	// Space high-water marks, written only at quiescent instants from the
	// injecting goroutine (see Probe).
	maxSiteSpace, maxCoordSpace int
}

// NewFabric validates the protocol and builds the shared core. The
// transport must BindSite (for every site) and BindCoord before the first
// arrival.
func NewFabric(p proto.Protocol) *Fabric {
	if p.Coord == nil || len(p.Sites) == 0 {
		panic("runtime: protocol needs a coordinator and at least one site")
	}
	k := len(p.Sites)
	f := &Fabric{
		p:               p,
		SpaceProbeEvery: 1024,
		siteOut:         make([]func(m proto.Message), k),
		siteDeliver:     make([]func(m proto.Message), k),
		siteFlush:       make([]func(), k),
	}
	f.Inflight.init(f.drainDown)
	return f
}

// Protocol returns the mounted protocol.
func (f *Fabric) Protocol() proto.Protocol { return f.p }

// BindSite registers site i's transport delivery hook (carry one emitted
// message to the coordinator: DeliverUp it, encode a frame, ...) and an
// optional flush hook marking the transport's coalescing
// boundary — flush runs after every inline injection and every delivered
// message, on the settling goroutine, so buffered frames are always on the
// wire before the fabric settles. Bind before the first arrival.
func (f *Fabric) BindSite(i int, deliver func(m proto.Message), flush func()) {
	f.siteDeliver[i] = deliver
	f.siteFlush[i] = flush
	f.siteOut[i] = func(m proto.Message) {
		f.CountUp(i, m)
		if f.mw != nil {
			f.mw.Up(i, m, deliver)
			return
		}
		deliver(m)
	}
}

// BindCoord registers the coordinator's transport delivery hook (carry one
// message to one site — Post it, encode a frame, ...; it must only enqueue,
// see the lock order in the Fabric doc) and an optional flush hook, called
// under coordMu after every applied message. Bind before the first arrival.
func (f *Fabric) BindCoord(deliver func(to int, m proto.Message), flush func()) {
	f.coordFlush = flush
	// One bound closure per destination, so the middleware path doesn't
	// allocate a fresh capture per send.
	f.coordDeliverTo = make([]func(m proto.Message), len(f.p.Sites))
	for to := range f.coordDeliverTo {
		to := to
		f.coordDeliverTo[to] = func(m proto.Message) { deliver(to, m) }
	}
	f.coordSend = func(to int, m proto.Message) {
		f.CountDown(to, m)
		if f.mw != nil {
			f.mw.Down(to, m, f.coordDeliverTo[to])
			return
		}
		deliver(to, m)
	}
	f.coordCast = func(m proto.Message) {
		f.CountBroadcast()
		for s := range f.p.Sites {
			f.coordSend(s, m)
		}
	}
}

// SetMiddleware installs the fault-injection middleware and hooks it into
// the quiescence barrier. Install before the first arrival; a nil
// middleware restores direct delivery.
func (f *Fabric) SetMiddleware(mw Middleware) {
	f.mw = mw
	if mw == nil {
		f.Inflight.SetOnIdle(nil)
		return
	}
	f.Inflight.SetOnIdle(mw.Release)
}

// Middleware returns the installed fault middleware (nil when none).
func (f *Fabric) Middleware() Middleware { return f.mw }

// ChargeUp adds fault-layer overhead traffic — duplicates the receiver
// discarded, retransmissions of lost frames — to the site->coordinator
// ledger without delivering anything.
func (f *Fabric) ChargeUp(msgs, words int64) {
	atomic.AddInt64(&f.messagesUp, msgs)
	atomic.AddInt64(&f.wordsUp, words)
}

// ChargeDown is ChargeUp for the coordinator->site direction.
func (f *Fabric) ChargeDown(msgs, words int64) {
	atomic.AddInt64(&f.messagesDown, msgs)
	atomic.AddInt64(&f.wordsDown, words)
}

// ReleaseUp delivers a held site->coordinator message and flushes the
// link. It runs on the settling goroutine (the barrier's idle hook), which
// owns the link's delivery resources (a pending frame buffer). The caller
// must have unparked the message's token first; the delivery retires it
// without re-counting cost (the original send was already charged).
func (f *Fabric) ReleaseUp(from int, m proto.Message) {
	f.siteDeliver[from](m)
	f.flushSite(from)
}

// ReleaseDown delivers a held coordinator->site message under coordMu (see
// ReleaseUp); DeliverDown retires its token.
func (f *Fabric) ReleaseDown(to int, m proto.Message) {
	f.coordMu.Lock()
	defer f.coordMu.Unlock()
	f.coordDeliverTo[to](m)
	if f.coordFlush != nil {
		f.coordFlush()
	}
}

// Arrivals returns the number of arrivals injected so far (the fault
// plan's clock).
func (f *Fabric) Arrivals() int64 { return atomic.LoadInt64(&f.arrivals) }

// Closed reports whether MarkClosed has run: the transport's sockets may be
// gone, so held traffic can no longer be released (the middleware must stop
// releasing, or a released token could never retire and Quiesce would
// hang).
func (f *Fabric) Closed() bool { return f.closed.Load() }

// CountUp brackets one site->coordinator message: in-flight token, ledger,
// tap. The transport delivers the message after calling it.
func (f *Fabric) CountUp(from int, m proto.Message) {
	f.Inflight.Add(1)
	atomic.AddInt64(&f.messagesUp, 1)
	atomic.AddInt64(&f.wordsUp, int64(m.Words()))
	if f.tap != nil {
		f.tap.Up(from, m)
	}
}

// CountDown brackets one coordinator->site message.
func (f *Fabric) CountDown(to int, m proto.Message) {
	f.Inflight.Add(1)
	atomic.AddInt64(&f.messagesDown, 1)
	atomic.AddInt64(&f.wordsDown, int64(m.Words()))
	if f.tap != nil {
		f.tap.Down(to, m)
	}
}

// CountBroadcast records one broadcast operation (the per-site sends are
// still counted individually via CountDown).
func (f *Fabric) CountBroadcast() {
	atomic.AddInt64(&f.broadcasts, 1)
}

// flushSite runs site i's flush hook, so the cascade the site work just
// triggered is actually on the wire when the barrier starts settling it.
func (f *Fabric) flushSite(i int) {
	if fl := f.siteFlush[i]; fl != nil {
		fl()
	}
}

// settle is the per-arrival barrier, run once site work and its flush have
// returned. It calls Settle(false) only when a token is active or parked:
// otherwise the system is already quiescent (the argument is in the Barrier
// doc), and Settle would return at once.
func (f *Fabric) settle() {
	if f.Inflight.busy() {
		f.Inflight.Settle(false)
	}
	f.raise()
}

// Arrive implements Transport: it injects one element at site — running the
// site machine inline on the calling goroutine (the zero-hop fast path) —
// and blocks until the whole system is quiescent again, matching the
// paper's model where no element arrives while messages are outstanding.
// Under fault middleware, "quiescent" means as quiet as the fault plan
// allows: frames delayed across arrivals or trapped behind a partition stay
// in flight inside the fault layer (Settle(false)); the full barrier behind
// Quiesce settles them.
func (f *Fabric) Arrive(site int, item int64, value float64) {
	f.enter()
	n := atomic.AddInt64(&f.arrivals, 1)
	f.p.Sites[site].Arrive(item, value, f.siteOut[site])
	f.flushSite(site)
	f.settle()
	if f.SpaceProbeEvery > 0 && n%int64(f.SpaceProbeEvery) == 0 {
		f.Probe()
	}
}

// ArriveBatch implements Transport: each chunk is absorbed up to the
// site's next message via the proto.BatchSite fast path (inline, like
// Arrive), then the resulting cascade runs to quiescence before the rest of
// the run is fed — so round broadcasts land between arrivals exactly as
// they would element-at-a-time.
func (f *Fabric) ArriveBatch(site int, item int64, value float64, count int64) {
	f.enter()
	every := int64(f.SpaceProbeEvery)
	s, out := f.p.Sites[site], f.siteOut[site]
	for count > 0 {
		consumed := proto.ArriveChunk(s, item, value, count, out)
		f.flushSite(site)
		f.settle()
		n := atomic.AddInt64(&f.arrivals, consumed)
		count -= consumed
		if every > 0 && n%every < consumed {
			f.Probe()
		}
	}
}

// enter guards an injection: use after Close panics instead of hanging on
// in-flight accounting the closed transport could never retire, and a
// recorded failure is raised.
func (f *Fabric) enter() {
	if f.closed.Load() {
		panic("runtime: transport used after Close")
	}
	f.raise()
}

// raise panics with the failure a coordinator-path panic left behind (see
// DeliverUp), if any — the ingest frontend turns it into a terminal error,
// as it does the use-after-Close panic.
func (f *Fabric) raise() {
	if p := f.failure.Load(); p != nil {
		panic(*p)
	}
}

// downMsg is one queued coordinator->site message.
type downMsg struct {
	to int
	m  proto.Message
}

// Post queues a coordinator->site message that reached site to's end; its
// in-flight token stays active until DeliverDown applies it. Post never
// blocks, so it is safe under coordMu and on a socket reader, and it wakes
// the settler when the queue was empty (the settler only waits after
// finding it empty, so one wake-up per run of messages is enough).
func (f *Fabric) Post(to int, m proto.Message) {
	f.downMu.Lock()
	wasEmpty := f.downHead == len(f.down)
	f.down = append(f.down, downMsg{to: to, m: m})
	f.downMu.Unlock()
	if wasEmpty {
		f.Inflight.wake()
	}
}

// drainDown applies the oldest queued down-message, if any, and reports
// whether it did. It is the barrier's drain hook, so it runs only on the
// settling goroutine.
func (f *Fabric) drainDown() bool {
	f.downMu.Lock()
	if f.downHead == len(f.down) {
		f.downMu.Unlock()
		return false
	}
	d := f.down[f.downHead]
	f.down[f.downHead] = downMsg{} // drop the reference for the GC
	if f.downHead++; f.downHead == len(f.down) {
		f.down, f.downHead = f.down[:0], 0
	}
	f.downMu.Unlock()
	f.DeliverDown(d.to, d.m)
	return true
}

// DeliverDown applies one coordinator->site message on the settling
// goroutine: it runs the site machine (its sends routed through the site's
// send path) and the site flush, then retires the message's token. It is
// DeliverUp's twin; per-link order is the down queue's FIFO order.
func (f *Fabric) DeliverDown(to int, m proto.Message) {
	f.p.Sites[to].Receive(m, f.siteOut[to])
	f.flushSite(to)
	f.Inflight.Done()
}

// DeliverUp applies one site->coordinator message on the calling goroutine:
// under coordMu it runs the write-ahead hook, the coordinator machine (its
// sends and broadcasts bracketed with CountDown/CountBroadcast and routed
// through the BindCoord hook) and the coordinator flush, then retires the
// message's token. Per-link order is the caller's: a transport delivers
// each link's messages in emission order.
func (f *Fabric) DeliverUp(from int, m proto.Message) {
	f.coordMu.Lock()
	defer f.exitCoord()
	if f.failure.Load() != nil {
		return // the coordinator failed: nothing is applied any more
	}
	if f.coordLog != nil {
		f.coordLog(from, m)
	}
	f.p.Coord.Receive(from, m, f.coordSend, f.coordCast)
	if f.coordFlush != nil {
		f.coordFlush()
	}
}

// exitCoord ends a DeliverUp. A panic on the coordinator path — a failed
// write-ahead append, a broken socket — must not unwind through the
// delivering goroutine, which may be the feeder in the middle of a site
// machine (inline delivery) or a transport reader: it is recorded as the fabric's failure and the
// barrier is aborted, so the settling goroutine wakes and raises it.
func (f *Fabric) exitCoord() {
	if p := recover(); p != nil {
		cause := p // declared here so only a failure moves it to the heap
		f.failure.Store(&cause)
		f.Inflight.Abort()
	}
	f.coordMu.Unlock()
	f.Inflight.Done()
}

// Quiesce implements Transport: the full barrier. Under fault middleware it
// also settles delayed traffic that has not yet come due — a query forces
// the reliability layer to deliver everything it can — while traffic held
// behind a live partition stays in flight (the degraded view a partition
// inflicts). A failed fabric panics with its failure instead (see raise).
func (f *Fabric) Quiesce() {
	f.Inflight.Settle(true)
	f.raise()
}

// Probe implements Transport. The fabric must be quiescent: the in-flight
// barrier then orders this read after every handler that touched protocol
// state, so it is race-free even though the coordinator may have run on a
// socket reader.
func (f *Fabric) Probe() {
	for _, s := range f.p.Sites {
		if w := s.SpaceWords(); w > f.maxSiteSpace {
			f.maxSiteSpace = w
		}
	}
	if w := f.p.Coord.SpaceWords(); w > f.maxCoordSpace {
		f.maxCoordSpace = w
	}
}

// SetTap implements Transport: tap observes every message at send time
// (per-link order matches delivery order; different links may call it
// concurrently). Install before the first arrival.
func (f *Fabric) SetTap(t Tap) { f.tap = t }

// SetCoordLog installs the durability layer's write-ahead hook: fn runs
// under coordMu for every coordinator-bound protocol message, just before
// the coordinator applies it. Install before the first arrival; a
// nil fn removes it.
func (f *Fabric) SetCoordLog(fn func(from int, m proto.Message)) { f.coordLog = fn }

// SeedLedger pre-loads the cost ledger — a replacement fabric mounted
// after a coordinator crash carries the crashed run's counters forward, so
// Metrics span the whole logical run. Call before the first arrival.
func (f *Fabric) SeedLedger(m Metrics) {
	atomic.StoreInt64(&f.messagesUp, m.MessagesUp)
	atomic.StoreInt64(&f.messagesDown, m.MessagesDown)
	atomic.StoreInt64(&f.wordsUp, m.WordsUp)
	atomic.StoreInt64(&f.wordsDown, m.WordsDown)
	atomic.StoreInt64(&f.broadcasts, m.Broadcasts)
	atomic.StoreInt64(&f.arrivals, m.Arrivals)
	f.maxSiteSpace = m.MaxSiteSpace
	f.maxCoordSpace = m.MaxCoordSpace
}

// Metrics implements Transport. Call after Quiesce for a consistent view.
func (f *Fabric) Metrics() Metrics {
	live := len(f.p.Sites)
	if f.mw != nil {
		live = f.mw.LiveSites()
	}
	return Metrics{
		MessagesUp:    atomic.LoadInt64(&f.messagesUp),
		MessagesDown:  atomic.LoadInt64(&f.messagesDown),
		WordsUp:       atomic.LoadInt64(&f.wordsUp),
		WordsDown:     atomic.LoadInt64(&f.wordsDown),
		Broadcasts:    atomic.LoadInt64(&f.broadcasts),
		Arrivals:      atomic.LoadInt64(&f.arrivals),
		MaxSiteSpace:  f.maxSiteSpace,
		MaxCoordSpace: f.maxCoordSpace,
		LiveSites:     live,
	}
}

// MarkClosed marks the fabric closed, so later injections panic instead of
// hanging on in-flight accounting that the transport's closed sockets
// could never retire.
func (f *Fabric) MarkClosed() { f.closed.Store(true) }

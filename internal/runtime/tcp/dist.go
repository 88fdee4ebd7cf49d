package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/stats"
	"disttrack/internal/wire"
)

// This file is the genuinely distributed mode: a coordinator process
// (Server) and k site processes (SiteConn) running the paper's protocols
// over real TCP connections, exchanging the same wire frames as the
// in-process Loopback transport. cmd/tracksim's serve and connect
// subcommands are thin wrappers around these two types.
//
// Unlike the three in-process transports, the distributed mode cannot
// enforce the paper's instant-communication idealization — a real network
// has latency, so elements keep arriving while messages are in flight. The
// protocols tolerate this (their state machines are asynchronous by
// construction); the accounting and estimates simply reflect whatever
// interleaving the network produced.

// outSeg is one pending run of encoded frames for a site connection,
// referencing either the fanout's shared broadcast arena or the site's own
// unicast arena by offsets (offsets, not slices, because the arenas may
// reallocate while segments are pending).
type outSeg struct {
	shared     bool
	start, end int
}

// fanoutWriter coalesces the serve loop's outbound frames: point-to-point
// sends encode into a per-site arena, broadcasts encode once into a shared
// arena that every live site's segment list references, and flush — called
// at the serve loop's event edges — ships each dirty connection's pending
// run in one syscall (a plain write when the run is contiguous, a vectored
// net.Buffers write when broadcast and unicast segments interleave). The
// serve loop is the only writer, so none of this needs a lock.
type fanoutWriter struct {
	conns  []net.Conn
	shared []byte
	uni    [][]byte
	segs   [][]outSeg
	dirty  []int
	vec    net.Buffers
}

func newFanoutWriter(conns []net.Conn) *fanoutWriter {
	return &fanoutWriter{
		conns: conns,
		uni:   make([][]byte, len(conns)),
		segs:  make([][]outSeg, len(conns)),
	}
}

func (w *fanoutWriter) frameOf(to int, sg outSeg) []byte {
	if sg.shared {
		return w.shared[sg.start:sg.end]
	}
	return w.uni[to][sg.start:sg.end]
}

// add records a pending segment for site to, merging contiguous runs from
// the same arena so a burst of same-destination frames (a resync replay)
// flushes as a single write.
func (w *fanoutWriter) add(to int, sg outSeg) {
	segs := w.segs[to]
	if len(segs) == 0 {
		w.dirty = append(w.dirty, to)
	} else if last := &segs[len(segs)-1]; last.shared == sg.shared && last.end == sg.start {
		last.end = sg.end
		return
	}
	w.segs[to] = append(segs, sg)
}

// unicast encodes one frame for site to into its arena. Encoding failures
// are ignored like the old per-message path ignored them: a message that
// cannot be encoded cannot be helped, and the site's reader will report any
// real connection trouble.
func (w *fanoutWriter) unicast(to int, m proto.Message) {
	start := len(w.uni[to])
	buf, err := wire.AppendFrame(w.uni[to], m)
	if err != nil {
		return
	}
	w.uni[to] = buf
	w.add(to, outSeg{start: start, end: len(buf)})
}

// flush ships every dirty connection's pending frames and resets the
// arenas. Write errors are deliberately dropped, as the per-message sends
// always were: a vanished site cannot be helped, and its reader reports the
// loss to the serve loop.
func (w *fanoutWriter) flush() {
	for _, to := range w.dirty {
		conn, segs := w.conns[to], w.segs[to]
		if conn != nil {
			if len(segs) == 1 {
				conn.Write(w.frameOf(to, segs[0]))
			} else {
				w.vec = w.vec[:0]
				for _, sg := range segs {
					w.vec = append(w.vec, w.frameOf(to, sg))
				}
				w.vec.WriteTo(conn)
			}
		}
		w.segs[to] = segs[:0]
		w.uni[to] = w.uni[to][:0]
	}
	w.dirty = w.dirty[:0]
	w.shared = w.shared[:0]
}

// Server hosts a protocol's coordinator half for k remote site processes.
//
// One event loop owns every slot decision from the first accept to the
// last frame. Accepted connections are handshaken on their own goroutines,
// which only read and vet the first frame within HandshakeTimeout and post
// a Hello or Rejoin to the loop's mailbox (anything else is rejected on
// the spot). The loop then moves through four phases:
//
//   - assembling: a Hello fills an empty slot, and a Hello that contradicts
//     the deployment (bad or duplicate site, k or fingerprint mismatch) is
//     fatal — unless a Rejoin filled the slot, when it is the crashed
//     predecessor's stale handshake and merely rejected. A Rejoin fills an
//     empty slot and is resynced at once. A site whose Done is already
//     durable is answered with its completion ack. Inspect reports false;
//     Shutdown and Kill stop the loop. Readers start once every unfinished
//     slot is filled.
//   - running: site frames are logged and applied; a lost connection leaves
//     its slot open for RejoinWait; a Rejoin resumes an open slot, is acked
//     for a finished site, and is rejected otherwise, as is any Hello.
//   - lingering: once every site has settled, a resumed server keeps
//     answering the redials of sites whose Done a crash left unacknowledged,
//     with the running phase's handlers, until each has been told or
//     RejoinWait passes.
//   - draining: handshakes are aborted and joined, connected sites acked
//     and hung up on, the frames still queued applied (dropped on Kill),
//     and the store sealed (except on Kill).
type Server struct {
	// Coord is the coordinator state machine (required).
	Coord proto.Coordinator
	// K is the number of site processes to expect (required, >= 1).
	K int
	// Config is an optional fingerprint of the protocol configuration
	// (problem, algorithm, ε, rescale, ...). Sites must dial with the same
	// value in their Hello frame; a mismatch rejects the site, so a
	// mis-deployed pair fails loudly instead of silently dropping every
	// protocol message. Zero on both sides matches.
	Config uint64
	// ReportEvery, when positive, invokes Report after every ReportEvery
	// processed protocol messages. Report runs on the coordinator loop, so
	// it may safely query the coordinator machine. The Arrivals field of
	// the reported metrics carries the sites' running counts (from their
	// periodic Progress frames, see SiteConn.ProgressEvery), so mid-run
	// reports show real ingestion progress rather than 0 until Done.
	ReportEvery int64
	Report      func(m runtime.Metrics)

	// HandshakeTimeout bounds how long an accepted connection may take to
	// deliver its Hello frame before it is rejected (0 = default 10s). A
	// connection that sends garbage, or nothing at all — a port scan, a
	// health check — is dropped and accepting continues; it cannot stall
	// the run forever or abort it.
	HandshakeTimeout time.Duration

	// RejoinWait is how long a crashed site's slot stays open for a Rejoin
	// dial before the site is declared lost. While a site is dead the run
	// continues on the remaining sites (Metrics.LiveSites reflects the
	// degraded coverage); a site that rejoins in time resumes its slot
	// with a Resync handshake. 0 preserves the legacy behavior: a dropped
	// connection is an immediate loss.
	RejoinWait time.Duration

	// Persist, when non-nil, is the durability seam: every coordinator-bound
	// frame — protocol messages plus the Done/Progress control frames that
	// carry the sites' arrival counts — is appended to its write-ahead log
	// before the coordinator applies it, and the log is compacted into a
	// coordinator-state snapshot every SnapshotEvery logged frames (0 =
	// persist.DefaultEvery). The caller owns the store: Serve seals it with
	// a final snapshot and sync on any exit except Kill, but never closes
	// it.
	Persist       persist.Store
	SnapshotEvery int64

	// Resume recovers the coordinator from Persist before accepting sites:
	// the latest snapshot is restored, the write-ahead-log tail is replayed
	// (re-deriving the cost ledger and per-site arrival counts), and the
	// server then waits for its K sites to reconnect — a site dialing with
	// a Rejoin handshake is resynced into the recovered round during
	// assembly, exactly as a mid-run rejoin would be. Resume targets
	// mid-stream coordinator crashes; a run whose sites all finished has
	// nothing left to serve.
	Resume bool

	// Rejects counts connections dropped during the handshake (garbage
	// frames, non-Hello traffic, timeouts, dials still handshaking when the
	// run ended, Hellos once the run started, and Rejoin dials for slots
	// that are not open). Serve joins every handshake before it returns,
	// so the field is final then; plain reads are safe.
	Rejects int64

	// Rejoins counts crashed-site slots successfully resumed by a Rejoin
	// handshake. Final once Serve returns.
	Rejoins int64

	// Cost counters; only the Serve goroutine touches them (sends,
	// dispatch, and the Report callback all run there), so they are plain
	// fields — unlike runtime.Fabric, no cross-goroutine sharing exists.
	messagesUp, messagesDown int64
	wordsUp, wordsDown       int64
	broadcasts               int64
	siteArrivals             []int64 // running counts from Progress frames, final from Done
	liveCount                int     // sites currently connected or cleanly finished
	// finished marks sites whose Done frame was durably applied (directly,
	// or recovered from the store). A resumed server does not wait for
	// these sites during assembly, and a finished site that redials —
	// because the previous coordinator crashed before acknowledging its
	// Done — is answered with an acknowledging Resync and hung up.
	// ackDelivered records which of those completion acks were written
	// without error, so the post-run linger knows when every
	// recovered-finished site has been told its work is durable.
	finished     []bool
	ackDelivered []bool

	// Durability state: the write-ahead logger over Persist, the number of
	// WAL frames the last recovery replayed, and the number of site resync
	// replays served (assembly-time and mid-run rejoins).
	log      *persist.Logger
	replayed int64
	resyncs  int64

	// box is the event loop's mailbox, published before serving flips true
	// so Shutdown, Kill and Inspect can signal the loop from other
	// goroutines.
	box *mailbox

	// loopDone is closed when Serve returns, after the final drain has
	// applied every queued frame. Inspect selects on it so an inspectReq
	// stranded by teardown (posted after the drain emptied the box) fails
	// over instead of blocking forever.
	loopDone chan struct{}

	// serving is true while the loop takes events: from before the first
	// accept until the drain begins.
	serving atomic.Bool

	// Handshakes run on their own goroutines; hsConns tracks their
	// connections so the drain can abort the reads, and hsWG joins them
	// before Serve returns — keeping the "Rejects/Rejoins are final once
	// Serve returns" contract honest. Both are guarded by hsMu; a nil
	// hsConns means no more may start.
	hsMu    sync.Mutex
	hsConns map[net.Conn]struct{}
	hsWG    sync.WaitGroup
}

// helloReq and rejoinReq hand a handshake's first frame to the loop, which
// decides what the slot does with it.
type (
	helloReq struct {
		wire.Hello
		conn net.Conn
	}
	rejoinReq struct {
		wire.Rejoin
		conn net.Conn
	}
)

// rejoinTimeout declares a dead site lost if it has not rejoined by the
// time the timer fired. epoch guards against a slot that died, rejoined,
// and died again since the timer was armed.
type rejoinTimeout struct {
	site  int
	epoch int
}

// lingerTimeout closes the post-run linger window in which a resumed
// server keeps answering finished sites' redials with completion acks.
type lingerTimeout struct{}

// shutdownReq asks the loop to stop gracefully (drain, final snapshot,
// sync); killReq asks it to stop abruptly (simulated crash).
type (
	shutdownReq struct{}
	killReq     struct{}
)

// inspectReq asks the loop to run fn on the loop goroutine — the serving
// surface's way to query the coordinator and read the cost ledger at an
// instant when no frame is mid-application. done receives whether fn ran.
type inspectReq struct {
	fn   func(runtime.Metrics)
	done chan bool
}

// ErrShutdown is returned by Serve when Shutdown stopped it before every
// site finished; ErrKilled likewise for Kill.
var (
	ErrShutdown = errors.New("tcp: server shut down before the sites finished")
	ErrKilled   = errors.New("tcp: server killed")
)

// Shutdown asks a running Serve to stop gracefully: the loop stops
// dispatching new traffic, frames already queued are drained into the
// coordinator (and the write-ahead log), a final snapshot is written, and
// the store is synced — so a later Serve with Resume picks up exactly
// where this one stopped. Serve returns ErrShutdown, also when it was still
// assembling its sites. Reports whether a running loop was signaled. Safe
// to call from any goroutine (signal handlers in particular).
func (s *Server) Shutdown() bool { return s.signal(shutdownReq{}) }

// Kill asks a running Serve to stop abruptly: no drain, no final snapshot,
// no sync — the write-ahead log keeps exactly what was appended before the
// kill, simulating a coordinator crash for chaos drills. Serve returns
// ErrKilled.
func (s *Server) Kill() bool { return s.signal(killReq{}) }

// Inspect runs fn on the loop at an instant when no frame is
// mid-application, handing it the server's cost ledger; fn may also safely
// query s.Coord (exactly like Report callbacks). It blocks until fn has
// run and reports true, or reports false without running fn when there is
// no run to inspect: before Serve starts, while it is still assembling its
// sites, or once the loop has shut down and drained — after which the
// coordinator is no longer mutated, so callers may read it directly. Safe
// to call from any goroutine.
func (s *Server) Inspect(fn func(runtime.Metrics)) bool {
	if !s.serving.Load() {
		return false
	}
	// serving was set after box and loopDone, so the load above ordered
	// both reads.
	req := inspectReq{fn: fn, done: make(chan bool, 1)}
	s.box.put(req)
	select {
	case ran := <-req.done:
		return ran
	case <-s.loopDone:
		// Teardown raced the put: the drain already emptied the box, nobody
		// will run fn. The loop is gone, which is exactly what false means.
		return false
	}
}

func (s *Server) signal(ev any) bool {
	if !s.serving.Load() {
		return false
	}
	// serving was set after box, so the load above ordered this read; a
	// teardown racing the put is benign (the drain discards unknown events).
	s.box.put(ev)
	return true
}

// coordRound reports the coordinator's current round when it exposes one
// (the rounds-framework trackers do); deterministic baselines report 0.
func (s *Server) coordRound() int64 {
	if rc, ok := s.Coord.(interface{ Round() int }); ok {
		return int64(rc.Round())
	}
	return 0
}

// snapMeta captures the server's cost ledger for a snapshot header; the
// Logger fills the Snapshots field itself. Called on the Serve goroutine,
// never concurrently.
func (s *Server) snapMeta() wire.SnapMeta {
	return wire.SnapMeta{
		Config:       s.Config,
		MessagesUp:   s.messagesUp,
		MessagesDown: s.messagesDown,
		WordsUp:      s.wordsUp,
		WordsDown:    s.wordsDown,
		Broadcasts:   s.broadcasts,
		Resyncs:      s.resyncs,
		SiteArrivals: append([]int64(nil), s.siteArrivals...),
		Finished:     append([]bool(nil), s.finished...),
	}
}

// reject drops a connection the loop or a handshake refused, counting it.
func (s *Server) reject(conn net.Conn) {
	conn.Close()
	atomic.AddInt64(&s.Rejects, 1)
}

// accept hands every connection on ln to its own handshake goroutine, so a
// stray connection — a port scanner, a health check, a client speaking
// another protocol, a dialer that never speaks — costs nothing serially.
// It runs until the caller closes ln; once the drain has begun, new
// connections are simply closed.
func (s *Server) accept(ln net.Listener, timeout time.Duration) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.box.put(fmt.Errorf("tcp: serve accept: %w", err))
			return
		}
		s.hsMu.Lock()
		if s.hsConns == nil {
			s.hsMu.Unlock()
			conn.Close()
			continue
		}
		s.hsConns[conn] = struct{}{}
		s.hsWG.Add(1)
		s.hsMu.Unlock()
		go s.handshake(conn, timeout)
	}
}

// handshake reads conn's first frame within the deadline and posts a Hello
// or Rejoin to the loop; garbage, silence and any other frame are rejected
// here. It posts before it is joined, so the drain settles every posted
// handshake.
func (s *Server) handshake(conn net.Conn, timeout time.Duration) {
	defer s.hsWG.Done()
	conn.SetReadDeadline(time.Now().Add(timeout))
	m, _, _ := wire.ReadFrame(conn, nil)
	conn.SetReadDeadline(time.Time{})
	s.hsMu.Lock()
	delete(s.hsConns, conn)
	s.hsMu.Unlock()
	switch h := m.(type) {
	case wire.Hello:
		s.box.put(helloReq{h, conn})
	case wire.Rejoin:
		s.box.put(rejoinReq{h, conn})
	default:
		s.reject(conn)
	}
}

// phase is where the loop is in a Serve call's life; see Server.
type phase int

const (
	recovering phase = iota
	assembling
	running
	lingering
	draining
)

// loop is one Serve call's event-loop state. Only the Serve goroutine
// touches it.
type loop struct {
	*Server
	phase phase
	conns []net.Conn
	// settled marks slots whose Done was applied or that were declared
	// lost (s.finished is the Done subset); live is the connection state;
	// epoch counts a slot's losses and rejoins, guarding stale rejoin
	// timers (while assembling, epoch > 0 means a Rejoin filled the slot).
	settled []bool
	live    []bool
	epoch   []int
	// waiting counts unfinished slots no connection has filled yet (the
	// loop assembles while it is positive); remaining counts unsettled
	// slots.
	waiting, remaining, lost int
	processed                int64
	readers                  sync.WaitGroup

	// Outbound frames coalesce in the fanout writer and go on the wire at
	// the loop's event edges (the loop flushes before blocking for the next
	// event): one Receive's cascade — replies, a round broadcast, a resync
	// replay — rides one write per destination instead of one per message,
	// and a broadcast is encoded once however many sites it reaches. Sends
	// to a slot with no connection are charged (ledger parity) but dropped.
	w    *fanoutWriter
	send func(to int, m proto.Message)
	cast func(m proto.Message)
}

func newLoop(s *Server) *loop {
	l := &loop{Server: s, conns: make([]net.Conn, s.K),
		settled: make([]bool, s.K), live: make([]bool, s.K), epoch: make([]int, s.K)}
	l.w = newFanoutWriter(l.conns)
	l.send = func(to int, m proto.Message) {
		l.messagesDown++
		l.wordsDown += int64(m.Words())
		if l.conns[to] != nil {
			l.w.unicast(to, m)
		}
	}
	l.cast = func(m proto.Message) {
		l.broadcasts++
		start := len(l.w.shared)
		buf, encErr := wire.AppendFrame(l.w.shared, m)
		if encErr == nil {
			l.w.shared = buf
		}
		sg := outSeg{shared: true, start: start, end: len(l.w.shared)}
		for to, conn := range l.conns {
			l.messagesDown++
			l.wordsDown += int64(m.Words())
			if conn != nil && encErr == nil {
				l.w.add(to, sg)
			}
		}
	}
	return l
}

// Serve accepts s.K site connections on ln, runs the coordinator until
// every site has sent its Done frame, closes the connections, and returns
// the final cost ledger. The caller owns ln.
func (s *Server) Serve(ln net.Listener) (runtime.Metrics, error) {
	if s.Coord == nil || s.K < 1 {
		return runtime.Metrics{}, fmt.Errorf("tcp: server needs a coordinator and K >= 1")
	}
	if s.Resume && s.Persist == nil {
		return runtime.Metrics{}, fmt.Errorf("tcp: Resume needs a Persist store")
	}
	s.siteArrivals = make([]int64, s.K)
	s.finished = make([]bool, s.K)
	s.ackDelivered = make([]bool, s.K)
	l := newLoop(s)
	if s.Persist != nil {
		s.log = persist.NewLogger(s.Persist, s.Coord, s.SnapshotEvery, s.snapMeta)
		if s.Resume {
			if err := l.recover(); err != nil {
				return runtime.Metrics{}, err
			}
		}
	}
	// Sites whose Done a resumed coordinator recovered from its store are
	// not expected back. (On a fresh server every slot is unfinished.)
	s.liveCount, l.remaining = 0, 0
	for i, f := range s.finished {
		l.settled[i] = f
		if f {
			s.liveCount++
		} else {
			l.remaining++
		}
	}
	l.waiting, l.phase = l.remaining, assembling

	timeout := s.HandshakeTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	s.box = newMailbox()
	s.loopDone = make(chan struct{})
	defer close(s.loopDone) // after the final drain: no more Coord mutations
	s.hsConns = map[net.Conn]struct{}{}
	s.serving.Store(true)
	defer s.serving.Store(false)
	go s.accept(ln, timeout)
	return l.drain(l.run())
}

// run dispatches events until the run ends or is stopped, and returns why
// it stopped (nil for a run whose sites all settled).
func (l *loop) run() error {
	for {
		if l.phase == assembling && l.waiting == 0 {
			l.phase = running
			for i, conn := range l.conns {
				if conn != nil { // nil = recovered-finished slot, nobody dialed
					l.startReader(i, conn)
				}
			}
		}
		if l.phase != assembling && l.remaining == 0 {
			// A resumed run can end before a recovered-finished site
			// redials: the crash ate its completion ack, and its slot has
			// no connection for the drain's ack to reach it on. Linger
			// within the rejoin window answering those redials, so every
			// such site learns its work is durable instead of exhausting
			// its redial budget against a server that has already gone.
			if l.lost > 0 || l.RejoinWait <= 0 || l.unacked() == 0 {
				return nil
			}
			if l.phase == running {
				l.phase = lingering
				box := l.box
				defer time.AfterFunc(l.RejoinWait, func() { box.put(lingerTimeout{}) }).Stop()
			}
		}
		l.w.flush()
		v, _ := l.box.get()
		switch ev := v.(type) {
		case shutdownReq:
			if l.phase == lingering {
				return nil // every site already finished
			}
			return ErrShutdown
		case killReq:
			return ErrKilled
		case lingerTimeout:
			return nil
		case error: // the listener failed
			if l.phase == assembling {
				return ev
			}
		case inspectReq:
			l.inspect(ev)
		case helloReq:
			if err := l.hello(ev); err != nil {
				return err
			}
		case rejoinReq:
			l.rejoin(ev)
		case rejoinTimeout:
			if !l.settled[ev.site] && !l.live[ev.site] && l.epoch[ev.site] == ev.epoch {
				l.declareLost(ev.site)
			}
		case fromMsg:
			if ev.msg == nil {
				l.lose(ev.from)
			} else if err := l.apply(ev.from, ev.msg); err != nil {
				return err
			}
		}
	}
}

// unacked counts the finished sites that have not connected in this
// incarnation and have not been acked yet.
func (l *loop) unacked() int {
	n := 0
	for i, f := range l.finished {
		if f && l.conns[i] == nil && !l.ackDelivered[i] {
			n++
		}
	}
	return n
}

// apply takes one site frame: log it before anything observes it, then
// fold it into the ledger and the coordinator. A Rejoin frame on an
// established connection is protocol abuse and dropped unlogged (the
// handshake is the only way in). Recovery replays the log through apply,
// unlogged; sends then reach no connection and are only charged. A store
// failure is returned unapplied — carrying on would silently void the
// durability contract.
func (l *loop) apply(from int, m proto.Message) error {
	if _, abuse := m.(wire.Rejoin); abuse {
		return nil
	}
	if l.log != nil && l.phase != recovering {
		if err := l.log.Log(from, m); err != nil {
			return err
		}
	}
	switch msg := m.(type) {
	case wire.Done:
		// A misbehaving site repeating its Done frame must not settle its
		// slot twice — that would end the run while a healthy site is
		// still streaming. First Done wins.
		if !l.settled[from] {
			l.settled[from], l.finished[from] = true, true
			l.siteArrivals[from] = msg.Arrivals
			l.remaining--
		}
	case wire.Progress:
		// Control traffic: running arrival count for mid-run reports,
		// never charged to the protocol ledger.
		if !l.settled[from] {
			l.siteArrivals[from] = msg.Arrivals
		}
	default:
		l.messagesUp++
		l.wordsUp += int64(m.Words())
		l.Coord.Receive(from, m, l.send, l.cast)
		if l.phase == running {
			l.processed++
			if l.ReportEvery > 0 && l.processed%l.ReportEvery == 0 && l.Report != nil {
				l.Report(l.metrics())
			}
		}
	}
	return nil
}

// recover rebuilds the coordinator from the store before any site
// connects: snapshot first, then the write-ahead-log tail through apply,
// so the ledger and the per-site arrival counts re-derive exactly. A
// record from a site outside [0, K) means the store belongs to another
// deployment; it is not applied and recovery fails.
func (l *loop) recover() error {
	var foreign error
	res, err := persist.Recover(l.Persist, l.Coord, func(from int, m proto.Message) {
		if from < 0 || from >= l.K {
			if foreign == nil {
				foreign = fmt.Errorf("tcp: resume: store holds a frame from site %d, server has k=%d (a different deployment?)",
					from, l.K)
			}
			return
		}
		_ = l.apply(from, m) // nothing is logged while recovering, so nothing fails
	})
	if err == nil {
		err = foreign
	}
	if err != nil {
		return err
	}
	if res.HasSnapshot {
		meta := res.Meta
		if l.Config != 0 && meta.Config != 0 && meta.Config != l.Config {
			return fmt.Errorf(
				"tcp: resume: store was written by configuration fingerprint %#x, server has %#x (mismatched problem/algorithm/ε?)",
				meta.Config, l.Config)
		}
		// The header's ledger covers everything up to the snapshot; the
		// replay above re-counted the tail. Arrival counts take the larger
		// of the two (the WAL tail's Progress/Done records supersede the
		// header's values when present).
		l.messagesUp += meta.MessagesUp
		l.messagesDown += meta.MessagesDown
		l.wordsUp += meta.WordsUp
		l.wordsDown += meta.WordsDown
		l.broadcasts += meta.Broadcasts
		l.resyncs += meta.Resyncs
		if len(meta.SiteArrivals) == l.K {
			for i, a := range meta.SiteArrivals {
				l.siteArrivals[i] = max(l.siteArrivals[i], a)
			}
		}
		if len(meta.Finished) == l.K {
			for i, f := range meta.Finished {
				l.finished[i] = l.finished[i] || f
			}
		}
		l.log.SeedSnapshots(meta.Snapshots)
	}
	l.replayed = res.ReplayedFrames
	return nil
}

// hello settles a Hello handshake (see the assembling phase on Server);
// a returned error is fatal.
func (l *loop) hello(h helloReq) error {
	site := h.Site
	var err error
	switch {
	case l.phase != assembling:
		l.reject(h.conn) // a running system shrugs off strays
	case site >= 0 && site < l.K && l.finished[site]:
		l.ackFinished(site, h.conn)
	case site >= 0 && site < l.K && l.epoch[site] > 0:
		l.reject(h.conn) // the slot's rejoined replacement already holds it
	case site < 0 || site >= l.K || l.conns[site] != nil:
		err = fmt.Errorf("tcp: serve handshake: unexpected %#v", h.Hello)
	case h.K != l.K:
		err = fmt.Errorf("tcp: site %d dialed with k=%d, server has k=%d", site, h.K, l.K)
	case h.Config != l.Config:
		err = fmt.Errorf(
			"tcp: site %d dialed with configuration fingerprint %#x, server has %#x (mismatched problem/algorithm/ε?)",
			site, h.Config, l.Config)
	default:
		l.register(site, h.conn)
	}
	if err != nil {
		h.conn.Close()
	}
	return err
}

// rejoin settles a Rejoin handshake in any phase. A mis-shaped one is
// rejected, never fatal. A finished site gets its completion ack. An open
// slot — empty while assembling, dark after a loss — is resumed: a Resync
// with the coordinator's round and the slot's last acknowledged arrival
// count (control traffic, not charged), then the replay that brings a
// fresh site machine to the current round (charged — recovery has a real
// communication cost). On a fresh server during assembly all of that is
// zero and the replay emits nothing.
func (l *loop) rejoin(r rejoinReq) {
	site := r.Site
	switch {
	case site < 0 || site >= l.K || r.K != l.K || r.Config != l.Config:
		l.reject(r.conn)
	case l.finished[site]:
		l.ackFinished(site, r.conn)
	case l.settled[site] || l.live[site]:
		// The slot is not open: the site was declared lost, or a previous
		// connection is still considered live (its reader has not reported
		// the loss yet — the dialer retries and lands once it has).
		l.reject(r.conn)
	default:
		l.epoch[site]++
		l.Rejoins++
		l.register(site, r.conn)
		if frame, err := wire.AppendFrame(nil, wire.Resync{
			Round: l.coordRound(), Arrivals: l.siteArrivals[site]}); err == nil {
			r.conn.Write(frame) // a re-crash is caught by the reader
		}
		if rs, ok := l.Coord.(proto.Resyncer); ok {
			rs.Resync(func(m proto.Message) { l.send(site, m) })
			l.resyncs++
		}
	}
}

// register fills site's slot with conn; its reader starts with the run.
func (l *loop) register(site int, conn net.Conn) {
	if l.conns[site] == nil {
		l.waiting--
	}
	l.conns[site] = conn
	l.live[site] = true
	l.liveCount++
	if l.phase != assembling {
		l.startReader(site, conn)
	}
}

// ack writes the ResyncComplete completion ack carrying site's last
// applied arrival count — the promise that its Done is durable, which a
// reconnecting site's Close waits for. Reports whether it was written.
func (l *loop) ack(site int, conn net.Conn) bool {
	frame, err := wire.AppendFrame(nil, wire.Resync{
		Round: wire.ResyncComplete, Arrivals: l.siteArrivals[site]})
	if err == nil {
		_, err = conn.Write(frame)
	}
	return err == nil
}

// ackFinished answers a finished site that redialed only because a
// previous coordinator crashed before acknowledging its Done, and hangs up.
func (l *loop) ackFinished(site int, conn net.Conn) {
	if l.ack(site, conn) {
		l.ackDelivered[site] = true
	}
	conn.Close()
}

// lose handles a connection lost before its Done: the slot goes dark. With
// a rejoin window the run continues degraded and the slot waits; without
// one the site is lost immediately (legacy behavior).
func (l *loop) lose(site int) {
	if l.settled[site] || !l.live[site] {
		return // stale loss report for an already-settled slot
	}
	l.conns[site].Close() // release the dead descriptor now
	l.live[site] = false
	l.liveCount--
	l.epoch[site]++
	if l.RejoinWait <= 0 {
		l.declareLost(site)
		return
	}
	box, e := l.box, l.epoch[site]
	time.AfterFunc(l.RejoinWait, func() { box.put(rejoinTimeout{site: site, epoch: e}) })
}

func (l *loop) declareLost(site int) {
	l.settled[site] = true
	l.remaining--
	l.lost++
}

// inspect runs an Inspect's fn on the loop, where no frame is
// mid-application; while assembling there is no run to inspect.
func (l *loop) inspect(req inspectReq) {
	if l.phase == assembling {
		req.done <- false
		return
	}
	req.fn(l.metrics())
	req.done <- true
}

// startReader feeds conn's frames to the loop. A reader keeps draining
// past the site's Done frame: a finished site still answers round
// broadcasts triggered by the other sites' traffic (e.g. the count
// tracker's AdjustMsg re-randomization), and those protocol messages must
// reach the coordinator. Readers exit only when their connection ends —
// the site crashed (reported as a nil message) or Serve hung up.
func (l *loop) startReader(i int, conn net.Conn) {
	l.readers.Add(1)
	box := l.box
	go func() {
		defer l.readers.Done()
		doneSeen := false
		var buf []byte
		for {
			m, b, err := wire.ReadFrame(conn, buf)
			buf = b
			if err != nil {
				if !doneSeen {
					box.put(fromMsg{from: i}) // site lost
				}
				return
			}
			if _, done := m.(wire.Done); done {
				doneSeen = true
			}
			box.put(fromMsg{from: i, msg: m})
		}
	}()
}

// drain ends the Serve call whatever stopped the loop: it aborts and joins
// the handshakes still in flight (so Rejects/Rejoins really are final when
// Serve returns), acks and hangs up on the connected sites, collects the
// readers, applies the frames still queued, and seals the store.
func (l *loop) drain(stop error) (runtime.Metrics, error) {
	// A handshake that contradicts the deployment, or a failed listener,
	// ends the call before any run: nothing to ack, nothing to seal, and
	// an empty ledger.
	fatal := l.phase == assembling && stop != ErrShutdown && stop != ErrKilled
	l.phase = draining
	l.w.flush() // ship whatever the final event left pending
	l.serving.Store(false)
	l.hsMu.Lock()
	for conn := range l.hsConns {
		conn.Close()
	}
	l.hsConns = nil
	l.hsMu.Unlock()
	l.hsWG.Wait()
	// On any orderly exit, ack each connected site before hanging up. With
	// persistence the write-ahead log is synced first, so the ack never
	// promises more than the store holds. A kill sends nothing: the missing
	// ack is exactly what makes the sites redial the resumed coordinator.
	graceful := stop != ErrKilled && !fatal
	if graceful {
		var err error
		if l.log != nil {
			err = l.log.Sync()
		}
		if err == nil {
			for i, conn := range l.conns {
				if conn != nil {
					l.ack(i, conn)
				}
			}
		} else if stop == nil {
			stop = err
		}
	}
	for _, conn := range l.conns {
		if conn != nil {
			conn.Close()
		}
	}
	l.readers.Wait()
	// Frames already received but queued behind the final event (e.g. a
	// finished site's AdjustMsg reply to a late round broadcast) still
	// belong to the run — unless the coordinator was killed, which loses
	// its in-flight queue. The readers have exited, so closing the box
	// lets get drain without blocking; sends during the drain hit closed
	// connections and are dropped, which is fine — the sites are gone.
	l.box.close()
	for v, ok := l.box.get(); ok; v, ok = l.box.get() {
		switch ev := v.(type) {
		case helloReq:
			l.reject(ev.conn)
		case rejoinReq:
			l.reject(ev.conn) // a rejoin that raced run end
		case inspectReq:
			l.inspect(ev) // answered; the rest follows before loopDone closes
		case fromMsg:
			if stop != ErrKilled && ev.msg != nil {
				if err := l.apply(ev.from, ev.msg); err != nil && stop == nil {
					stop = err
				}
			}
		}
	}
	// Seal the store on every exit except a simulated crash: a final
	// snapshot and sync make it a clean resume point (and bound a future
	// replay to zero frames). A kill leaves exactly the appended log, which
	// is the point of the drill.
	if l.log != nil && graceful {
		err := l.log.Snapshot()
		if err == nil {
			err = l.log.Sync()
		}
		if stop == nil {
			stop = err
		}
	}
	if fatal {
		return runtime.Metrics{}, stop
	}
	if stop == nil && l.lost > 0 {
		stop = fmt.Errorf(
			"tcp: %d of %d sites disconnected before finishing; the final state is missing their data", l.lost, l.K)
	}
	return l.metrics(), stop
}

func (s *Server) metrics() runtime.Metrics {
	var arrivals int64
	for _, a := range s.siteArrivals {
		arrivals += a
	}
	m := runtime.Metrics{
		MessagesUp:     s.messagesUp,
		MessagesDown:   s.messagesDown,
		WordsUp:        s.wordsUp,
		WordsDown:      s.wordsDown,
		Broadcasts:     s.broadcasts,
		Arrivals:       arrivals,
		LiveSites:      s.liveCount,
		ReplayedFrames: s.replayed,
		Resyncs:        s.resyncs,
	}
	if s.log != nil {
		m.Snapshots = s.log.Snapshots()
	}
	return m
}

// SiteConn drives one protocol site machine in a site process, connected to
// a Server over TCP. Feed it with Arrive/ArriveBatch and Close it to send
// the Done frame. A background reader applies coordinator broadcasts to the
// site machine as they land; a mutex serializes the machine between the
// feeding goroutine and the reader.
//
// With AutoReconnect set, a connection that dies under the site (a network
// blip, a coordinator-side drop) is transparently re-established: the next
// failed send dials the server again with a Rejoin handshake, waits for
// its Resync, and retransmits — the protocols' absolute-state messages
// make the blip invisible beyond its communication cost. A site process
// that itself crashed uses RejoinSite from the replacement process instead.
type SiteConn struct {
	site   int
	k      int
	config uint64
	addr   string
	s      proto.Site

	// ProgressEvery makes the site ship a Progress control frame with its
	// running arrival count every that many arrivals, so the server's
	// mid-run reports show real ingestion progress instead of 0 until
	// Done. DialSite sets the default (DefaultProgressEvery); override —
	// or disable with a negative value — before the first Arrive.
	ProgressEvery int64

	// AutoReconnect turns on the reconnection loop: a failed send redials
	// the server with a Rejoin handshake (up to RedialAttempts tries) and
	// retransmits. Consecutive failed dials back off exponentially from
	// RedialWait up to RedialMaxWait, each wait jittered by a seeded
	// ±25% factor so sites dropped by one coordinator crash do not redial
	// in lockstep; a successful dial resets the schedule. The failure
	// streak persists across reconnect calls, so Close's Done re-send
	// loop continues the schedule instead of hammering a dead server.
	// Set before the first Arrive.
	AutoReconnect  bool
	RedialWait     time.Duration // backoff base; default DefaultRedialWait
	RedialMaxWait  time.Duration // backoff cap; default DefaultRedialMaxWait
	RedialAttempts int           // default DefaultRedialAttempts

	mu       sync.Mutex // guards s, frame, pend, conn, and conn writes
	conn     net.Conn
	frame    []byte
	pend     []byte // outbound frames coalesced until the section-end flush
	pendDone bool   // pend contains the Done frame (full recovery on failure)
	arrivals int64
	sendErr  error
	rejoins  int64
	resync   wire.Resync // last Resync received (rejoin handshakes)
	// redialTry is the consecutive-failed-dial streak driving the backoff
	// schedule; jitter is the seeded RNG behind the ±25% spread.
	redialTry int
	jitter    *stats.RNG

	// closing flips once Close has sent the Done frame. From then on a
	// failed reply to a late broadcast is best-effort (the server may
	// legitimately have hung up already) and neither reconnects nor sets
	// sendErr — Close's ack-wait loop owns recovery of the Done itself.
	closing bool

	readers sync.WaitGroup
}

// DefaultProgressEvery is the Progress-frame cadence DialSite installs.
const DefaultProgressEvery = 4096

// Reconnection-loop defaults: up to 40 redials, exponentially backed off
// from 50ms to a 500ms cap (roughly 18s of outage budget, most of it at
// the cap).
const (
	DefaultRedialWait     = 50 * time.Millisecond
	DefaultRedialMaxWait  = 500 * time.Millisecond
	DefaultRedialAttempts = 40
)

// DialSite connects site machine s with index site to the server at addr.
// config must match the server's configuration fingerprint (see
// Server.Config); pass 0 when neither side fingerprints.
func DialSite(addr string, site, k int, config uint64, s proto.Site) (*SiteConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", addr, err)
	}
	sc := newSiteConn(addr, site, k, config, s, conn)
	sc.frame, err = wire.AppendFrame(sc.frame[:0], wire.Hello{Site: site, K: k, Config: config})
	if err == nil {
		_, err = conn.Write(sc.frame)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: handshake: %w", err)
	}
	sc.startReader(conn)
	return sc, nil
}

// RejoinSite reconnects a crashed site's replacement process: it dials the
// server with a Rejoin handshake and returns once the server's Resync
// lands. s is a freshly built site machine (the crash lost the old one);
// the Resync replay brings it to the coordinator's current round, and the
// returned Resync carries the server's last acknowledged arrival count for
// this slot — a replayable stream source replays from 0 (the protocols'
// absolute-state messages make that reconverge exactly), a non-replayable
// one resumes and accepts the documented gap. arrivals is this process's
// local count (0 after a full crash).
func RejoinSite(addr string, site, k int, config uint64, arrivals int64, s proto.Site) (*SiteConn, wire.Resync, error) {
	conn, rs, err := dialRejoin(addr, site, k, config, arrivals)
	if err != nil {
		return nil, wire.Resync{}, err
	}
	sc := newSiteConn(addr, site, k, config, s, conn)
	sc.resync, sc.rejoins = rs, 1
	sc.startReader(conn)
	return sc, rs, nil
}

func newSiteConn(addr string, site, k int, config uint64, s proto.Site, conn net.Conn) *SiteConn {
	return &SiteConn{site: site, k: k, config: config, addr: addr, s: s, conn: conn,
		ProgressEvery:  DefaultProgressEvery,
		RedialWait:     DefaultRedialWait,
		RedialMaxWait:  DefaultRedialMaxWait,
		RedialAttempts: DefaultRedialAttempts,
		// Deterministic per-slot jitter stream: reproducible schedules in
		// tests, decorrelated across the fleet's (site, config) pairs.
		jitter: stats.New(uint64(site)*0x9e3779b97f4a7c15 ^ config ^ 0x72656469616c),
	}
}

// redialDelay is the wait before a redial whose consecutive-failure streak
// is try (0-based): exponential backoff from base, capped at max, scaled
// by a jitter factor in [0.75, 1.25) derived from the uniform draw in
// [0, 1). A non-positive base disables waiting (tests that hammer a local
// listener on purpose).
func redialDelay(base, max time.Duration, try int, jitter float64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < try; i++ {
		d *= 2
		if max > 0 && d >= max {
			break
		}
	}
	if max > 0 && d > max {
		d = max
	}
	return time.Duration((0.75 + jitter/2) * float64(d))
}

// dialRejoin performs one Rejoin handshake: dial, send the Rejoin frame,
// wait for the server's Resync. A server that rejects (slot not open, run
// over) just closes the connection, which surfaces here as a read error.
func dialRejoin(addr string, site, k int, config uint64, arrivals int64) (net.Conn, wire.Resync, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, wire.Resync{}, fmt.Errorf("tcp: rejoin dial %s: %w", addr, err)
	}
	frame, err := wire.AppendFrame(nil, wire.Rejoin{Site: site, K: k, Config: config, Arrivals: arrivals})
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		conn.Close()
		return nil, wire.Resync{}, fmt.Errorf("tcp: rejoin handshake: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		conn.Close()
		return nil, wire.Resync{}, fmt.Errorf("tcp: rejoin rejected: %w", err)
	}
	rs, ok := m.(wire.Resync)
	if !ok {
		conn.Close()
		return nil, wire.Resync{}, fmt.Errorf("tcp: rejoin handshake: unexpected %#v", m)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, rs, nil
}

// pendFlushCap bounds how many encoded bytes coalesce before out forces an
// early flush mid-section.
const pendFlushCap = 64 << 10

// out queues one site message in the pending buffer; the section-end flush
// (end of an Arrive/ArriveBatch call, end of one received broadcast's
// handling) ships the whole run in one write. The Done frame flushes
// immediately — Close's ack protocol needs it on the wire, not in a buffer.
// Callers hold sc.mu.
func (sc *SiteConn) out(m proto.Message) {
	var err error
	sc.pend, err = wire.AppendFrame(sc.pend, m)
	if err != nil {
		if sc.sendErr == nil {
			sc.sendErr = err
		}
		return
	}
	if _, isDone := m.(wire.Done); isDone {
		sc.pendDone = true
		sc.flush()
		return
	}
	if len(sc.pend) >= pendFlushCap {
		sc.flush()
	}
}

// flush ships the pending frames, driving the reconnection loop on
// failure: a rejoin re-establishes the connection and the whole pending
// run is retransmitted (the protocols' absolute-state messages make a
// possible duplicate prefix harmless, exactly as the old per-message
// retransmit did). Once closing, a failed run without the Done frame is
// best-effort — the server may legitimately have hung up already — and
// neither reconnects nor sets sendErr. Callers hold sc.mu.
func (sc *SiteConn) flush() {
	if len(sc.pend) == 0 {
		return
	}
	_, err := sc.conn.Write(sc.pend)
	if err != nil && sc.closing && !sc.pendDone {
		sc.pend = sc.pend[:0]
		return
	}
	if err != nil && sc.AutoReconnect {
		if err = sc.reconnect(); err == nil {
			_, err = sc.conn.Write(sc.pend) // retransmit on the fresh connection
		}
	}
	if err != nil && sc.sendErr == nil {
		sc.sendErr = err
	}
	sc.pend = sc.pend[:0]
	sc.pendDone = false
}

// reconnect re-establishes the connection with a Rejoin handshake; callers
// hold sc.mu. The old reader exits on its own once the dead connection is
// closed. The first dial of a fresh failure streak is immediate; each
// failure then advances the persistent backoff schedule (see redialDelay),
// which a successful dial resets.
func (sc *SiteConn) reconnect() error {
	sc.conn.Close()
	attempts := sc.RedialAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if sc.redialTry > 0 {
			if d := redialDelay(sc.RedialWait, sc.RedialMaxWait, sc.redialTry-1, sc.jitter.Float64()); d > 0 {
				time.Sleep(d)
			}
		}
		conn, rs, err := dialRejoin(sc.addr, sc.site, sc.k, sc.config, sc.arrivals)
		if err != nil {
			sc.redialTry++
			lastErr = err
			continue
		}
		sc.redialTry = 0
		sc.conn = conn
		sc.resync = rs
		sc.rejoins++
		sc.startReader(conn)
		return nil
	}
	return fmt.Errorf("tcp: site %d could not rejoin after %d attempts: %w", sc.site, attempts, lastErr)
}

// startReader launches a reader for one connection generation. It applies
// coordinator messages to the site machine as they arrive and exits when
// its connection dies (a reconnect starts a successor for the new one).
func (sc *SiteConn) startReader(conn net.Conn) {
	sc.readers.Add(1)
	go func() {
		defer sc.readers.Done()
		var buf []byte
		for {
			m, b, err := wire.ReadFrame(conn, buf)
			buf = b
			if err != nil {
				return
			}
			if rs, ctl := m.(wire.Resync); ctl {
				// Control traffic; handshakes consume theirs synchronously.
				// Mid-stream, a Resync is the server's completion ack —
				// record it so Close can tell an orderly hangup from a
				// coordinator crash.
				sc.mu.Lock()
				sc.resync = rs
				sc.mu.Unlock()
				continue
			}
			sc.mu.Lock()
			sc.s.Receive(m, sc.out)
			sc.flush()
			sc.mu.Unlock()
		}
	}()
}

// Rejoins returns how many times this connection re-established itself (or
// was created by RejoinSite).
func (sc *SiteConn) Rejoins() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.rejoins
}

// LastResync returns the most recent Resync handshake received (zero if
// the connection never rejoined).
func (sc *SiteConn) LastResync() wire.Resync {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.resync
}

// maybeProgress ships a Progress frame when the arrival count crossed a
// ProgressEvery boundary since prev; callers hold sc.mu.
func (sc *SiteConn) maybeProgress(prev int64) {
	if pe := sc.ProgressEvery; pe > 0 && prev/pe != sc.arrivals/pe {
		sc.out(wire.Progress{Arrivals: sc.arrivals})
	}
}

// Arrive feeds one element to the site machine.
func (sc *SiteConn) Arrive(item int64, value float64) {
	sc.mu.Lock()
	prev := sc.arrivals
	sc.arrivals++
	sc.s.Arrive(item, value, sc.out)
	sc.maybeProgress(prev)
	sc.flush()
	sc.mu.Unlock()
}

// ArriveBatch feeds count identical elements through the proto.BatchSite
// fast path.
func (sc *SiteConn) ArriveBatch(item int64, value float64, count int64) {
	sc.mu.Lock()
	prev := sc.arrivals
	for count > 0 {
		done := proto.ArriveChunk(sc.s, item, value, count, sc.out)
		sc.arrivals += done
		count -= done
	}
	sc.maybeProgress(prev)
	sc.flush()
	sc.mu.Unlock()
}

// Arrivals returns the number of elements fed so far.
func (sc *SiteConn) Arrivals() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.arrivals
}

// Abort drops the connection without a Done frame, simulating a site
// process dying mid-stream (tests and chaos harnesses; a real crash has
// the same effect). It never reconnects, whatever AutoReconnect says.
func (sc *SiteConn) Abort() {
	sc.mu.Lock()
	sc.AutoReconnect = false
	conn := sc.conn
	sc.mu.Unlock()
	conn.Close()
	sc.readers.Wait()
}

// Close sends the Done frame, waits for the server to hang up, and closes
// the connection. The server hangs up only after every site has sent Done,
// so Close blocks until the whole distributed run finishes — keeping this
// site's machine responsive to round broadcasts (and their reply messages)
// triggered by the other sites' remaining traffic. It returns the first
// send error seen, if any.
//
// The server acknowledges an orderly hangup with a final Resync covering
// this site's arrival count. With AutoReconnect set, a hangup without that
// ack means the coordinator may have crashed before the Done was durably
// applied: Close redials (riding the same rejoin loop as mid-stream
// failures) and repeats the Done until a resumed coordinator acknowledges
// it, or the redial budget decides nobody is coming back.
func (sc *SiteConn) Close() error {
	sc.mu.Lock()
	sc.closing = true
	sc.out(wire.Done{Arrivals: sc.arrivals})
	sc.mu.Unlock()
	acked := func() bool {
		return sc.resync.Round == wire.ResyncComplete && sc.resync.Arrivals >= sc.arrivals
	}
	for {
		sc.readers.Wait() // the connection ended: orderly hangup or a crash
		sc.mu.Lock()
		if acked() || !sc.AutoReconnect || sc.sendErr != nil {
			break
		}
		if err := sc.reconnect(); err != nil {
			sc.sendErr = err // the coordinator never came back
			break
		}
		if acked() {
			break // the rejoin handshake already acknowledged our Done
		}
		sc.out(wire.Done{Arrivals: sc.arrivals})
		sc.mu.Unlock()
	}
	sc.conn.Close()
	err := sc.sendErr
	sc.mu.Unlock()
	return err
}

package runtime

import "sync/atomic"

// Barrier realizes the instant-communication quiescence barrier shared by
// the in-process transports, with fault-middleware awareness.
//
// A token is one unit of in-flight work: an undelivered message. Tokens are
// either active (moving through sockets, the fabric's down queue, and
// handlers) or parked (held inside the fault middleware — a delayed frame,
// a partitioned link's queue). Settle blocks
// until no active token remains, applying queued down-messages itself
// through the drain hook while it waits (a queued message keeps its token,
// so no active token means an empty queue); what happens to parked tokens
// then depends on the settle mode:
//
//   - Settle(false) — the per-arrival barrier. Once active work drains, the
//     middleware's onIdle hook is offered the chance to release held
//     traffic that has come due (release makes those tokens active again,
//     and settling resumes). Traffic that is not yet due — a frame delayed
//     across arrivals, a partitioned site's queue — stays parked, and
//     Settle returns around it: the system is as quiet as the fault plan
//     allows.
//   - Settle(true) — the full barrier behind Transport.Quiesce. onIdle is
//     asked to release everything except partition-held traffic, so
//     queries and metrics reads observe a state where every deliverable
//     message has been delivered. Partitioned links still stay parked:
//     that is precisely the degraded partial-coverage view a partition
//     inflicts.
//
// Without middleware there are no parked tokens and both modes degenerate
// to the plain in-flight wait the transports always had — and the
// implementation keeps that path on sync.WaitGroup economics: Add, Done,
// Park, and Unpark are single atomic adds; only the settling goroutine
// ever blocks, on a one-slot signal channel fed by zero transitions and by
// posts to an empty down queue.
//
// Arrivals take no token, and the fabric runs Settle after site work only
// when busy reports a token active or parked. That is sound because once
// the site work has returned, every message it emitted has taken its token
// (Fabric.CountUp runs before the send) and every delivery, on any
// goroutine, retires its own token only after those of everything it
// emitted have been added and any park or unpark it makes is done; a
// message queued on the down queue keeps its token. So reading no active
// token on the settling goroutine means nothing is moving, nothing is
// queued and no other goroutine can touch parked any more; reading none
// parked either means nothing is held — quiescent, under faults too, and
// Settle would have returned at once. The loads go active first: a park
// adds to parked before it retires from active.
type Barrier struct {
	active atomic.Int64
	parked atomic.Int64

	// sem receives one (coalesced) signal per active-count zero transition
	// and per Post to an empty down queue; Settle re-checks the count and
	// the queue after every wake, so a stale or coalesced signal is
	// harmless.
	sem chan struct{}

	// drain, installed by the fabric, applies one queued down-message and
	// reports whether there was one. Called from the settling goroutine
	// only, holding no lock.
	drain func() bool

	// onIdle, installed by the fault middleware, releases held traffic:
	// everything deliverable when full, only due traffic otherwise. It
	// reports whether it unparked anything (progress). Called from the
	// settling goroutine only, at a no-active-work instant.
	onIdle func(full bool) bool

	// aborted, set by Abort, stops Settle from waiting: the fabric failed
	// and tokens it still counts may never retire.
	aborted atomic.Bool
}

func (b *Barrier) init(drain func() bool) {
	b.sem = make(chan struct{}, 1)
	b.drain = drain
}

// wake wakes the settler.
func (b *Barrier) wake() {
	select {
	case b.sem <- struct{}{}:
	default: // a wake-up is already pending; one is enough
	}
}

// signalIfZero wakes the settler after a transition to zero active tokens.
func (b *Barrier) signalIfZero(n int64) {
	switch {
	case n == 0:
		b.wake()
	case n < 0:
		panic("runtime: barrier token retired twice")
	}
}

// Add registers n new active tokens. Like sync.WaitGroup, concurrent Add
// is safe here because a handler's own token is still active while it Adds
// for the messages it emits, and an arrival's site work Adds on the
// settling goroutine itself, so no waiter observes the count at zero
// mid-cascade.
func (b *Barrier) Add(n int) { b.active.Add(int64(n)) }

// Done retires one active token.
func (b *Barrier) Done() { b.signalIfZero(b.active.Add(-1)) }

// busy reports whether any token is active or parked (see the type comment
// for why this order of loads is the right one).
func (b *Barrier) busy() bool { return b.active.Load() != 0 || b.parked.Load() != 0 }

// Park moves one token from active to parked: its message is now held
// inside the fault middleware instead of moving through the transport.
func (b *Barrier) Park() {
	b.parked.Add(1)
	b.signalIfZero(b.active.Add(-1))
}

// Unpark moves one token back from parked to active: its held message is
// being released into the transport.
func (b *Barrier) Unpark() {
	b.active.Add(1)
	if b.parked.Add(-1) < 0 {
		panic("runtime: barrier unparked more tokens than were parked")
	}
}

// Abort makes every Settle, the one in progress included, return without
// waiting for the remaining tokens: the fabric failed (Fabric.DeliverUp
// recorded a coordinator-path panic) and the feeding goroutine must wake to
// raise it instead of settling traffic nothing will ever retire.
func (b *Barrier) Abort() {
	b.aborted.Store(true)
	b.wake()
}

// SetOnIdle installs the middleware release hook. Install before the first
// arrival.
func (b *Barrier) SetOnIdle(fn func(full bool) bool) { b.onIdle = fn }

// Settle blocks until the system is quiescent in the requested mode (see
// the type comment), applying queued down-messages as it goes. Only the
// single injecting goroutine calls Settle, so there is exactly one waiter:
// a one-slot channel cannot lose its wake-up (Done's and Post's sends
// happen after the state they signal is visible, and Settle re-checks the
// count and the queue after every receive).
func (b *Barrier) Settle(full bool) {
	for {
		for b.active.Load() != 0 && !b.aborted.Load() {
			if b.drain() {
				continue
			}
			<-b.sem
		}
		if b.parked.Load() == 0 || b.onIdle == nil || b.aborted.Load() {
			return
		}
		if !b.onIdle(full) {
			// Nothing releasable: the remaining tokens are held by the
			// fault plan (not yet due, or partitioned). Quiescent for now.
			return
		}
	}
}

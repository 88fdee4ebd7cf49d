package tcp

import (
	"sync"

	"disttrack/internal/proto"
)

// mailbox is tcp.Server's event queue: an unbounded FIFO fed by any number
// of goroutines (connection readers, handshakes, timers, Shutdown/Kill/
// Inspect) and drained by the one event loop.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      []any
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond.L = &mb.mu
	return mb
}

// put enqueues v.
func (mb *mailbox) put(v any) {
	mb.mu.Lock()
	mb.q = append(mb.q, v)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// get blocks until a value is available or the mailbox is closed (a closed
// mailbox still drains its queue before reporting false).
func (mb *mailbox) get() (any, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.q) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.q) == 0 {
		return nil, false
	}
	v := mb.q[0]
	mb.q[0] = nil // drop the reference for the GC
	mb.q = mb.q[1:]
	return v, true
}

// close wakes the consumer; get drains the remaining queue and then
// reports false.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// fromMsg is a site->coordinator protocol message with its sender, as a
// connection reader posts it to the event loop; a nil Msg reports the
// site's connection lost.
type fromMsg struct {
	from int
	msg  proto.Message
}

package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/netsim"
	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/faulty"
	"disttrack/internal/runtime/tcp"
)

// The serial-coordinator pin: a protocol whose coordinator broadcasts on
// every 4th message it applies and whose sites answer every broadcast, so
// k replies head back to the coordinator at once (on TCP, through k socket
// readers racing for the coordinator mutex). Every message carries its
// link's sequence number (count.UpdateMsg up, rounds.BroadcastMsg down —
// both wire-registered, so the same machines run over TCP), and the
// coordinator flags any overlapping entry. With k = 3
// the k replies to one broadcast never reach the next multiple of 4 on
// their own, so every cascade ends.

// pinLog collects violations from whichever goroutine runs a machine.
type pinLog struct {
	mu   sync.Mutex
	errs []string
}

func (l *pinLog) addf(format string, args ...any) {
	l.mu.Lock()
	if len(l.errs) < 10 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

type pinSite struct {
	id    int
	log   *pinLog
	sent  int64 // up-messages emitted on this link
	heard int64 // broadcasts received on this link
}

func (s *pinSite) Arrive(item int64, value float64, out func(proto.Message)) {
	s.sent++
	out(count.UpdateMsg{N: s.sent})
}

func (s *pinSite) Receive(m proto.Message, out func(proto.Message)) {
	b, ok := m.(rounds.BroadcastMsg)
	if !ok {
		s.log.addf("site %d: unexpected message %T", s.id, m)
		return
	}
	if b.NBar != s.heard+1 {
		s.log.addf("site %d: down seq %d after %d", s.id, b.NBar, s.heard)
	}
	s.heard = b.NBar
	s.sent++
	out(count.UpdateMsg{N: s.sent})
}

func (s *pinSite) SpaceWords() int { return 2 }

type pinCoord struct {
	log      *pinLog
	inside   atomic.Bool
	next     []int64 // last up seq applied, per link
	received int64
	casts    int64
}

func (c *pinCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if !c.inside.CompareAndSwap(false, true) {
		c.log.addf("coordinator entered twice at once (from %d)", from)
		return
	}
	goruntime.Gosched() // widen the window an overlapping entry would hit
	u, ok := m.(count.UpdateMsg)
	switch {
	case !ok:
		c.log.addf("coordinator: unexpected message %T from %d", m, from)
	case u.N != c.next[from]+1:
		c.log.addf("coordinator: up seq %d after %d on link %d", u.N, c.next[from], from)
	}
	if ok {
		c.next[from] = u.N
	}
	c.received++
	if c.received%4 == 0 {
		c.casts++
		broadcast(rounds.BroadcastMsg{NBar: c.casts})
	}
	c.inside.Store(false)
}

func (c *pinCoord) SpaceWords() int { return len(c.next) + 2 }

func TestCoordinatorSerialPerLinkFIFO(t *testing.T) {
	const k, n = 3, 1200
	plan := faulty.Plan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1,
		Delay: 0.05, DelayArrivals: 3, Kills: []faulty.Kill{{Site: 1, At: 300, RejoinAt: 700}}}
	mounts := []struct {
		name  string
		start func(p proto.Protocol) (runtime.Transport, *runtime.Fabric)
	}{
		{"goroutine", func(p proto.Protocol) (runtime.Transport, *runtime.Fabric) {
			c := netsim.Start(p)
			return c, c.Fabric
		}},
		{"tcp", func(p proto.Protocol) (runtime.Transport, *runtime.Fabric) {
			c, err := tcp.StartLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			return c, c.Fabric
		}},
	}
	for _, mt := range mounts {
		for _, faults := range []bool{false, true} {
			name := mt.name + "/clean"
			if faults {
				name = mt.name + "/faults"
			}
			t.Run(name, func(t *testing.T) {
				log := &pinLog{}
				coord := &pinCoord{log: log, next: make([]int64, k)}
				sites := make([]*pinSite, k)
				ps := make([]proto.Site, k)
				for i := range sites {
					sites[i] = &pinSite{id: i, log: log}
					ps[i] = sites[i]
				}
				tr, fab := mt.start(proto.Protocol{Coord: coord, Sites: ps})
				if faults {
					fab.SetMiddleware(faulty.New(fab, plan))
				}
				for i := 0; i < n; i++ {
					tr.Arrive(i%k, 0, 0)
				}
				tr.Quiesce()
				var sent int64
				for i, s := range sites {
					sent += s.sent
					if s.heard != coord.casts {
						t.Errorf("site %d heard %d of %d broadcasts", i, s.heard, coord.casts)
					}
				}
				if coord.received != sent {
					t.Errorf("coordinator applied %d of %d up-messages", coord.received, sent)
				}
				if coord.casts < n/4 {
					t.Errorf("only %d broadcasts for %d arrivals", coord.casts, n)
				}
				tr.Close()
				for _, e := range log.errs {
					t.Error(e)
				}
			})
		}
	}
}

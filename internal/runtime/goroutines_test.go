package runtime_test

import (
	goruntime "runtime"
	"testing"
	"time"

	"disttrack/internal/count"
	"disttrack/internal/netsim"
	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
)

// tickSite reports every arrival and absorbs the coordinator's broadcasts
// (wire-registered messages, so the same machines run over TCP).
type tickSite struct{ heard int }

func (s *tickSite) Arrive(item int64, value float64, out func(proto.Message)) {
	out(count.UpdateMsg{N: 1})
}
func (s *tickSite) Receive(m proto.Message, out func(proto.Message)) { s.heard++ }
func (s *tickSite) SpaceWords() int                                  { return 1 }

// tickCoord broadcasts on every k-th report.
type tickCoord struct{ k, received int }

func (c *tickCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	c.received++
	if c.received%c.k == 0 {
		broadcast(rounds.BroadcastMsg{NBar: int64(c.received)})
	}
}
func (c *tickCoord) SpaceWords() int { return 1 }

// settleGoroutines polls runtime.NumGoroutine until it reads want (exiting
// goroutines leave the count shortly after they are joined) or a deadline
// passes, and returns the last reading.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// stableGoroutines polls runtime.NumGoroutine until it has read the same
// count for 20 ms running (goroutines an earlier test joined may still be
// leaving) or a deadline passes, and returns the last reading: the
// baseline settleGoroutines then counts from.
func stableGoroutines() int {
	deadline := time.Now().Add(5 * time.Second)
	n, since := goruntime.NumGoroutine(), time.Now()
	for time.Since(since) < 20*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if m := goruntime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestFabricGoroutines pins how many goroutines each in-process fabric
// runs: the goroutine transport runs none (down-messages queue on the
// fabric and the settling goroutine applies them), the TCP loopback runs
// exactly two socket readers per site, and both return every goroutine on
// Close.
func TestFabricGoroutines(t *testing.T) {
	const k = 64
	mounts := []struct {
		name  string
		extra int
		start func(p proto.Protocol) runtime.Transport
	}{
		{"goroutine", 0, func(p proto.Protocol) runtime.Transport { return netsim.Start(p) }},
		{"tcp", 2 * k, func(p proto.Protocol) runtime.Transport {
			c, err := tcp.StartLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, mt := range mounts {
		t.Run(mt.name, func(t *testing.T) {
			base := stableGoroutines()
			sites := make([]proto.Site, k)
			for i := range sites {
				sites[i] = &tickSite{}
			}
			coord := &tickCoord{k: k}
			tr := mt.start(proto.Protocol{Coord: coord, Sites: sites})
			if got := settleGoroutines(base + mt.extra); got != base+mt.extra {
				t.Errorf("running: %d goroutines above baseline, want %d", got-base, mt.extra)
			}
			for i := 0; i < 4*k; i++ {
				tr.Arrive(i%k, 0, 0)
			}
			tr.Quiesce()
			for i, s := range sites {
				if h := s.(*tickSite).heard; h != 4 {
					t.Errorf("site %d heard %d broadcasts, want 4", i, h)
				}
			}
			tr.Close()
			if got := settleGoroutines(base); got != base {
				t.Errorf("after Close: %d goroutines above baseline, want 0", got-base)
			}
		})
	}
}

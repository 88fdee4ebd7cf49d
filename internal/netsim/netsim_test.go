package netsim

import (
	"testing"

	"disttrack/internal/proto"
)

type wordMsg int

func (w wordMsg) Words() int { return int(w) }

// countingSite forwards arrivals and counts broadcasts; all its state is
// touched only by the goroutine that feeds and settles the fabric, checked
// by -race.
type countingSite struct {
	arrivals int
	received int
}

func (s *countingSite) Arrive(item int64, value float64, out func(proto.Message)) {
	s.arrivals++
	out(wordMsg(1))
}
func (s *countingSite) Receive(m proto.Message, out func(proto.Message)) { s.received++ }
func (s *countingSite) SpaceWords() int                                  { return 1 }

type pulseCoord struct {
	every    int
	received int
}

func (c *pulseCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	c.received++
	if c.every > 0 && c.received%c.every == 0 {
		broadcast(wordMsg(2))
	}
}
func (c *pulseCoord) SpaceWords() int { return 1 }

func startToy(k, every int) (*Cluster, []*countingSite, *pulseCoord) {
	sites := make([]*countingSite, k)
	ps := make([]proto.Site, k)
	for i := range sites {
		sites[i] = &countingSite{}
		ps[i] = sites[i]
	}
	coord := &pulseCoord{every: every}
	return Start(proto.Protocol{Coord: coord, Sites: ps}), sites, coord
}

func TestConcurrentAccountingMatchesSequentialSemantics(t *testing.T) {
	c, sites, coord := startToy(4, 10)
	for i := 0; i < 100; i++ {
		c.Arrive(i%4, 0, 0)
	}
	c.Quiesce()
	m := c.Metrics()
	c.Stop()
	if m.Arrivals != 100 || m.MessagesUp != 100 || m.WordsUp != 100 {
		t.Fatalf("up accounting: %+v", m)
	}
	if m.Broadcasts != 10 || m.MessagesDown != 40 || m.WordsDown != 80 {
		t.Fatalf("down accounting: %+v", m)
	}
	if coord.received != 100 {
		t.Fatalf("coordinator received %d", coord.received)
	}
	for i, s := range sites {
		if s.arrivals != 25 || s.received != 10 {
			t.Fatalf("site %d: arrivals=%d received=%d", i, s.arrivals, s.received)
		}
	}
}

func TestQuiescenceAfterEveryArrival(t *testing.T) {
	// After Arrive returns, the effects of the full cascade must be visible:
	// with every=1, each arrival yields exactly one broadcast to all sites.
	c, sites, _ := startToy(3, 1)
	for i := 0; i < 20; i++ {
		c.Arrive(0, 0, 0)
		total := 0
		for _, s := range sites {
			total += s.received
		}
		if total != 3*(i+1) {
			t.Fatalf("after arrival %d: %d broadcast deliveries, want %d", i, total, 3*(i+1))
		}
	}
	c.Stop()
}

func TestMultiHopCascadeQuiesces(t *testing.T) {
	// Site acks broadcasts; coordinator broadcasts once on the first
	// message. Arrive must not return before the ack lands.
	coord := &onceCoord{}
	site := &ackSite{}
	c := Start(proto.Protocol{Coord: coord, Sites: []proto.Site{site}})
	c.Arrive(0, 0, 0)
	m := c.Metrics()
	if m.MessagesUp != 2 || m.MessagesDown != 1 {
		t.Fatalf("cascade metrics: %+v", m)
	}
	c.Stop()
	if coord.acks != 1 {
		t.Fatalf("acks = %d", coord.acks)
	}
}

type ackSite struct{}

func (s *ackSite) Arrive(item int64, value float64, out func(proto.Message)) { out(wordMsg(1)) }
func (s *ackSite) Receive(m proto.Message, out func(proto.Message))          { out(wordMsg(1)) }
func (s *ackSite) SpaceWords() int                                           { return 0 }

type onceCoord struct {
	sent bool
	acks int
}

func (c *onceCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if !c.sent {
		c.sent = true
		broadcast(wordMsg(1))
	} else {
		c.acks++
	}
}
func (c *onceCoord) SpaceWords() int { return 0 }

func TestDirectedSend(t *testing.T) {
	// Coordinator replies only to the sender.
	coord := &replyCoord{}
	s0, s1 := &countingSite{}, &countingSite{}
	c := Start(proto.Protocol{Coord: coord, Sites: []proto.Site{s0, s1}})
	c.Arrive(1, 0, 0)
	c.Stop()
	if s0.received != 0 || s1.received != 1 {
		t.Fatalf("directed send misrouted: s0=%d s1=%d", s0.received, s1.received)
	}
}

type replyCoord struct{}

func (c *replyCoord) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	send(from, wordMsg(1))
}
func (c *replyCoord) SpaceWords() int { return 0 }

func TestStartValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty protocol did not panic")
		}
	}()
	Start(proto.Protocol{})
}

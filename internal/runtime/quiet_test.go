package runtime_test

import (
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/netsim"
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/faulty"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/stats"
)

// fabricMounts are the two in-process fabrics, each returned with its
// embedded Fabric.
func fabricMounts(t *testing.T) []struct {
	name  string
	start func(p proto.Protocol) (runtime.Transport, *runtime.Fabric)
} {
	return []struct {
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
}

// TestQuietAfterEveryArrival pins the barrier's contract at the instant an
// arrival returns, which is what lets an arrival that sent nothing skip
// the barrier: no token is active and the down queue is empty, and
// without a fault plan nothing is parked either (with one, only traffic
// the plan holds stays parked). It runs the randomized count protocol —
// mostly message-free arrivals, with reports, round broadcasts and
// re-randomization cascades among them — through Arrive and ArriveBatch
// on both fabrics, with and without faults.
func TestQuietAfterEveryArrival(t *testing.T) {
	const k, steps = 8, 6000
	plan := faulty.Plan{Seed: 5, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1,
		Delay: 0.05, DelayArrivals: 7, Kills: []faulty.Kill{{Site: 2, At: 2000, RejoinAt: 5000}}}
	for _, mt := range fabricMounts(t) {
		for _, faults := range []bool{false, true} {
			name := mt.name + "/clean"
			if faults {
				name = mt.name + "/faults"
			}
			t.Run(name, func(t *testing.T) {
				p, _ := count.NewProtocol(count.Config{K: k, Eps: 0.05}, 3)
				tr, fab := mt.start(p)
				defer tr.Close()
				if faults {
					fab.SetMiddleware(faulty.New(fab, plan))
				}
				rng := stats.New(9)
				heldAt := 0 // returns that left fault-held traffic parked
				for step := 0; step < steps; step++ {
					site := rng.Intn(k)
					call := "Arrive"
					if rng.Intn(4) == 0 {
						call = "ArriveBatch"
						tr.ArriveBatch(site, 0, 0, 1+int64(rng.Intn(200)))
					} else {
						tr.Arrive(site, 0, 0)
					}
					active, parked, queued := fab.Outstanding()
					if active != 0 || queued != 0 || (!faults && parked != 0) {
						t.Fatalf("step %d: %s returned with %d active, %d parked, %d queued",
							step, call, active, parked, queued)
					}
					if parked != 0 {
						heldAt++
					}
				}
				tr.Quiesce()
				if active, _, queued := fab.Outstanding(); active != 0 || queued != 0 {
					t.Fatalf("Quiesce returned with %d active, %d queued", active, queued)
				}
				if m := tr.Metrics(); m.Messages() < 400 {
					t.Errorf("only %d messages: the run exercised too few cascades", m.Messages())
				}
				if faults && heldAt == 0 {
					t.Error("the fault plan never left traffic parked across an arrival")
				}
			})
		}
	}
}

// silentSite never sends; silentCoord never hears anything.
type silentSite struct{ n int64 }

func (s *silentSite) Arrive(item int64, value float64, out func(proto.Message)) { s.n++ }
func (s *silentSite) Receive(m proto.Message, out func(proto.Message))          {}
func (s *silentSite) SpaceWords() int                                           { return 1 }

type silentCoord struct{}

func (silentCoord) Receive(int, proto.Message, func(int, proto.Message), func(proto.Message)) {}
func (silentCoord) SpaceWords() int                                                           { return 1 }

// TestQuietArriveAllocs pins that a message-free arrival allocates nothing
// on either fabric.
func TestQuietArriveAllocs(t *testing.T) {
	for _, mt := range fabricMounts(t) {
		t.Run(mt.name, func(t *testing.T) {
			sites := []proto.Site{&silentSite{}, &silentSite{}}
			tr, _ := mt.start(proto.Protocol{Coord: silentCoord{}, Sites: sites})
			defer tr.Close()
			if allocs := testing.AllocsPerRun(1000, func() { tr.Arrive(1, 0, 0) }); allocs != 0 {
				t.Errorf("quiet Arrive: %v allocs, want 0", allocs)
			}
			if got := sites[1].(*silentSite).n; got != 1001 {
				t.Errorf("site saw %d arrivals, want 1001", got)
			}
		})
	}
}

// spaceSite is silent, absorbs a whole batch at once, and reports its
// arrival count as its space, so a probe records when it ran.
type spaceSite struct{ n int64 }

func (s *spaceSite) Arrive(item int64, value float64, out func(proto.Message)) { s.n++ }
func (s *spaceSite) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	s.n += count
	return count
}
func (s *spaceSite) Receive(m proto.Message, out func(proto.Message)) {}
func (s *spaceSite) SpaceWords() int                                  { return int(s.n) }

// TestProbeCadence pins when the periodic space probe runs: after every
// Arrive or ArriveBatch chunk that takes the arrival count onto or across a
// multiple of SpaceProbeEvery, and at no other time, counting from a
// seeded ledger.
func TestProbeCadence(t *testing.T) {
	const every, seeded = 100, 1234
	for _, mt := range fabricMounts(t) {
		t.Run(mt.name, func(t *testing.T) {
			site := &spaceSite{}
			tr, fab := mt.start(proto.Protocol{Coord: silentCoord{}, Sites: []proto.Site{site}})
			defer tr.Close()
			fab.SpaceProbeEvery = every
			fab.SeedLedger(runtime.Metrics{Arrivals: seeded})
			rng := stats.New(4)
			n, want := int64(seeded), 0
			for step := 0; step < 2000; step++ {
				c := int64(1)
				if rng.Intn(2) == 0 {
					c = 1 + int64(rng.Intn(3*every))
					tr.ArriveBatch(0, 0, 0, c)
				} else {
					tr.Arrive(0, 0, 0)
				}
				if n/every != (n+c)/every {
					want = int(site.n) // probed after this call, at this space
				}
				n += c
				if got := fab.Metrics().MaxSiteSpace; got != want {
					t.Fatalf("step %d (arrivals %d): probed space %d, want %d", step, n, got, want)
				}
			}
		})
	}
}

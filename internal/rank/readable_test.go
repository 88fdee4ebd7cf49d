package rank

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// oracleArrive is Site.Arrive as it stood before sites learnt which nodes a
// prefix decomposition reads: one node per level fed on every arrival, and
// every node shipped when it fills. It runs on a Site's own state (newChunk,
// the pool, the RNG, Receive are shared) but never touches feed, blocks or
// inBlock. Kept as the reference the readable-node site is held to.
func oracleArrive(s *Site, value float64, out func(proto.Message)) {
	if s.cur == nil || s.cur.arrived >= s.cur.cap {
		s.cur = s.newChunk()
	}
	c := s.cur
	c.arrived++
	for level := 0; level <= c.h; level++ {
		if c.active[level] == nil {
			c.active[level] = s.pool.NewSummary(c.bufSize(level), s.rng)
		}
		c.active[level].Insert(value)
		span := c.b << uint(level)
		if c.arrived%span == 0 {
			pos := int((c.arrived - 1) / span)
			out(SummaryMsg{Chunk: c.id, Level: level, Pos: pos, Snap: c.active[level].Snapshot()})
			c.active[level].Release()
			c.active[level] = nil
		}
	}
	if s.skip > 0 {
		s.skip--
	} else {
		out(SampleMsg{Chunk: c.id, Index: c.arrived, Value: value})
		s.skip = s.rng.SkipGeometric(s.p)
	}
	s.rs.Arrive(out)
}

func siteArrive(s *Site, value float64, out func(proto.Message)) { s.Arrive(0, value, out) }

// loggedSite runs a Site through either arrive function and keeps what it
// sent, setting aside the summaries of nodes that are not readable.
type loggedSite struct {
	*Site
	arrive     func(*Site, float64, func(proto.Message))
	log        []proto.Message
	unreadable int
}

func (l *loggedSite) Arrive(item int64, value float64, out func(proto.Message)) {
	l.arrive(l.Site, value, func(m proto.Message) {
		if sm, ok := m.(SummaryMsg); ok && !l.cur.readable(sm.Level, sm.Pos) {
			l.unreadable++
		} else {
			l.log = append(l.log, m)
		}
		out(m)
	})
}

// swapCoord lets a test replace the coordinator under a running harness.
type swapCoord struct{ *Coordinator }

type loggedRun struct {
	h     *sim.Harness
	coord *swapCoord
	sites []*loggedSite
}

func newLoggedRun(cfg Config, seed uint64, arrive func(*Site, float64, func(proto.Message))) *loggedRun {
	r := &loggedRun{coord: &swapCoord{NewCoordinator(cfg)}}
	root := stats.New(seed)
	sites := make([]proto.Site, cfg.K)
	for i := range sites {
		ls := &loggedSite{Site: NewSite(cfg, root.Split()), arrive: arrive}
		r.sites = append(r.sites, ls)
		sites[i] = ls
	}
	r.h = sim.New(proto.Protocol{Coord: r.coord, Sites: sites})
	return r
}

// restore replaces the coordinator by one rebuilt from its own snapshot.
func (r *loggedRun) restore(cfg Config) {
	fresh := NewCoordinator(cfg)
	r.coord.SnapshotState(fresh.RestoreState)
	r.coord.Coordinator = fresh
}

// restart replaces a site by a fresh machine, as a crash and rejoin does:
// chunk ids start over at 0 and the coordinator replays the round.
func (r *loggedRun) restart(cfg Config, site int, seed uint64) {
	s := NewSite(cfg, stats.New(seed))
	r.coord.Resync(func(m proto.Message) { s.Receive(m, func(proto.Message) {}) })
	r.sites[site].Site = s
}

// TestReadableStreamIsOracleMinusUnreadableNodes runs the readable-node site
// and the ship-every-node oracle side by side at equal seeds, through a
// coordinator snapshot/restore and a site restart at chunk id 0. Site by
// site, the new message stream must equal the oracle's with exactly the
// non-readable summaries removed, and the two coordinators must agree on
// Rank(x), to the bit, at every quiescent instant.
func TestReadableStreamIsOracleMinusUnreadableNodes(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		n    int
		seed uint64
	}{
		{Config{K: 1, Eps: 0.05, Rescale: 1}, 20000, 3},
		{Config{K: 4, Eps: 0.04, Rescale: 1}, 40000, 5},
		{Config{K: 4, Eps: 0.1}, 40000, 6}, // default rescale: deeper trees
		{Config{K: 9, Eps: 0.02, Rescale: 1}, 60000, 8},
	} {
		t.Run(fmt.Sprintf("K%d_eps%v_seed%d", tc.cfg.K, tc.cfg.Eps, tc.seed), func(t *testing.T) {
			cfg, n := tc.cfg, tc.n
			next := newLoggedRun(cfg, tc.seed, siteArrive)
			oracle := newLoggedRun(cfg, tc.seed, oracleArrive)
			valueOf := workload.UniformValues(stats.New(tc.seed + 100))
			place := stats.New(tc.seed + 200)
			agree := func(i int, when string) {
				t.Helper()
				for _, x := range rankGrid {
					if got, want := next.coord.Rank(x), oracle.coord.Rank(x); got != want {
						t.Fatalf("%s, %d arrivals: Rank(%v) = %v, oracle-fed coordinator says %v", when, i, x, got, want)
					}
				}
			}
			for i := 0; i < n; i++ {
				switch i {
				case n / 3:
					next.restore(cfg)
					oracle.restore(cfg)
					agree(i, "after restore")
				case n / 2:
					next.restart(cfg, 0, 4242)
					oracle.restart(cfg, 0, 4242)
				}
				site := 0 // half the stream at one site, so its chunks fill
				if place.Bernoulli(0.5) {
					site = place.Intn(cfg.K)
				}
				v := valueOf(i)
				next.h.Arrive(site, 0, v)
				oracle.h.Arrive(site, 0, v)
				if i < 3000 || i%11 == 0 || (i >= n/2 && i < n/2+3000) {
					agree(i+1, "running")
				}
			}
			agree(n, "final")
			checkAgainstWalk(t, next.coord.Coordinator, "final")

			dropped := 0
			for s := range next.sites {
				if next.sites[s].unreadable != 0 {
					t.Fatalf("site %d shipped %d non-readable nodes", s, next.sites[s].unreadable)
				}
				dropped += oracle.sites[s].unreadable
				got, want := next.sites[s].log, oracle.sites[s].log
				if len(got) != len(want) {
					t.Fatalf("site %d sent %d messages, the oracle's readable stream has %d", s, len(got), len(want))
				}
				for j := range got {
					if !reflect.DeepEqual(got[j], want[j]) {
						t.Fatalf("site %d message %d diverged:\n got    %+v\n oracle %+v", s, j, got[j], want[j])
					}
				}
			}
			if dropped == 0 {
				t.Fatal("the oracle never shipped a non-readable node: the run is too short to tell the sites apart")
			}
			if nm, om := next.h.Metrics(), oracle.h.Metrics(); nm.MessagesUp+int64(dropped) != om.MessagesUp || nm.WordsUp >= om.WordsUp {
				t.Fatalf("up traffic %d msgs / %d words against the oracle's %d / %d with %d nodes dropped",
					nm.MessagesUp, nm.WordsUp, om.MessagesUp, om.WordsUp, dropped)
			}
		})
	}
}

// checkDecomposition walks the binary decomposition of v.leaves and fails on
// a node that is absent or covers the wrong number of elements. It reports
// how many nodes the decomposition has.
func checkDecomposition(t *testing.T, v *chunkView, when string) int {
	t.Helper()
	nodes, start := 0, 0
	for level := 62; level >= 0; level-- {
		bit := 1 << uint(level)
		if v.leaves&bit == 0 {
			continue
		}
		sn, ok := v.node(level, start>>uint(level))
		if !ok {
			t.Fatalf("%s: leaves = %d but node (level %d, pos %d) is absent", when, v.leaves, level, start>>uint(level))
		}
		if want := v.b << uint(level); sn.N != want {
			t.Fatalf("%s: node (level %d, pos %d) covers %d elements, want %d", when, level, start>>uint(level), sn.N, want)
		}
		nodes++
		start += bit
	}
	return nodes
}

// TestDecompositionNeverMissesANode is the property the coordinator's silent
// skip of an absent node rests on: whatever the configuration, seed and
// feeding path, with round broadcasts abandoning chunks mid-block, after
// every arrival the coordinator's completed-block count for a site's current
// chunk equals the site's own, and every node the decomposition of that
// count asks for has been shipped. No honest message is refused on the way.
func TestDecompositionNeverMissesANode(t *testing.T) {
	deepest := 0
	for _, k := range []int{1, 4, 64} {
		for _, eps := range []float64{0.01, 0.05, 0.3} {
			for seed := uint64(1); seed <= 2; seed++ {
				for _, batched := range []bool{false, true} {
					name := fmt.Sprintf("K=%d eps=%v seed=%d batched=%v", k, eps, seed, batched)
					cfg := Config{K: k, Eps: eps, Rescale: 1}
					p, coord := NewProtocol(cfg, seed)
					h := sim.New(p)
					h.SetCoordLog(func(from int, m proto.Message) {
						if _, report := m.(rounds.UpMsg); !report && !coord.admits(m) {
							t.Fatalf("%s: honest message refused: %+v", name, m)
						}
					})
					rng := stats.New(seed*1000 + uint64(k))
					const n = 24000
					for fed := 0; fed < n; {
						site := 0
						if rng.Bernoulli(0.5) {
							site = rng.Intn(k)
						}
						v := rng.Float64()
						if batched {
							run := 1 + rng.Intn(40)
							h.ArriveBatch(site, 0, v, int64(run))
							fed += run
						} else {
							h.Arrive(site, 0, v)
							fed++
						}
						s := p.Sites[site].(*Site)
						when := fmt.Sprintf("%s, %d arrivals, site %d", name, fed, site)
						if live := coord.live[site]; live != nil {
							if d := checkDecomposition(t, live, when); d > deepest {
								deepest = d
							}
						}
						if s.cur == nil {
							continue
						}
						blocks := 0
						if int64(len(coord.chunks[site])) > s.cur.id && coord.chunks[site][s.cur.id] != nil {
							blocks = coord.chunks[site][s.cur.id].leaves
						}
						if blocks != s.cur.blocks {
							t.Fatalf("%s: chunk %d has %d completed blocks, the coordinator counts %d", when, s.cur.id, s.cur.blocks, blocks)
						}
					}
					if coord.Round() < 5 {
						t.Fatalf("%s: only %d rounds, chunks were hardly ever abandoned", name, coord.Round())
					}
					for site, siteChunks := range coord.chunks {
						for id, v := range siteChunks {
							if v != nil {
								checkDecomposition(t, v, fmt.Sprintf("%s, end, site %d chunk %d", name, site, id))
							}
						}
					}
				}
			}
		}
	}
	if deepest < 3 {
		t.Fatalf("no decomposition ever had more than %d nodes: the grid does not exercise the tree", deepest)
	}
}

// TestMalformedMessagesAreDropped pins the one validity check in front of
// Receive and RestoreState: a message whose chunk id, level or position is
// negative, would overflow (Pos+1)<<Level, or lies beyond what an honest
// site of this configuration can reach changes nothing — it used to panic
// with an index out of range or spin the table-growth loops.
func TestMalformedMessagesAreDropped(t *testing.T) {
	cfg := Config{K: 2, Eps: 0.1}
	snap := randomSnapshot(stats.New(1))
	blocks, chunks := cfg.maxBlocks(), cfg.maxChunks()
	bad := []proto.Message{
		SummaryMsg{Chunk: -1, Snap: snap},
		SummaryMsg{Level: -1, Snap: snap},
		SummaryMsg{Pos: -1, Snap: snap},
		SummaryMsg{Level: 63, Snap: snap},
		SummaryMsg{Level: 64, Snap: snap},
		SummaryMsg{Level: math.MaxInt, Snap: snap},
		SummaryMsg{Level: 62, Pos: 1, Snap: snap}, // (Pos+1)<<Level overflows
		SummaryMsg{Pos: math.MaxInt, Snap: snap},
		SummaryMsg{Pos: blocks, Snap: snap},
		SummaryMsg{Level: 1, Pos: blocks / 2, Snap: snap},
		SummaryMsg{Chunk: chunks, Snap: snap},
		SummaryMsg{Chunk: math.MaxInt64, Snap: snap},
		SampleMsg{Chunk: -1, Index: 1},
		SampleMsg{Chunk: math.MinInt64, Index: 1},
		SampleMsg{Chunk: chunks, Index: 1},
		proto.StateMsg{Key: stateChunk, A: -1, B: 1, F: 1},
		proto.StateMsg{Key: stateChunk, A: chunks, B: 1, F: 1},
		proto.StateMsg{Key: stateChunk, B: 0, F: 1},
		proto.StateMsg{Key: stateChunk, B: 1, F: 0},
		proto.StateMsg{Key: stateChunk, B: 1, F: 2},
		proto.StateMsg{Key: stateChunk, B: 1, F: math.NaN()},
		proto.StateMsg{Key: stateChunk + 1, B: 1, F: 1},
	}
	untouched := func(c *Coordinator, how string, m proto.Message) {
		t.Helper()
		if w := c.SpaceWords(); w != walkWords(c) || w != NewCoordinator(cfg).SpaceWords() {
			t.Fatalf("%s(%+v): space went to %d words", how, m, w)
		}
		if len(c.chunks[0]) != 0 || c.Rank(math.Inf(1)) != 0 {
			t.Fatalf("%s(%+v): the message was applied", how, m)
		}
	}
	for _, m := range bad {
		c := NewCoordinator(cfg)
		c.Receive(0, m, nil, nil)
		untouched(c, "Receive", m)
		c.RestoreState(0, m)
		untouched(c, "RestoreState", m)

		var fed int64
		agg := NewAgg(NewCoordinator(cfg))
		agg.Receive(0, m, nil, nil)
		agg.DrainFeed(func(_ int64, _ float64, count int64) { fed += count })
		if fed != 0 {
			t.Fatalf("the aggregator fed %d virtual arrivals from %+v", fed, m)
		}
	}

	// The largest addresses the bounds allow are applied.
	c := NewCoordinator(cfg)
	c.Receive(0, SummaryMsg{Pos: blocks - 1, Snap: snap}, nil, nil)
	c.Receive(1, SampleMsg{Chunk: chunks - 1, Index: 1, Value: 0.5}, nil, nil)
	if got, want := c.Rank(math.Inf(1)), float64(snap.N)+1; got != want {
		t.Fatalf("boundary messages: Rank(+Inf) = %v, want %v", got, want)
	}
	if c.chunks[0][0].leaves != blocks {
		t.Fatalf("leaves = %d after a level-0 node at pos %d", c.chunks[0][0].leaves, blocks-1)
	}
	restored := NewCoordinator(cfg)
	c.SnapshotState(restored.RestoreState)
	if got, want := restored.Rank(math.Inf(1)), float64(snap.N)+1; got != want {
		t.Fatalf("restored boundary messages: Rank(+Inf) = %v, want %v", got, want)
	}
}

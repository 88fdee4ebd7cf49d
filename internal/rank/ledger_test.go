package rank

import (
	"math"
	"sort"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/summary/merge"
	"disttrack/internal/workload"
)

// walkWords is the full walk SpaceWords performed before the ledger: every
// chunk record, every stored node.
func walkWords(c *Coordinator) int {
	w := c.rc.SpaceWords() + 1
	for _, siteChunks := range c.chunks {
		for _, v := range siteChunks {
			if v == nil {
				continue
			}
			w += 3 + 2*len(v.samples)
			for _, lvl := range v.levels {
				for _, sn := range lvl {
					if sn.N > 0 {
						w += sn.Words()
					}
				}
			}
		}
	}
	return w
}

// walkRank is the unindexed query: chunk by chunk in (site, id) order, the
// covered prefix's binary decomposition answered by the stored snapshots
// themselves and the residual samples counted at weight 1/p. It shares no
// code with the live indexes or the run stack.
func walkRank(c *Coordinator, x float64) float64 {
	est := 0.0
	for _, siteChunks := range c.chunks {
		for _, v := range siteChunks {
			if v == nil {
				continue
			}
			start := 0
			for level := 62; level >= 0; level-- {
				bit := 1 << uint(level)
				if v.leaves&bit == 0 {
					continue
				}
				if sn, ok := v.node(level, start>>uint(level)); ok {
					est += float64(sn.Rank(x))
				}
				start += bit
			}
			for _, sm := range v.samples[v.tail:] {
				if sm.value < x {
					est += 1 / v.p
				}
			}
		}
	}
	return est
}

var rankGrid = []float64{math.Inf(-1), -3, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 1, 7, math.Inf(1)}

func checkAgainstWalk(t *testing.T, c *Coordinator, when string) {
	t.Helper()
	for _, x := range rankGrid {
		if got, want := c.Rank(x), walkRank(c, x); got != want {
			t.Fatalf("%s: Rank(%v) = %v, unindexed walk says %v", when, x, got, want)
		}
	}
}

// randomSnapshot builds a well-formed node summary: sorted buffers with
// power-of-two weights, as merge.Summary.Snapshot produces them.
func randomSnapshot(rng *stats.RNG) merge.Snapshot {
	sn := merge.Snapshot{}
	for b, nb := 0, 1+rng.Intn(3); b < nb; b++ {
		vals := make([]float64, 1+rng.Intn(6))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		sort.Float64s(vals)
		w := int64(1) << uint(rng.Intn(5))
		sn.Buffers = append(sn.Buffers, merge.WeightedBuffer{Weight: w, Values: vals})
		sn.N += w * int64(len(vals))
	}
	return sn
}

// TestLedgerAndIndexMatchWalkUnderRandomMessages drives a coordinator with a
// seeded random message sequence — node summaries (some overwriting an
// existing (level, pos)), residual samples, doubling reports that change the
// round, sites moving on to their next chunk, and sites falling back to
// chunk 0 as a rejoined site would — and holds the O(1) ledger and the
// indexed Rank to the full walks after every message. A snapshot restored
// into a fresh coordinator must then agree on all three query surfaces.
func TestLedgerAndIndexMatchWalkUnderRandomMessages(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		const k = 5
		cfg := Config{K: k, Eps: 0.1, Rescale: 1}
		c := NewCoordinator(cfg)
		rng := stats.New(seed)
		cur := make([]int64, k)  // chunk each site is writing to
		next := make([]int64, k) // next sample index per site (restarts with the chunk)
		reported := make([]int64, k)
		for step := 0; step < 3000; step++ {
			site := rng.Intn(k)
			var m proto.Message
			switch r := rng.Intn(100); {
			case r < 40:
				next[site] += int64(1 + rng.Intn(4))
				m = SampleMsg{Chunk: cur[site], Index: next[site], Value: rng.Float64()}
			case r < 80:
				// Few distinct (level, pos) slots, so overwrites are common.
				m = SummaryMsg{Chunk: cur[site], Level: rng.Intn(3), Pos: rng.Intn(4), Snap: randomSnapshot(rng)}
			case r < 90:
				cur[site]++
				next[site] = 0
				continue
			case r < 93:
				cur[site], next[site] = 0, 0 // rejoin: ids restart at 0
				continue
			default:
				reported[site] = 2*reported[site] + 1 + int64(rng.Intn(50))
				m = rounds.UpMsg{N: reported[site]}
			}
			c.Receive(site, m, nil, func(proto.Message) {})
			if got, want := c.SpaceWords(), walkWords(c); got != want {
				t.Fatalf("seed %d step %d (%T): SpaceWords = %d, full walk says %d", seed, step, m, got, want)
			}
			if step%7 == 0 {
				checkAgainstWalk(t, c, "live")
			}
		}
		if c.Round() == 0 {
			t.Fatalf("seed %d: the sequence never changed round", seed)
		}
		if len(c.runs) == 0 {
			t.Fatalf("seed %d: nothing was ever sealed", seed)
		}

		restored := NewCoordinator(cfg)
		c.SnapshotState(restored.RestoreState)
		if got, want := restored.SpaceWords(), c.SpaceWords(); got != want {
			t.Fatalf("seed %d: restored SpaceWords = %d, original %d", seed, got, want)
		}
		if got, want := restored.SpaceWords(), walkWords(restored); got != want {
			t.Fatalf("seed %d: restored SpaceWords = %d, full walk says %d", seed, got, want)
		}
		for _, x := range rankGrid {
			if got, want := restored.Rank(x), c.Rank(x); got != want {
				t.Fatalf("seed %d: restored Rank(%v) = %v, original %v", seed, x, got, want)
			}
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
			if got, want := restored.Quantile(q, -1, 2), c.Quantile(q, -1, 2); got != want {
				t.Fatalf("seed %d: restored Quantile(%v) = %v, original %v", seed, q, got, want)
			}
		}
		// The restored coordinator keeps working: more traffic, same checks.
		for site := 0; site < k; site++ {
			restored.Receive(site, SampleMsg{Chunk: cur[site], Index: next[site] + 1, Value: 0.5}, nil, nil)
			restored.Receive(site, SummaryMsg{Chunk: cur[site] + 1, Snap: randomSnapshot(rng)}, nil, nil)
		}
		if got, want := restored.SpaceWords(), walkWords(restored); got != want {
			t.Fatalf("seed %d: post-restore SpaceWords = %d, full walk says %d", seed, got, want)
		}
		checkAgainstWalk(t, restored, "post-restore")
	}
}

// TestMessageToSealedChunkFallsBackToWalk runs the real protocol, records
// what site 0 sent for its chunk 0, and replays it once the site is on chunk
// 3 or later — chunk 0 was sealed long ago and its entries sit merged inside
// a run. The answers must keep matching the unindexed walk, before, at, and
// after the replay, while sealing carries on for the other sites.
func TestMessageToSealedChunkFallsBackToWalk(t *testing.T) {
	const k, n = 4, 60000
	cfg := Config{K: k, Eps: 0.05, Rescale: 1}
	p, coord := NewProtocol(cfg, 77)
	h := sim.New(p)
	var chunk0 []proto.Message
	h.SetCoordLog(func(from int, m proto.Message) {
		if from != 0 {
			return
		}
		switch msg := m.(type) {
		case SummaryMsg:
			if msg.Chunk == 0 {
				chunk0 = append(chunk0, m)
			}
		case SampleMsg:
			if msg.Chunk == 0 {
				chunk0 = append(chunk0, m)
			}
		}
	})
	valueOf := workload.PermValues(n, stats.New(5))
	replayed := false
	for i := 0; i < n; i++ {
		h.Arrive(i%k, 0, valueOf(i)/n)
		if !replayed && len(coord.chunks[0]) > 3 {
			if len(coord.runs) == 0 || coord.stale {
				t.Fatalf("after %d arrivals: site 0 is on chunk %d but nothing is sealed", i+1, len(coord.chunks[0])-1)
			}
			checkAgainstWalk(t, coord, "before replay")
			for _, m := range chunk0 {
				coord.Receive(0, m, nil, nil)
			}
			if !coord.stale {
				t.Fatal("a message reached sealed chunk 0 and the run stack was not invalidated")
			}
			checkAgainstWalk(t, coord, "at replay")
			if got, want := coord.SpaceWords(), walkWords(coord); got != want {
				t.Fatalf("after replay: SpaceWords = %d, full walk says %d", got, want)
			}
			replayed = true
		}
		if i%997 == 0 {
			checkAgainstWalk(t, coord, "running")
		}
	}
	if !replayed || len(chunk0) == 0 {
		t.Fatalf("replay never happened (site 0 reached chunk %d, %d chunk-0 messages)", len(coord.chunks[0])-1, len(chunk0))
	}
	if coord.stale || len(coord.runs) == 0 {
		t.Fatal("the run stack was not rebuilt after the replay")
	}
	// Logarithmic method: every run is more than twice the one above it.
	for i := 1; i < len(coord.runs); i++ {
		if lo, up := len(coord.runs[i-1].values), len(coord.runs[i].values); lo <= 2*up {
			t.Fatalf("run %d has %d entries under run %d with %d: not merged", i, up, i-1, lo)
		}
	}
	checkAgainstWalk(t, coord, "final")
}

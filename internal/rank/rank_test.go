package rank

import (
	"math"
	"sort"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// oracle tracks exact ranks over the inserted values.
type oracle struct {
	vals []float64
}

func (o *oracle) add(v float64) { o.vals = append(o.vals, v) }

func (o *oracle) rank(x float64) float64 {
	r := 0
	for _, v := range o.vals {
		if v < x {
			r++
		}
	}
	return float64(r)
}

func TestExactWhilePIsOne(t *testing.T) {
	// With p = 1 all residual samples arrive, so ranks are exact (summaries
	// of single-element blocks are exact too).
	cfg := Config{K: 4, Eps: 0.2, Rescale: 1}
	p, coord := NewProtocol(cfg, 1)
	h := sim.New(p)
	o := &oracle{}
	vals := []float64{5, 3, 8, 1, 9, 2, 7, 4}
	for i, v := range vals {
		o.add(v)
		h.Arrive(i%4, 0, v)
		for _, q := range []float64{0, 2.5, 5.5, 10} {
			if got := coord.Rank(q); got != o.rank(q) {
				t.Fatalf("p=1 phase: Rank(%v) = %v, want %v after %d arrivals",
					q, got, o.rank(q), i+1)
			}
		}
	}
}

func TestEndToEndUnbiased(t *testing.T) {
	// Mean of the rank estimate at a fixed instant over independent runs
	// approaches the true rank, across round restarts and chunk churn.
	const k = 9
	const n = 8000
	cfg := Config{K: k, Eps: 0.1, Rescale: 1}
	valueOf := workload.PermValues(n, stats.New(808))
	const q = float64(n) / 3
	const trials = 120
	ests := make([]float64, trials)
	var truth float64
	for i := 0; i < n; i++ {
		if valueOf(i) < q {
			truth++
		}
	}
	for tr := 0; tr < trials; tr++ {
		p, coord := NewProtocol(cfg, uint64(4000+tr))
		h := sim.New(p)
		for i := 0; i < n; i++ {
			h.Arrive(i%k, 0, valueOf(i))
		}
		ests[tr] = coord.Rank(q)
	}
	mean := stats.Mean(ests)
	se := stats.StdDev(ests)/math.Sqrt(trials) + 1e-9
	if math.Abs(mean-truth) > 5*se+1 {
		t.Fatalf("Rank mean %v, want %v (se %v)", mean, truth, se)
	}
	if sd := stats.StdDev(ests); sd > cfg.Eps*n {
		t.Fatalf("std-dev %v above eps*n = %v", sd, cfg.Eps*n)
	}
}

func TestCoverageAllInstants(t *testing.T) {
	const k = 16
	const eps = 0.1
	const n = 20000
	cfg := Config{K: k, Eps: eps}
	valueOf := workload.PermValues(n, stats.New(809))
	p, coord := NewProtocol(cfg, 61)
	h := sim.New(p)
	o := &oracle{}
	queries := []float64{float64(n) * 0.1, float64(n) * 0.25, float64(n) * 0.5, float64(n) * 0.9}
	bad, checks := 0, 0
	for i := 0; i < n; i++ {
		v := valueOf(i)
		o.add(v)
		h.Arrive(i%k, 0, v)
		if i%89 != 0 {
			continue
		}
		for _, q := range queries {
			checks++
			if math.Abs(coord.Rank(q)-o.rank(q)) > eps*float64(i+1) {
				bad++
			}
		}
	}
	frac := float64(bad) / float64(checks)
	if frac > 0.10 {
		t.Fatalf("%.1f%% of rank checks outside eps band (budget 10%%)", 100*frac)
	}
}

func TestSkewedPlacementStaysAccurate(t *testing.T) {
	// Everything at one site: chunks roll over every n̄/k arrivals; accuracy
	// must survive the chunk churn.
	const k = 8
	const eps = 0.15
	const n = 15000
	cfg := Config{K: k, Eps: eps}
	valueOf := workload.PermValues(n, stats.New(811))
	p, coord := NewProtocol(cfg, 67)
	h := sim.New(p)
	o := &oracle{}
	bad, checks := 0, 0
	for i := 0; i < n; i++ {
		v := valueOf(i)
		o.add(v)
		h.Arrive(0, 0, v)
		if i%97 != 0 {
			continue
		}
		checks++
		q := float64(n) / 2
		if math.Abs(coord.Rank(q)-o.rank(q)) > eps*float64(i+1) {
			bad++
		}
	}
	if frac := float64(bad) / float64(checks); frac > 0.10 {
		t.Fatalf("skewed placement: %.1f%% checks failed", 100*frac)
	}
}

func TestQuantileBisection(t *testing.T) {
	const k = 4
	const eps = 0.1
	const n = 10000
	cfg := Config{K: k, Eps: eps}
	valueOf := workload.PermValues(n, stats.New(821))
	p, coord := NewProtocol(cfg, 71)
	h := sim.New(p)
	for i := 0; i < n; i++ {
		h.Arrive(i%k, 0, valueOf(i))
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		v := coord.Quantile(q, 0, n)
		// The returned value's true rank must be within ~2eps of q*n.
		if math.Abs(v-q*n) > 3*eps*n {
			t.Fatalf("Quantile(%v) = %v, want ~%v", q, v, q*n)
		}
	}
}

func TestDeterministicAlwaysWithinEps(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 20000
	p, coord := NewDetProtocol(k, eps)
	h := sim.New(p)
	valueOf := workload.PermValues(n, stats.New(823))
	o := &oracle{}
	for i := 0; i < n; i++ {
		v := valueOf(i)
		o.add(v)
		h.Arrive(i%k, 0, v)
		if i%53 != 0 {
			continue
		}
		for _, q := range []float64{float64(n) * 0.2, float64(n) * 0.5, float64(n) * 0.8} {
			if err := math.Abs(coord.Rank(q) - o.rank(q)); err > eps*float64(i+1)+float64(k) {
				t.Fatalf("det error %v > εn at instant %d", err, i+1)
			}
		}
	}
}

func TestRandomizedCheaperThanDeterministicLargeK(t *testing.T) {
	const k = 64
	const eps = 0.05
	const n = 60000
	valueOf := workload.PermValues(n, stats.New(829))
	events := make([]workload.Event, n)
	for i := range events {
		events[i] = workload.Event{Site: i % k, Value: valueOf(i)}
	}
	p, _ := NewProtocol(Config{K: k, Eps: eps, Rescale: 1}, 73)
	h := sim.New(p)
	h.Run(events, nil)
	randWords := h.Metrics().Words()

	dp, _ := NewDetProtocol(k, eps)
	dh := sim.New(dp)
	dh.Run(events, nil)
	detWords := dh.Metrics().Words()

	if randWords >= detWords {
		t.Fatalf("randomized words %d not below deterministic %d", randWords, detWords)
	}
}

func TestSiteSpaceSublinear(t *testing.T) {
	// Site space should be far below the number of elements it processed
	// (paper: O(1/(ε√k)·polylog)).
	const k = 16
	const eps = 0.05
	const n = 50000
	cfg := Config{K: k, Eps: eps, Rescale: 1}
	p, _ := NewProtocol(cfg, 79)
	h := sim.New(p)
	h.SpaceProbeEvery = 64
	valueOf := workload.UniformValues(stats.New(831))
	for i := 0; i < n; i++ {
		h.Arrive(0, 0, valueOf(i)) // single hot site: worst case
	}
	sp := h.Metrics().MaxSiteSpace
	perSite := n // everything went to one site
	if sp > perSite/20 {
		t.Fatalf("site space %d not sublinear in local stream %d", sp, perSite)
	}
}

func TestChunkDecompositionInternals(t *testing.T) {
	// Feed exactly 6 blocks worth of data into one chunk and verify the
	// coordinator's decomposition covers 6 = 4+2 blocks via a level-2 and a
	// level-1 node.
	cfg := Config{K: 1, Eps: 0.5, Rescale: 1}
	site := NewSite(cfg, stats.New(83))
	// Pin n̄ so the chunk has b >= 2 and capacity >= 12: use a large fake
	// broadcast.
	site.rs.Deliver(rounds.BroadcastMsg{NBar: 400})
	site.p = 0.5
	var msgs []SummaryMsg
	for i := 0; i < 1200; i++ {
		site.Arrive(0, float64(i), func(m proto.Message) {
			if sm, ok := m.(SummaryMsg); ok {
				msgs = append(msgs, sm)
			}
		})
	}
	if len(msgs) == 0 {
		t.Fatal("no summaries shipped")
	}
	// A level-0 node ships at most once per position (only even ones do).
	leafCount := 0
	posSeen := map[int]bool{}
	for _, m := range msgs {
		if m.Chunk != 0 {
			continue
		}
		if m.Level == 0 {
			leafCount++
			if posSeen[m.Pos] {
				t.Fatalf("duplicate leaf pos %d", m.Pos)
			}
			posSeen[m.Pos] = true
		}
	}
	if leafCount == 0 {
		t.Fatal("no leaf summaries")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, Eps: 0.1},
		{K: 3, Eps: 0},
		{K: 3, Eps: 1},
		{K: 3, Eps: 0.1, Rescale: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d did not panic", i)
				}
			}()
			cfg.validate()
		}()
	}
}

func TestSortedAdversarialInput(t *testing.T) {
	// Sorted arrivals are adversarial for many summaries; coverage must
	// hold regardless.
	const k = 8
	const eps = 0.15
	const n = 12000
	cfg := Config{K: k, Eps: eps}
	p, coord := NewProtocol(cfg, 89)
	h := sim.New(p)
	bad, checks := 0, 0
	for i := 0; i < n; i++ {
		h.Arrive(i%k, 0, float64(i))
		if i%79 != 0 || i == 0 {
			continue
		}
		checks++
		q := float64(i) / 2
		// True rank of q among 0..i is ceil(q).
		want := math.Ceil(q)
		if math.Abs(coord.Rank(q)-want) > eps*float64(i+1) {
			bad++
		}
	}
	if frac := float64(bad) / float64(checks); frac > 0.10 {
		t.Fatalf("sorted input: %.1f%% checks failed", 100*frac)
	}
}

func TestRankMonotoneInQuery(t *testing.T) {
	const n = 5000
	cfg := Config{K: 4, Eps: 0.1}
	valueOf := workload.PermValues(n, stats.New(97))
	p, coord := NewProtocol(cfg, 101)
	h := sim.New(p)
	for i := 0; i < n; i++ {
		h.Arrive(i%4, 0, valueOf(i))
	}
	qs := []float64{0, n * 0.25, n * 0.5, n * 0.75, n}
	prev := math.Inf(-1)
	for _, q := range qs {
		r := coord.Rank(q)
		if r < prev-1e-9 {
			t.Fatalf("rank not monotone: Rank(%v)=%v < %v", q, r, prev)
		}
		prev = r
	}
}

func TestDetSnapshotWordsMatchSummary(t *testing.T) {
	s := NewDetSite(2, 0.1)
	var words []int
	for i := 0; i < 100; i++ {
		s.Arrive(0, float64(i), func(m proto.Message) {
			if sm, ok := m.(*DetSnapshotMsg); ok {
				words = append(words, sm.Words())
			}
		})
	}
	if len(words) == 0 {
		t.Fatal("no snapshots sent")
	}
	sort.Ints(words)
	if words[0] <= 0 {
		t.Fatal("snapshot with non-positive words")
	}
}

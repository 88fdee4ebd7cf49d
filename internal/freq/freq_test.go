package freq

import (
	"math"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// truth tracks exact global item frequencies.
type truth map[int64]int64

func (tr truth) add(j int64) { tr[j]++ }

func TestExactWhilePIsOne(t *testing.T) {
	// While p = 1 every counter insertion and update is reported, so
	// estimates are exact: c̄ − 2 + 2/1 = c̄ = f_ij.
	cfg := Config{K: 4, Eps: 0.2, Rescale: 1} // √k/ε = 10
	p, coord := NewProtocol(cfg, 1)
	h := sim.New(p)
	tr := truth{}
	for i := 0; i < 9; i++ {
		item := int64(i % 3)
		tr.add(item)
		h.Arrive(i%4, item, 0)
		for j := int64(0); j < 3; j++ {
			if est := coord.Estimate(j); est != float64(tr[j]) {
				t.Fatalf("p=1 phase: Estimate(%d) = %v, want %d", j, est, tr[j])
			}
		}
	}
}

func TestEndToEndUnbiased(t *testing.T) {
	// A fixed stream with a known mid-frequency item; the estimator mean
	// over independent runs must converge to the truth even after several
	// round restarts.
	const k = 9
	const n = 12000
	const item = int64(7)
	cfg := Config{K: k, Eps: 0.1, Rescale: 1}
	// Item 7 appears every 10th arrival; everything else is distinct noise.
	itemOf := func(i int) int64 {
		if i%10 == 0 {
			return item
		}
		return int64(1000 + i)
	}
	const trials = 200
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		p, coord := NewProtocol(cfg, uint64(3000+tr))
		h := sim.New(p)
		for i := 0; i < n; i++ {
			h.Arrive(i%k, itemOf(i), 0)
		}
		ests[tr] = coord.Estimate(item)
	}
	wantF := float64(n / 10)
	mean := stats.Mean(ests)
	se := stats.StdDev(ests)/math.Sqrt(trials) + 1e-9
	if math.Abs(mean-wantF) > 5*se+1 {
		t.Fatalf("Estimate mean %v, want %v (se %v)", mean, wantF, se)
	}
}

func TestEquation2BiasAblation(t *testing.T) {
	// Items appearing ~1/p times per site: the naive estimator (2) has a
	// positive bias ~f_ij·(1-p)^f_ij per site, which sums to a visible
	// offset across sites; the correct estimator (4) does not.
	const k = 16
	const n = 20000
	const item = int64(42)
	// item appears once every k arrivals, round-robin: f_ij = n/k² per
	// site... make it sparser: every 50 arrivals.
	itemOf := func(i int) int64 {
		if i%50 == 0 {
			return item
		}
		return int64(100000 + i)
	}
	run := func(biased bool, seed uint64) float64 {
		cfg := Config{K: k, Eps: 0.1, Rescale: 1, BiasedEstimator: biased}
		p, coord := NewProtocol(cfg, seed)
		h := sim.New(p)
		for i := 0; i < n; i++ {
			h.Arrive(i%k, itemOf(i), 0)
		}
		return coord.Estimate(item)
	}
	const trials = 150
	var biasedSum, unbiasedSum float64
	for tr := 0; tr < trials; tr++ {
		biasedSum += run(true, uint64(6000+tr))
		unbiasedSum += run(false, uint64(6000+tr))
	}
	wantF := float64(n / 50)
	biasedErr := biasedSum/trials - wantF
	unbiasedErr := unbiasedSum/trials - wantF
	if math.Abs(unbiasedErr) >= math.Abs(biasedErr) {
		t.Fatalf("unbiased estimator error %v not smaller than biased %v",
			unbiasedErr, biasedErr)
	}
	if biasedErr < 1 {
		t.Fatalf("expected visible positive bias from equation (2), got %v", biasedErr)
	}
}

func TestCoverageZipf(t *testing.T) {
	const k = 16
	const eps = 0.1
	const n = 30000
	rng := stats.New(701)
	itemF := workload.ZipfItems(500, 1.1, rng)
	items := make([]int64, n)
	tr := truth{}
	for i := range items {
		items[i] = itemF(i)
	}
	p, coord := NewProtocol(Config{K: k, Eps: eps}, 31)
	h := sim.New(p)
	queries := []int64{0, 1, 2, 5, 10, 50, 200, 499} // head through tail
	bad, checks := 0, 0
	for i := 0; i < n; i++ {
		tr.add(items[i])
		h.Arrive(i%k, items[i], 0)
		if i%97 != 0 { // check a deterministic subset of instants
			continue
		}
		for _, q := range queries {
			checks++
			if math.Abs(coord.Estimate(q)-float64(tr[q])) > eps*float64(i+1) {
				bad++
			}
		}
	}
	frac := float64(bad) / float64(checks)
	if frac > 0.10 {
		t.Fatalf("%.1f%% of (instant, item) checks outside band (budget 10%%)", 100*frac)
	}
}

func TestVirtualSitesBoundSpace(t *testing.T) {
	// All arrivals at a single site: without virtual sites the sticky list
	// grows to ~p·n per round; with them it stays at ~p·n̄/k.
	const k = 16
	const eps = 0.05
	const n = 60000
	run := func(disable bool) int {
		cfg := Config{K: k, Eps: eps, Rescale: 1, DisableVirtualSites: disable}
		p, _ := NewProtocol(cfg, 41)
		h := sim.New(p)
		h.SpaceProbeEvery = 64
		for i := 0; i < n; i++ {
			h.Arrive(0, int64(i), 0) // all distinct, all at site 0
		}
		return h.Metrics().MaxSiteSpace
	}
	with := run(false)
	without := run(true)
	if with*4 > without {
		t.Fatalf("virtual sites gave no space relief: with=%d without=%d", with, without)
	}
	// Absolute bound: p·n̄/k with slack. p ≤ √k/(ε_eff·n̄) so p·n̄/k ≤
	// 1/(ε√k)·(small constants) — allow a generous constant plus the O(1)
	// fixed state.
	budget := int(20/(eps*math.Sqrt(k))) + 64
	if with > budget {
		t.Fatalf("site space %d exceeds O(1/(ε√k)) budget %d", with, budget)
	}
}

func TestVirtualSiteResetsAccounted(t *testing.T) {
	const k = 8
	cfg := Config{K: k, Eps: 0.1, Rescale: 1}
	p, coord := NewProtocol(cfg, 43)
	h := sim.New(p)
	tr := truth{}
	const n = 20000
	for i := 0; i < n; i++ {
		item := int64(i % 5)
		tr.add(item)
		h.Arrive(0, item, 0) // single hot site forces splits
	}
	// Estimates must remain accurate across incarnations.
	for j := int64(0); j < 5; j++ {
		if err := math.Abs(coord.Estimate(j) - float64(tr[j])); err > cfg.Eps*n {
			t.Fatalf("post-split Estimate(%d) off by %v (> %v)", j, err, cfg.Eps*float64(n))
		}
	}
}

func TestDeterministicAlwaysWithinEps(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 30000
	rng := stats.New(703)
	itemF := workload.ZipfItems(200, 1.0, rng)
	p, coord := NewDetProtocol(k, eps)
	h := sim.New(p)
	tr := truth{}
	queries := []int64{0, 1, 3, 10, 42, 199}
	for i := 0; i < n; i++ {
		item := itemF(i)
		tr.add(item)
		h.Arrive(i%k, item, 0)
		if i%101 != 0 {
			continue
		}
		for _, q := range queries {
			if err := math.Abs(coord.Estimate(q) - float64(tr[q])); err > eps*float64(i+1) {
				t.Fatalf("deterministic error %v > εn at instant %d item %d", err, i+1, q)
			}
		}
	}
}

func TestDeterministicSpaceIsOneOverEps(t *testing.T) {
	const k = 4
	const eps = 0.05
	p, _ := NewDetProtocol(k, eps)
	h := sim.New(p)
	h.SpaceProbeEvery = 100
	rng := stats.New(709)
	itemF := workload.UniformItems(10000, rng)
	for i := 0; i < 40000; i++ {
		h.Arrive(i%k, itemF(i), 0)
	}
	// m = 8/eps+1 slots, 3 words each, plus lastReported and rounds state.
	budget := 5 * int(8/eps)
	if sp := h.Metrics().MaxSiteSpace; sp > budget {
		t.Fatalf("deterministic site space %d exceeds budget %d", sp, budget)
	}
}

func TestRandomizedCheaperThanDeterministicLargeK(t *testing.T) {
	const k = 64
	const eps = 0.02
	const n = 80000
	rng := stats.New(711)
	itemF := workload.ZipfItems(1000, 1.0, rng)
	events := make([]workload.Event, n)
	for i := range events {
		events[i] = workload.Event{Site: i % k, Item: itemF(i)}
	}
	p, _ := NewProtocol(Config{K: k, Eps: eps, Rescale: 1}, 47)
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

func TestSitesClearAtRoundBoundary(t *testing.T) {
	cfg := Config{K: 4, Eps: 0.5, Rescale: 1}
	p, coord := NewProtocol(cfg, 53)
	h := sim.New(p)
	for i := 0; i < 10000; i++ {
		h.Arrive(i%4, int64(i%3), 0)
	}
	if coord.Round() < 3 {
		t.Fatalf("expected several rounds, got %d", coord.Round())
	}
	// After many arrivals the per-site sticky lists should hold only the
	// current round's counters: at most 3 items.
	for i, s := range p.Sites {
		site := s.(*Site)
		if site.list.Len() > 3 {
			t.Fatalf("site %d list has %d counters; rounds not clearing", i, site.list.Len())
		}
	}
}

func TestUnknownItemEstimate(t *testing.T) {
	cfg := Config{K: 2, Eps: 0.3}
	p, coord := NewProtocol(cfg, 59)
	h := sim.New(p)
	for i := 0; i < 100; i++ {
		h.Arrive(i%2, 1, 0)
	}
	if est := coord.Estimate(999); est != 0 {
		t.Fatalf("estimate of never-seen item = %v, want 0", est)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, Eps: 0.1},
		{K: 4, Eps: 0},
		{K: 4, Eps: 1.5},
		{K: 4, Eps: 0.1, Rescale: -2},
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
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewDetSite bad k did not panic")
			}
		}()
		NewDetSite(0, 0.1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewDetSite bad eps did not panic")
			}
		}()
		NewDetSite(2, 0)
	}()
}

func TestMessageWords(t *testing.T) {
	if (CounterMsg{}).Words() != 2 {
		t.Fatal("CounterMsg should be 2 words")
	}
	if (SampleMsg{}).Words() != 1 {
		t.Fatal("SampleMsg should be 1 word")
	}
	if (ResetMsg{}).Words() != 1 {
		t.Fatal("ResetMsg should be 1 word")
	}
	if (DetReportMsg{}).Words() != 3 {
		t.Fatal("DetReportMsg should be 3 words")
	}
}

// walkWords is the full walk SpaceWords performed before the ledger.
func walkWords(c *Coordinator) int {
	w := c.rc.SpaceWords()
	for _, r := range c.rnds {
		for _, v := range r.all {
			w += 2*len(v.cbar) + 2*len(v.d) + 1
		}
	}
	return w
}

func TestSpaceLedgerMatchesWalkUnderRandomMessages(t *testing.T) {
	// A seeded random message sequence — counter reports (items repeat, so
	// most overwrite), samples, virtual-site resets, and doubling reports
	// that open rounds — with the O(1) ledger held to the full walk after
	// every message; then a snapshot restored into a fresh coordinator must
	// carry the same ledger and the same estimates.
	for seed := uint64(1); seed <= 8; seed++ {
		const k = 5
		cfg := Config{K: k, Eps: 0.1, Rescale: 1}
		c := NewCoordinator(cfg)
		rng := stats.New(seed)
		reported := make([]int64, k)
		for step := 0; step < 3000; step++ {
			site := rng.Intn(k)
			var m proto.Message
			switch r := rng.Intn(100); {
			case r < 45:
				m = CounterMsg{Item: int64(rng.Intn(40)), Count: int64(1 + rng.Intn(100))}
			case r < 85:
				m = SampleMsg{Item: int64(rng.Intn(40))}
			case r < 93:
				m = ResetMsg{}
			default:
				reported[site] = 2*reported[site] + 1 + int64(rng.Intn(50))
				m = rounds.UpMsg{N: reported[site]}
			}
			c.Receive(site, m, nil, func(proto.Message) {})
			if got, want := c.SpaceWords(), walkWords(c); got != want {
				t.Fatalf("seed %d step %d (%T): SpaceWords = %d, full walk says %d", seed, step, m, got, want)
			}
		}
		if c.Round() == 0 {
			t.Fatalf("seed %d: the sequence never changed round", seed)
		}

		restored := NewCoordinator(cfg)
		c.SnapshotState(restored.RestoreState)
		if got, want := restored.SpaceWords(), c.SpaceWords(); got != want {
			t.Fatalf("seed %d: restored SpaceWords = %d, original %d", seed, got, want)
		}
		if got, want := restored.SpaceWords(), walkWords(restored); got != want {
			t.Fatalf("seed %d: restored SpaceWords = %d, full walk says %d", seed, got, want)
		}
		for item := int64(0); item < 42; item++ {
			if got, want := restored.Estimate(item), c.Estimate(item); got != want {
				t.Fatalf("seed %d: restored Estimate(%d) = %v, original %v", seed, item, got, want)
			}
		}
	}
}

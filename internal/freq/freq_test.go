package freq

import (
	"fmt"
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

// walked is one item's answer from walkEstimates.
type walked struct {
	est   float64 // the walk as Estimate accumulated it, in float64
	exact int64   // the same terms accumulated in int64
	mag   float64 // Σ|term|
}

// walkEstimates is the full walk Estimate performed before the per-item
// index, for every item at once: one equation-(4) term per (round,
// incarnation) — c̄ − 2 + 2/p when a counter exists, else −d/p — visited in
// the order the production walk visited them, so each item's float64 sum
// associates exactly as it did. While an item's mag stays below 2^53 every
// partial sum is an exactly representable integer, est == float64(exact),
// and the index must reproduce est to the bit.
func walkEstimates(c *Coordinator) map[int64]walked {
	out := map[int64]walked{}
	add := func(j int64, term float64, exact int64) {
		w := out[j]
		out[j] = walked{w.est + term, w.exact + exact, w.mag + math.Abs(term)}
	}
	for _, r := range c.rnds {
		inv := int64(1 / r.p)
		for _, v := range r.all {
			for j, cb := range v.cbar {
				add(j, float64(cb)-2+2/r.p, cb-2+2*inv)
			}
			if c.cfg.BiasedEstimator {
				continue
			}
			for j, d := range v.d {
				if _, ok := v.cbar[j]; !ok {
					add(j, -float64(d)/r.p, -d*inv)
				}
			}
		}
	}
	return out
}

// checkIndex holds Estimate to the walk for every item in items (an item
// the walk never met must read 0), and reports how many of them the float
// walk could still answer exactly.
func checkIndex(t *testing.T, c *Coordinator, items []int64, where func() string) (inExactRange int) {
	t.Helper()
	walk := walkEstimates(c)
	for _, item := range items {
		got, w := c.Estimate(item), walk[item]
		if got != float64(w.exact) {
			t.Fatalf("%s: Estimate(%d) = %v, integer walk says %d", where(), item, got, w.exact)
		}
		if w.mag < 1<<53 {
			inExactRange++
			if got != w.est {
				t.Fatalf("%s: Estimate(%d) = %v, float walk says %v (Σ|terms| = %g)", where(), item, got, w.est, w.mag)
			}
		}
	}
	return inExactRange
}

// checkRestored snapshots c into a new coordinator and holds the copy's
// ledger and every estimate to the original's. The copy has already taken
// two messages into its constructed round 0, which the first restored round
// replaces wholesale: their words and their estimates must go with it.
func checkRestored(t *testing.T, c *Coordinator, items []int64, where func() string) *Coordinator {
	t.Helper()
	restored := NewCoordinator(c.cfg)
	restored.Receive(0, CounterMsg{Item: 1, Count: 9}, nil, nil)
	restored.Receive(0, SampleMsg{Item: 2}, nil, nil)
	c.SnapshotState(restored.RestoreState)
	if got, want := restored.SpaceWords(), c.SpaceWords(); got != want {
		t.Fatalf("%s: restored SpaceWords = %d, original %d", where(), got, want)
	}
	if got, want := restored.SpaceWords(), walkWords(restored); got != want {
		t.Fatalf("%s: restored SpaceWords = %d, full walk says %d", where(), got, want)
	}
	for _, item := range items {
		if got, want := restored.Estimate(item), c.Estimate(item); got != want {
			t.Fatalf("%s: restored Estimate(%d) = %v, original %v", where(), item, got, want)
		}
	}
	return restored
}

func TestSpaceLedgerMatchesWalkUnderRandomMessages(t *testing.T) {
	// A seeded random message sequence — counter reports (items repeat, so
	// most overwrite), samples, virtual-site resets, and doubling reports
	// that open rounds — with the O(1) ledger and the per-item estimate
	// index held to their full walks after every message, for all 42 items.
	// The synthetic doubling drives 1/p far past anything a real stream
	// reaches, so on some seeds the float walk stops being an oracle late in
	// the sequence (Σ|terms| ≥ 2^53); the integer walk is one throughout.
	// Every 500 messages, and at the end, a snapshot restored into a fresh
	// coordinator must carry the same ledger and the same estimates — replay
	// applies counters before sample counts, the reverse of how most arrived
	// — and the pair must stay equal under further traffic. The
	// no-virtual-sites row sends no resets, as sites with the option off
	// never do: one incarnation per site and round, overwritten far more.
	items := make([]int64, 42) // 40 live items and two never reported
	for i := range items {
		items[i] = int64(i)
	}
	rows := []struct {
		name  string
		cfg   Config
		seeds []uint64 // 3 and 8 outrun the float walk's exact range
	}{
		{"unbiased", Config{K: 5, Eps: 0.1, Rescale: 1}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{"biased", Config{K: 5, Eps: 0.1, Rescale: 1, BiasedEstimator: true}, []uint64{3, 8}},
		{"no-virtual-sites", Config{K: 5, Eps: 0.1, Rescale: 1, DisableVirtualSites: true}, []uint64{3, 8}},
	}
	for _, row := range rows {
		for _, seed := range row.seeds {
			k := row.cfg.K
			c := NewCoordinator(row.cfg)
			rng := stats.New(seed)
			reported := make([]int64, k)
			var (
				step int
				site int
				m    proto.Message
			)
			where := func() string { return fmt.Sprintf("%s seed %d step %d (%T)", row.name, seed, step, m) }
			next := func() {
				site = rng.Intn(k)
				switch r := rng.Intn(100); {
				case r < 45:
					m = CounterMsg{Item: int64(rng.Intn(40)), Count: int64(1 + rng.Intn(100))}
				case r < 85:
					m = SampleMsg{Item: int64(rng.Intn(40))}
				case r < 93 && !row.cfg.DisableVirtualSites:
					m = ResetMsg{}
				case r < 93:
					m = CounterMsg{Item: int64(rng.Intn(40)), Count: int64(1 + rng.Intn(100))}
				default:
					reported[site] = 2*reported[site] + 1 + int64(rng.Intn(50))
					m = rounds.UpMsg{N: reported[site]}
				}
			}
			exactChecks := 0
			for step = 0; step < 3000; step++ {
				next()
				c.Receive(site, m, nil, func(proto.Message) {})
				if got, want := c.SpaceWords(), walkWords(c); got != want {
					t.Fatalf("%s: SpaceWords = %d, full walk says %d", where(), got, want)
				}
				exactChecks += checkIndex(t, c, items, where)
				if step%500 == 499 {
					checkRestored(t, c, items, where)
				}
			}
			if c.Round() == 0 {
				t.Fatalf("%s seed %d: the sequence never changed round", row.name, seed)
			}
			if exactChecks < 2000*len(items) {
				t.Fatalf("%s seed %d: only %d checks ran against the float walk", row.name, seed, exactChecks)
			}

			restored := checkRestored(t, c, items, where)
			for ; step < 3300; step++ {
				next()
				c.Receive(site, m, nil, func(proto.Message) {})
				restored.Receive(site, m, nil, func(proto.Message) {})
				checkIndex(t, restored, items, where)
				for _, item := range items {
					if got, want := restored.Estimate(item), c.Estimate(item); got != want {
						t.Fatalf("%s: restored Estimate(%d) = %v, original %v", where(), item, got, want)
					}
				}
			}
		}
	}
}

func TestEstimateIndexMatchesWalkOnRealProtocol(t *testing.T) {
	// The real protocol at k=16 through several rounds: eight hot items, a
	// long tail, and a hot site that forces virtual-site splits. On a real
	// stream every term is an integer and Σ|terms| ≪ 2^53, so the index must
	// equal the float walk — the production Estimate it replaced — for every
	// item seen so far, under both estimators.
	const k, n = 16, 60000
	for _, biased := range []bool{false, true} {
		cfg := Config{K: k, Eps: 0.05, Rescale: 1, BiasedEstimator: biased}
		p, coord := NewProtocol(cfg, 61)
		h := sim.New(p)
		rng := stats.New(67)
		tail := workload.ZipfItems(5000, 1.05, rng)
		seen := map[int64]bool{}
		items := []int64{-1} // never observed
		for i := 0; i < n; i++ {
			item := 100 + tail(i)
			if i%2 == 0 {
				item = int64(i / 2 % 8)
			}
			if !seen[item] {
				seen[item] = true
				items = append(items, item)
			}
			site := i % k
			if i%3 == 0 {
				site = 0
			}
			h.Arrive(site, item, 0)
			if i%4000 == 3999 || i == n-1 {
				where := func() string { return fmt.Sprintf("biased=%v arrival %d", biased, i+1) }
				if got := checkIndex(t, coord, items, where); got != len(items) {
					t.Fatalf("%s: float walk exact for %d of %d items", where(), got, len(items))
				}
			}
		}
		if coord.Round() < 3 {
			t.Fatalf("biased=%v: only %d rounds", biased, coord.Round())
		}
		resets := 0
		for _, r := range coord.rnds {
			resets += len(r.all) - k
		}
		if resets == 0 {
			t.Fatalf("biased=%v: no virtual-site split occurred", biased)
		}
		checkRestored(t, coord, items, func() string { return fmt.Sprintf("biased=%v end", biased) })
	}
}

// walkDet is the pair of walks DetCoordinator.Estimate and SpaceWords
// performed before the per-item sum and the ledger.
func walkDet(c *DetCoordinator, j int64) (est float64, words int) {
	var sum int64
	words = c.rc.SpaceWords()
	for _, site := range c.slots {
		words += 3 * len(site)
		for _, r := range site {
			if r.Item == j {
				sum += r.Count
			}
		}
	}
	return float64(sum), words
}

func TestDetCoordinatorSumMatchesWalkUnderRandomReports(t *testing.T) {
	// Random slot reports over few slots and few items, so that slots are
	// overwritten with a higher count, relabelled to another item, and the
	// same item sits in several sites at once; zero-count reports exercise
	// the delete-at-zero path. Estimate and SpaceWords are held to their
	// walks after every message.
	const k, slots, nItems = 4, 6, 9
	for seed := uint64(1); seed <= 8; seed++ {
		c := NewDetCoordinator(k)
		rng := stats.New(seed)
		reported := make([]int64, k)
		for step := 0; step < 2000; step++ {
			site := rng.Intn(k)
			var m proto.Message
			if rng.Intn(100) < 95 {
				m = NewDetReport(rng.Intn(slots), int64(rng.Intn(nItems)), int64(rng.Intn(50)))
			} else {
				reported[site] = 2*reported[site] + 1
				m = rounds.UpMsg{N: reported[site]}
			}
			c.Receive(site, m, nil, func(proto.Message) {})
			for item := int64(0); item <= nItems; item++ { // nItems itself is never reported
				est, words := walkDet(c, item)
				if got := c.Estimate(item); got != est {
					t.Fatalf("seed %d step %d: Estimate(%d) = %v, walk says %v", seed, step, item, got, est)
				}
				if got := c.SpaceWords(); got != words {
					t.Fatalf("seed %d step %d: SpaceWords = %d, walk says %d", seed, step, got, words)
				}
			}
		}
		for item, s := range c.sum {
			if s == 0 {
				t.Fatalf("seed %d: sum keeps a zero entry for item %d", seed, item)
			}
		}
	}
}

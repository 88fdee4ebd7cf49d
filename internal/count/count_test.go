package count

import (
	"math"
	"testing"

	"disttrack/internal/runtime"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

func runRandomized(t *testing.T, cfg Config, seed uint64, events []workload.Event,
	check func(arrived int64, est float64)) runtime.Metrics {
	t.Helper()
	p, coord := NewProtocol(cfg, seed)
	h := sim.New(p)
	h.Run(events, func(arrived int64) {
		if check != nil {
			check(arrived, coord.Estimate())
		}
	})
	return h.Metrics()
}

func TestExactWhilePIsOne(t *testing.T) {
	// While n̄ <= √k/ε the protocol reports every arrival, so the estimate
	// is exact... up to the n̄-tracking lag: with p = 1 every n_i is fully
	// reported, hence the estimate equals n exactly.
	cfg := Config{K: 4, Eps: 0.1, Rescale: 1} // √k/ε = 20
	events := workload.Config{N: 18, Placement: workload.RoundRobin(4)}.Events()
	runRandomized(t, cfg, 1, events, func(arrived int64, est float64) {
		if est != float64(arrived) {
			t.Fatalf("p=1 phase: estimate %v at n=%d", est, arrived)
		}
	})
}

func TestEndToEndUnbiased(t *testing.T) {
	// At a fixed time instant (chosen independently of the randomness), the
	// estimate is unbiased across independent runs — including runs whose p
	// halved several times, exercising the adjustment procedure.
	cfg := Config{K: 9, Eps: 0.1, Rescale: 1}
	const n = 20000
	events := workload.Config{N: n, Placement: workload.RoundRobin(9)}.Events()
	const trials = 250
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		p, coord := NewProtocol(cfg, uint64(5000+tr))
		h := sim.New(p)
		h.Run(events, nil)
		ests[tr] = coord.Estimate()
	}
	mean := stats.Mean(ests)
	sd := stats.StdDev(ests)
	se := sd / math.Sqrt(trials)
	if math.Abs(mean-n) > 5*se+1 {
		t.Fatalf("estimate mean %v, want %d (se %v, sd %v)", mean, n, se, sd)
	}
	// Variance sanity: sd should be on the order of eps*n or below.
	if sd > cfg.Eps*n {
		t.Fatalf("std-dev %v exceeds eps*n = %v", sd, cfg.Eps*n)
	}
}

func TestCoverageAtAllInstants(t *testing.T) {
	// With the default rescale (3), at least ~90% of time instants must have
	// |n̂ - n| <= eps*n. We check every arrival on several workloads.
	const k = 16
	const eps = 0.1
	const n = 40000
	rng := stats.New(2001)
	placements := map[string]workload.Placement{
		"roundrobin": workload.RoundRobin(k),
		"single":     workload.SingleSite(3),
		"uniform":    workload.UniformPlacement(k, rng),
	}
	for name, pl := range placements {
		events := workload.Config{N: n, Placement: pl}.Events()
		bad := 0
		runRandomized(t, Config{K: k, Eps: eps}, 42, events, func(arrived int64, est float64) {
			if stats.RelErr(est, float64(arrived)) > eps {
				bad++
			}
		})
		frac := float64(bad) / float64(n)
		if frac > 0.10 {
			t.Errorf("%s: %.1f%% of instants outside eps-band (budget 10%%)", name, 100*frac)
		}
	}
}

func TestAdjustmentPreservesDistribution(t *testing.T) {
	// Statistical check of the "as if it had always been running with the
	// new p" claim: immediately after a round boundary that halved p, the
	// gap n_i - n̄_i must be distributed like a Geometric(p_new) truncated at
	// n_i. We compare its mean against 1/p - 1 within tolerance.
	cfg := Config{K: 4, Eps: 0.02, Rescale: 1}
	const trials = 400
	var gaps []float64
	var pSeen float64
	for tr := 0; tr < trials; tr++ {
		p, coord := NewProtocol(cfg, uint64(9000+tr))
		h := sim.New(p)
		// Feed one site only, long enough for several halvings.
		const n = 6000
		for i := 0; i < n; i++ {
			h.Arrive(0, 0, 0)
		}
		site := p.Sites[0].(*Site)
		if site.P() >= 1 {
			t.Fatal("p never decreased; test not exercising adjustment")
		}
		pSeen = site.P()
		// The coordinator estimate implies n̄_0; recover the gap.
		est := coord.Estimate()
		nBar := est + 1 - 1/site.P() // n̄_0 (0-case: est = 0)
		if est == 0 {
			nBar = 0
		}
		gaps = append(gaps, float64(n)-nBar)
	}
	mean := stats.Mean(gaps)
	want := 1/pSeen - 1 // E[geometric failures] at the final p
	// Generous tolerance: mixture across trials with slightly different
	// final p is possible, plus sampling noise.
	if math.Abs(mean-want) > 0.25*want+3 {
		t.Fatalf("post-adjustment gap mean %v, want ~%v (p=%v)", mean, want, pSeen)
	}
}

func TestCommunicationScalesAsSqrtK(t *testing.T) {
	// Messages(randomized) should grow ~√k while Messages(deterministic)
	// grows ~k (for fixed eps, N). Verify the ratio between k=4 and k=64
	// is much closer to √16=4... i.e. rand(64)/rand(4) << det(64)/det(4).
	const eps = 0.05
	const n = 60000
	msgs := func(k int) (randomized, deterministic float64) {
		events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()
		p, _ := NewProtocol(Config{K: k, Eps: eps}, 7)
		h := sim.New(p)
		h.Run(events, nil)
		randomized = float64(h.Metrics().Messages())

		dp, _ := NewDetProtocol(k, eps)
		dh := sim.New(dp)
		dh.Run(events, nil)
		deterministic = float64(dh.Metrics().Messages())
		return
	}
	r4, d4 := msgs(4)
	r64, d64 := msgs(64)
	randGrowth := r64 / r4
	detGrowth := d64 / d4
	// √(64/4) = 4; allow up to 8 for the randomized growth (the k·logN
	// additive term inflates it at small n), while deterministic growth
	// should be near 16.
	if randGrowth > 8 {
		t.Errorf("randomized growth %v too steep for √k scaling", randGrowth)
	}
	if detGrowth < 8 {
		t.Errorf("deterministic growth %v too shallow for k scaling", detGrowth)
	}
	if randGrowth >= detGrowth {
		t.Errorf("randomized (%v) should grow slower than deterministic (%v)", randGrowth, detGrowth)
	}
}

func TestCommunicationScalesWithLogN(t *testing.T) {
	const k = 16
	const eps = 0.1
	msgsAt := func(n int) float64 {
		events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()
		p, _ := NewProtocol(Config{K: k, Eps: eps}, 11)
		h := sim.New(p)
		h.Run(events, nil)
		return float64(h.Metrics().Messages())
	}
	m1 := msgsAt(20000)
	m2 := msgsAt(160000) // 8x the data
	// logN scaling: cost grows by an additive ~3 rounds' worth, i.e. far
	// less than 8x. Allow 2.5x.
	if m2/m1 > 2.5 {
		t.Fatalf("messages grew %vx over an 8x stream; not logarithmic", m2/m1)
	}
}

func TestDeterministicAlwaysWithinEps(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 30000
	p, coord := NewDetProtocol(k, eps)
	h := sim.New(p)
	events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()
	h.Run(events, func(arrived int64) {
		if stats.RelErr(coord.Estimate(), float64(arrived)) > eps {
			t.Fatalf("deterministic error %v > eps at n=%d",
				stats.RelErr(coord.Estimate(), float64(arrived)), arrived)
		}
	})
}

func TestDeterministicMessageBound(t *testing.T) {
	// Each site sends at most log_{1+eps}(n_i) + 2 messages.
	const k = 4
	const eps = 0.1
	const n = 40000
	p, _ := NewDetProtocol(k, eps)
	h := sim.New(p)
	h.Run(workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events(), nil)
	m := h.Metrics()
	perSite := float64(n) / k
	bound := float64(k) * (math.Log(perSite)/math.Log(1+eps) + 2)
	if float64(m.MessagesUp) > bound {
		t.Fatalf("deterministic sent %d messages, bound %v", m.MessagesUp, bound)
	}
	if m.MessagesDown != 0 {
		t.Fatal("deterministic tracker must be one-way")
	}
}

func TestRandomizedBeatsDeterministicAtLargeK(t *testing.T) {
	// Same ε in both bounds (the comparison Table 1 makes: Θ(k/ε·logN)
	// vs Θ(√k/ε·logN)); Rescale=1 keeps the constants comparable.
	const eps = 0.02
	const k = 64
	const n = 100000
	events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()

	p, _ := NewProtocol(Config{K: k, Eps: eps, Rescale: 1}, 13)
	h := sim.New(p)
	h.Run(events, nil)
	randMsgs := h.Metrics().Messages()

	dp, _ := NewDetProtocol(k, eps)
	dh := sim.New(dp)
	dh.Run(events, nil)
	detMsgs := dh.Metrics().Messages()

	if randMsgs >= detMsgs {
		t.Fatalf("randomized (%d msgs) did not beat deterministic (%d msgs)", randMsgs, detMsgs)
	}
}

func TestSiteSpaceConstant(t *testing.T) {
	cfg := Config{K: 8, Eps: 0.05}
	p, _ := NewProtocol(cfg, 17)
	h := sim.New(p)
	h.SpaceProbeEvery = 100
	h.Run(workload.Config{N: 50000, Placement: workload.RoundRobin(8)}.Events(), nil)
	if sp := h.Metrics().MaxSiteSpace; sp > 10 {
		t.Fatalf("site space %d words; must be O(1)", sp)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, Eps: 0.1},
		{K: 4, Eps: 0},
		{K: 4, Eps: 1},
		{K: 4, Eps: 0.1, Rescale: -1},
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

func TestProtocolMessagesHaveUnitWords(t *testing.T) {
	if (UpdateMsg{}).Words() != 1 || (AdjustMsg{}).Words() != 1 || (DetReportMsg{}).Words() != 1 {
		t.Fatal("count messages must cost one word each")
	}
}

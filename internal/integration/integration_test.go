// Package integration runs cross-module end-to-end tests: every protocol on
// every workload on both runtimes, with exact oracles, conservation
// invariants, and runtime-equivalence checks. Run with -race to exercise
// the concurrent runtime's synchronization.
package integration

import (
	"math"
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/netsim"
	"disttrack/internal/proto"
	"disttrack/internal/registry"
	"disttrack/internal/sample"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	k   = 8
	eps = 0.1
	n   = 8000
)

// instance is one protocol under test plus a probe into its estimate at a
// fixed target (for freq/rank we query a fixed target so all protocols can
// share oracle machinery).
type instance struct {
	name  string
	fam   registry.Spec
	p     proto.Protocol
	query func() float64 // current estimate for the instance's fixed target
}

// buildAll constructs a fresh instance of every family in the registry, so
// a new family inherits these suites. The rank target is the median of the
// value permutation; the freq target is item 0.
func buildAll(seed uint64) []instance {
	var out []instance
	for _, f := range registry.Families() {
		spec := f
		spec.K, spec.Eps, spec.Seed = k, eps, seed
		p, q := registry.Protocol(spec)
		inst := instance{name: string(f.Problem) + "/" + string(f.Algorithm), fam: f, p: p}
		if f.Robust {
			inst.name += "/robust"
		}
		switch f.Problem {
		case registry.Count:
			inst.query = q.Count
		case registry.Freq:
			inst.query = func() float64 { return q.Freq(0) }
		case registry.Rank:
			inst.query = func() float64 { return q.Rank(float64(n) / 2) }
		}
		out = append(out, inst)
	}
	return out
}

// oracles tracks the truth for each instance's fixed target.
type oracles struct {
	n     int64
	freq0 int64
	below int64
	rq    float64
}

func (o *oracles) observe(item int64, value float64) {
	o.n++
	if item == 0 {
		o.freq0++
	}
	if value < o.rq {
		o.below++
	}
}

func (o *oracles) truth(p registry.Problem) float64 {
	switch p {
	case registry.Count:
		return float64(o.n)
	case registry.Freq:
		return float64(o.freq0)
	default:
		return float64(o.below)
	}
}

// allowance returns the absolute error budget for an instance: εn for
// everything (count estimates are relative but n is the truth there).
func allowance(o *oracles) float64 { return 3 * eps * float64(o.n) }

func placements(rng *stats.RNG) map[string]workload.Placement {
	return map[string]workload.Placement{
		"roundrobin": workload.RoundRobin(k),
		"single":     workload.SingleSite(2),
		"uniform":    workload.UniformPlacement(k, rng),
		"zipf":       workload.ZipfPlacement(k, 1.0, rng.Split()),
	}
}

func TestAllProtocolsAllWorkloadsSequential(t *testing.T) {
	rng := stats.New(11111)
	items := workload.ZipfItems(50, 1.0, rng.Split())
	values := workload.PermValues(n, rng.Split())
	for plName, pl := range placements(rng) {
		insts := buildAll(7)
		harnesses := make([]*sim.Harness, len(insts))
		for i, inst := range insts {
			harnesses[i] = sim.New(inst.p)
		}
		o := &oracles{rq: float64(n) / 2}
		bad := make([]int, len(insts))
		checks := 0
		for i := 0; i < n; i++ {
			site, item, value := pl(i), items(i), values(i)
			o.observe(item, value)
			for hi, h := range harnesses {
				h.Arrive(site, item, value)
				_ = hi
			}
			if i%211 == 0 && i > 0 {
				checks++
				for ii, inst := range insts {
					if math.Abs(inst.query()-o.truth(inst.fam.Problem)) > allowance(o) {
						bad[ii]++
					}
				}
			}
		}
		for ii, inst := range insts {
			// Deterministic instances must never fail; randomized ones get
			// a 15% budget at the 3ε allowance.
			budget := 0
			if inst.fam.Algorithm != registry.Deterministic {
				budget = checks * 15 / 100
			}
			if bad[ii] > budget {
				t.Errorf("%s on %s: %d/%d checks failed (budget %d)",
					inst.name, plName, bad[ii], checks, budget)
			}
		}
		// Conservation: every harness saw every arrival.
		for ii, h := range harnesses {
			if h.Metrics().Arrivals != int64(n) {
				t.Fatalf("%s lost arrivals: %d", insts[ii].name, h.Metrics().Arrivals)
			}
		}
	}
}

func TestConcurrentRuntimeAgreesWithSequential(t *testing.T) {
	// The same protocol instance semantics on netsim: since per-site RNG
	// streams and arrival orders are identical, deterministic protocols
	// must produce byte-identical metrics, and randomized ones identical
	// estimates (message order within one arrival's cascade may differ,
	// but state transitions commute for our protocols' message sets).
	rng := stats.New(22222)
	values := workload.PermValues(n, rng.Split())
	items := workload.ZipfItems(50, 1.0, rng.Split())

	seqInsts := buildAll(13)
	conInsts := buildAll(13)

	seqH := make([]*sim.Harness, len(seqInsts))
	for i, inst := range seqInsts {
		seqH[i] = sim.New(inst.p)
	}
	conC := make([]*netsim.Cluster, len(conInsts))
	for i, inst := range conInsts {
		conC[i] = netsim.Start(inst.p)
	}
	defer func() {
		for _, c := range conC {
			c.Stop()
		}
	}()

	pl := workload.RoundRobin(k)
	for i := 0; i < n; i++ {
		site, item, value := pl(i), items(i), values(i)
		for _, h := range seqH {
			h.Arrive(site, item, value)
		}
		for _, c := range conC {
			c.Arrive(site, item, value)
		}
	}
	for i := range seqInsts {
		seqEst := seqInsts[i].query()
		conEst := conInsts[i].query()
		if seqEst != conEst {
			t.Errorf("%s: sequential estimate %v != concurrent %v",
				seqInsts[i].name, seqEst, conEst)
		}
		sm := seqH[i].Metrics()
		cm := conC[i].Metrics()
		if sm.MessagesUp != cm.MessagesUp || sm.WordsUp != cm.WordsUp {
			t.Errorf("%s: upward traffic differs: sim %d/%d vs netsim %d/%d",
				seqInsts[i].name, sm.MessagesUp, sm.WordsUp, cm.MessagesUp, cm.WordsUp)
		}
	}
}

func TestAdversarialHardInstanceAllTrackers(t *testing.T) {
	// The Theorem 2.4 instance is a count workload; feed it to the
	// randomized and deterministic count trackers and the sampler.
	rng := stats.New(33333)
	inst := workload.NewHardCountInstance(16, 0.1, 20000, rng)

	cp, cc := count.NewProtocol(count.Config{K: 16, Eps: 0.1}, 3)
	dp, dc := count.NewDetProtocol(16, 0.1)
	sp, sc := sample.NewProtocol(sample.Config{K: 16, Eps: 0.1}, 3)
	hs := []*sim.Harness{sim.New(cp), sim.New(dp), sim.New(sp)}
	queries := []func() float64{cc.Estimate, dc.Estimate, sc.Count}
	names := []string{"count/randomized", "count/deterministic", "sampling"}
	bad := make([]int, 3)
	checks := 0
	for i, e := range inst.Events {
		for _, h := range hs {
			h.Arrive(e.Site, e.Item, e.Value)
		}
		if i%101 == 0 && i > 0 {
			checks++
			for qi, q := range queries {
				if stats.RelErr(q(), float64(i+1)) > 0.3 {
					bad[qi]++
				}
			}
		}
	}
	for i := range names {
		if float64(bad[i]) > 0.15*float64(checks) {
			t.Errorf("%s failed %d/%d checks on the hard instance", names[i], bad[i], checks)
		}
	}
}

func TestSpaceInvariantsUnderHotSpot(t *testing.T) {
	// One site receives everything: per-site space bounds must hold for
	// every protocol (this exercises freq virtual sites and rank chunk
	// rollover simultaneously).
	rng := stats.New(44444)
	values := workload.PermValues(n, rng.Split())
	insts := buildAll(17)
	budgets := map[string]int{
		"count/randomized":    12,
		"count/deterministic": 8,
		"freq/randomized":     400,  // O(1/(ε√k)) + constants
		"freq/deterministic":  400,  // O(1/ε)
		"rank/randomized":     1200, // O(1/(ε√k)·polylog)
		"rank/deterministic":  2500, // O(1/ε·log εn)
		// The robust wrapper adds one word to the count site; the sampler's
		// site is the same O(1) machine whichever problem it answers.
		"count/randomized/robust": 12,
		"count/sampling":          4,
		"freq/sampling":           4,
		"rank/sampling":           4,
	}
	for _, inst := range insts {
		h := sim.New(inst.p)
		h.SpaceProbeEvery = 64
		items := workload.ZipfItems(50, 1.0, stats.New(55))
		for i := 0; i < n; i++ {
			h.Arrive(0, items(i), values(i))
		}
		if _, ok := budgets[inst.name]; !ok {
			t.Errorf("%s: no hot-spot space budget; a new family must state one", inst.name)
		}
		if sp := h.Metrics().MaxSiteSpace; sp > budgets[inst.name] {
			t.Errorf("%s: hot-spot site space %d exceeds budget %d",
				inst.name, sp, budgets[inst.name])
		}
	}
}

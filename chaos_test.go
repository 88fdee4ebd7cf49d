package disttrack

// The chaos suite: every tracker runs under a seeded fault plan on the
// concurrent transports and must behave exactly as the fault model
// promises — masked faults (drop/duplicate/reorder under the reliability
// sublayer) are invisible except in the ledger, kills degrade coverage
// gracefully and recover, and cross-arrival delays never wedge a query.

import (
	"math"
	"testing"
	"time"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	chaosK    = 4
	chaosN    = 3000
	chaosEps  = 0.1
	chaosSeed = 11
)

// chaosResult is everything a faulted run must reproduce (or degrade
// predictably) against the fault-free baseline.
type chaosResult struct {
	answers []float64
	metrics Metrics
	faults  FaultStats
}

// chaosTracker abstracts the three trackers for the matrix.
type chaosTracker struct {
	name string
	run  func(t *testing.T, opt Options) chaosResult
}

var chaosTrackers = []chaosTracker{
	{"count", func(t *testing.T, opt Options) chaosResult {
		tr := NewCountTracker(opt)
		defer tr.Close()
		for i := 0; i < chaosN; i++ {
			tr.Observe(i % chaosK)
		}
		return chaosResult{[]float64{tr.Estimate()}, tr.Metrics(), tr.FaultStats()}
	}},
	{"freq", func(t *testing.T, opt Options) chaosResult {
		items := workload.ZipfItems(200, 1.1, stats.New(chaosSeed^0xf00d))
		tr := NewFrequencyTracker(opt)
		defer tr.Close()
		for i := 0; i < chaosN; i++ {
			tr.Observe(i%chaosK, items(i))
		}
		return chaosResult{
			[]float64{tr.Estimate(0), tr.Estimate(1), tr.Estimate(7), tr.Estimate(199)},
			tr.Metrics(), tr.FaultStats()}
	}},
	{"rank", func(t *testing.T, opt Options) chaosResult {
		values := workload.PermValues(chaosN, stats.New(chaosSeed^0xbeef))
		tr := NewRankTracker(opt)
		defer tr.Close()
		for i := 0; i < chaosN; i++ {
			tr.Observe(i%chaosK, values(i))
		}
		return chaosResult{
			[]float64{tr.Rank(chaosN / 4), tr.Rank(chaosN / 2), tr.Quantile(0.9, 0, chaosN)},
			tr.Metrics(), tr.FaultStats()}
	}},
}

// TestChaosEquivalence pins the reliability model across the full tracker ×
// algorithm matrix on both concurrent transports: under drop, duplicate,
// and reorder faults — each recovered by the retransmission/dedup sublayer
// — final query answers and arrival accounting are identical to the
// fault-free run, while the ledger records strictly more communication and
// the fault counters prove the schedule actually fired.
func TestChaosEquivalence(t *testing.T) {
	plan := &FaultPlan{Seed: 23, Drop: 0.04, Duplicate: 0.04, Reorder: 0.15}
	for _, tracker := range chaosTrackers {
		for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
			for _, transport := range []Transport{TransportGoroutine, TransportTCP} {
				tracker, alg, transport := tracker, alg, transport
				t.Run(tracker.name+"/"+alg.String()+"/"+transport.String(), func(t *testing.T) {
					t.Parallel()
					opt := Options{K: chaosK, Epsilon: chaosEps, Algorithm: alg,
						Seed: chaosSeed, Transport: transport}
					clean := tracker.run(t, opt)
					opt.FaultPlan = plan
					faulted := tracker.run(t, opt)

					for i := range clean.answers {
						if clean.answers[i] != faulted.answers[i] {
							t.Errorf("answer %d: fault-free %v, under masked faults %v",
								i, clean.answers[i], faulted.answers[i])
						}
					}
					if clean.metrics.Arrivals != faulted.metrics.Arrivals {
						t.Errorf("arrivals: fault-free %d, faulted %d",
							clean.metrics.Arrivals, faulted.metrics.Arrivals)
					}
					if faulted.metrics.LiveSites != chaosK {
						t.Errorf("LiveSites = %d, want %d (no kills in this plan)",
							faulted.metrics.LiveSites, chaosK)
					}
					f := faulted.faults
					if f.Dropped == 0 || f.Duplicated == 0 || f.Reordered == 0 {
						t.Fatalf("fault schedule fired nothing: %+v", f)
					}
					if faulted.metrics.Messages <= clean.metrics.Messages ||
						faulted.metrics.Words <= clean.metrics.Words {
						t.Errorf("recovery traffic not charged: messages %d vs %d, words %d vs %d",
							faulted.metrics.Messages, clean.metrics.Messages,
							faulted.metrics.Words, clean.metrics.Words)
					}
				})
			}
		}
	}
}

// TestChaosRobustEquivalence pins the robust mode's fault transparency:
// masked drop/duplicate/reorder faults under the reliability sublayer must
// leave the robust tracker's released answers bit-identical to a fault-free
// run on both concurrent transports. The stream runs deep enough that the
// sampling probability drops below 1, so the round-boundary
// re-randomization traffic (the defense's extra AdjustMsg frames) also
// rides through the fault layer.
func TestChaosRobustEquivalence(t *testing.T) {
	const robustN = 16000
	plan := &FaultPlan{Seed: 23, Drop: 0.04, Duplicate: 0.04, Reorder: 0.15}
	run := func(opt Options) chaosResult {
		tr := NewCountTracker(opt)
		defer tr.Close()
		var res chaosResult
		for i := 0; i < robustN; i++ {
			tr.Observe(i % chaosK)
			if (i+1)%2000 == 0 {
				res.answers = append(res.answers, tr.Estimate())
			}
		}
		res.answers = append(res.answers, tr.Estimate())
		res.metrics, res.faults = tr.Metrics(), tr.FaultStats()
		return res
	}
	for _, transport := range []Transport{TransportGoroutine, TransportTCP} {
		transport := transport
		t.Run(transport.String(), func(t *testing.T) {
			t.Parallel()
			opt := Options{K: chaosK, Epsilon: chaosEps, Seed: chaosSeed,
				Robust: true, Transport: transport}
			clean := run(opt)
			opt.FaultPlan = plan
			faulted := run(opt)

			for i := range clean.answers {
				if clean.answers[i] != faulted.answers[i] {
					t.Errorf("answer %d: fault-free %v, under masked faults %v",
						i, clean.answers[i], faulted.answers[i])
				}
			}
			if clean.metrics.Arrivals != faulted.metrics.Arrivals {
				t.Errorf("arrivals: fault-free %d, faulted %d",
					clean.metrics.Arrivals, faulted.metrics.Arrivals)
			}
			f := faulted.faults
			if f.Dropped == 0 || f.Duplicated == 0 || f.Reordered == 0 {
				t.Fatalf("fault schedule fired nothing: %+v", f)
			}
			if faulted.metrics.Messages <= clean.metrics.Messages {
				t.Errorf("recovery traffic not charged: messages %d vs %d",
					faulted.metrics.Messages, clean.metrics.Messages)
			}
		})
	}
}

// TestChaosRobustAttackKillRejoin runs the adaptive adversary against the
// robust tracker while a site is killed and later rejoins: the attack and
// the partition compound, and after the heal the trapped traffic drains and
// the final released answer must still land within ε of the true count.
func TestChaosRobustAttackKillRejoin(t *testing.T) {
	for _, strategy := range []AttackStrategy{AttackBoundaryCamp, AttackThresholdLearn} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			t.Parallel()
			opt := Options{K: chaosK, Epsilon: chaosEps, Seed: chaosSeed,
				Robust: true, Transport: TransportGoroutine,
				FaultPlan: &FaultPlan{Seed: 5,
					Kills: []SiteKill{{Site: 2, At: chaosN / 4, RejoinAt: chaosN / 2}}}}
			out := RunAttack(opt, strategy, chaosN, 77)
			if out.Errs[1] > 1 {
				t.Errorf("final error %.3f·ε·n after heal, want within ε despite attack + kill/rejoin",
					out.Errs[1])
			}
			if out.Checks == 0 {
				t.Fatal("attack run made no checkpoints")
			}
		})
	}
}

// TestChaosKillRejoin pins the facade-level partition lifecycle: a killed
// site drops out of Metrics.LiveSites and its traffic is trapped; after
// the scheduled rejoin the queries recover the ε guarantee over the full
// stream.
func TestChaosKillRejoin(t *testing.T) {
	opt := Options{K: chaosK, Epsilon: chaosEps, Seed: chaosSeed, Transport: TransportGoroutine,
		FaultPlan: &FaultPlan{Seed: 5, Kills: []SiteKill{{Site: 2, At: chaosN / 4, RejoinAt: chaosN / 2}}}}
	tr := NewCountTracker(opt)
	defer tr.Close()
	for i := 0; i < chaosN; i++ {
		tr.Observe(i % chaosK)
		if i == chaosN/3 {
			m := tr.Metrics()
			if m.LiveSites != chaosK-1 {
				t.Errorf("LiveSites during the kill window = %d, want %d", m.LiveSites, chaosK-1)
			}
			// The query must answer (degraded partial coverage), not hang.
			if est := tr.Estimate(); est <= 0 {
				t.Errorf("estimate during partition = %g, want > 0 (live sites still covered)", est)
			}
		}
	}
	m := tr.Metrics()
	if m.LiveSites != chaosK {
		t.Errorf("LiveSites after rejoin = %d, want %d", m.LiveSites, chaosK)
	}
	if tr.FaultStats().Partitioned == 0 {
		t.Error("no traffic was trapped behind the partition")
	}
	if err := math.Abs(tr.Estimate()-chaosN) / chaosN; err > chaosEps {
		t.Errorf("estimate after recovery = %.0f (rel err %.3f), want within ε = %g of %d",
			tr.Estimate(), err, chaosEps, chaosN)
	}
}

// TestChaosDelaySoak pins liveness and graceful degradation under
// cross-arrival delays on every tracker: mid-run queries settle the
// deliverable backlog instead of wedging, and the final answers — after
// everything has drained — recover the ε guarantee.
func TestChaosDelaySoak(t *testing.T) {
	plan := &FaultPlan{Seed: 7, Delay: 0.3, DelayArrivals: 32, Drop: 0.02, Duplicate: 0.02}
	t.Run("count", func(t *testing.T) {
		t.Parallel()
		tr := NewCountTracker(Options{K: chaosK, Epsilon: chaosEps, Seed: chaosSeed,
			Transport: TransportGoroutine, FaultPlan: plan})
		defer tr.Close()
		for i := 0; i < chaosN; i++ {
			tr.Observe(i % chaosK)
			if (i+1)%500 == 0 {
				tr.Estimate() // must settle and answer, never hang
			}
		}
		if err := math.Abs(tr.Estimate()-chaosN) / chaosN; err > chaosEps {
			t.Errorf("final estimate %.0f (rel err %.3f), want within ε after the backlog drains", tr.Estimate(), err)
		}
		if tr.FaultStats().Delayed == 0 {
			t.Error("nothing was delayed")
		}
	})
	t.Run("rank", func(t *testing.T) {
		t.Parallel()
		values := workload.PermValues(chaosN, stats.New(chaosSeed^0xbeef))
		var below float64
		tr := NewRankTracker(Options{K: chaosK, Epsilon: chaosEps, Seed: chaosSeed,
			Transport: TransportTCP, FaultPlan: plan})
		defer tr.Close()
		for i := 0; i < chaosN; i++ {
			v := values(i)
			if v < chaosN/2 {
				below++
			}
			tr.Observe(i%chaosK, v)
			if (i+1)%500 == 0 {
				tr.Rank(chaosN / 2)
			}
		}
		if err := math.Abs(tr.Rank(chaosN/2)-below) / chaosN; err > chaosEps {
			t.Errorf("final rank error %.3f·n, want within ε after the backlog drains", err)
		}
	})
}

// TestQueryAfterCloseWithHeldFrames is the regression test for a deadlock
// the code review caught: Close with frames still parked in the fault
// layer (a long delay, a never-healed partition) must leave queries
// usable — "queries remain valid after Close" — not re-inject the held
// frames into a transport nothing drains any more and hang the settle
// forever.
func TestQueryAfterCloseWithHeldFrames(t *testing.T) {
	tr := NewCountTracker(Options{K: 2, Epsilon: 0.1, Seed: 3, Transport: TransportGoroutine,
		FaultPlan: &FaultPlan{Seed: 1, Delay: 0.9, DelayArrivals: 1 << 40, MaxHeld: 1 << 20}})
	for i := 0; i < 200; i++ {
		tr.Observe(i % 2)
	}
	tr.Close()
	done := make(chan float64, 1)
	go func() { done <- tr.Estimate() }()
	select {
	case <-done: // the held residue stays held; the query reads state as of Close
	case <-time.After(5 * time.Second):
		t.Fatal("Estimate after Close hung on fault-layer residue")
	}
	tr.Metrics() // same path through Quiesce
}

// TestFaultPlanValidation pins the facade's rejection of meaningless
// plans: the sequential transport has no message layer to perturb, and
// malformed windows must fail loudly at construction.
func TestFaultPlanValidation(t *testing.T) {
	mustPanic := func(name string, opt Options) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewCountTracker accepted an invalid fault plan", name)
			}
		}()
		NewCountTracker(opt)
	}
	mustPanic("sequential transport", Options{K: 2, Epsilon: 0.1, FaultPlan: &FaultPlan{Drop: 0.1}})
	mustPanic("drop=1", Options{K: 2, Epsilon: 0.1, Transport: TransportGoroutine,
		FaultPlan: &FaultPlan{Drop: 1}})
	mustPanic("kill site out of range", Options{K: 2, Epsilon: 0.1, Transport: TransportGoroutine,
		FaultPlan: &FaultPlan{Kills: []SiteKill{{Site: 5, At: 10}}}})
	mustPanic("inverted kill window", Options{K: 2, Epsilon: 0.1, Transport: TransportGoroutine,
		FaultPlan: &FaultPlan{Kills: []SiteKill{{Site: 0, At: 10, RejoinAt: 5}}}})
}

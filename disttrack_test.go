package disttrack

import (
	"math"
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

func TestCountTrackerAllAlgorithms(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 30000
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
		tr := NewCountTracker(Options{K: k, Epsilon: eps, Algorithm: alg, Seed: 1})
		bad := 0
		for i := 0; i < n; i++ {
			tr.Observe(i % k)
			if i%37 == 0 {
				if stats.RelErr(tr.Estimate(), float64(i+1)) > 2*eps {
					bad++
				}
			}
		}
		if frac := float64(bad) / float64(n/37); frac > 0.1 {
			t.Errorf("%v: %.1f%% of checks failed", alg, 100*frac)
		}
		m := tr.Metrics()
		if m.Arrivals != n || m.Messages == 0 || m.Words == 0 {
			t.Errorf("%v: bad metrics %+v", alg, m)
		}
		tr.Close()
	}
}

func TestFrequencyTrackerAllAlgorithms(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 20000
	rng := stats.New(11)
	items := workload.ZipfItems(100, 1.1, rng)
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
		tr := NewFrequencyTracker(Options{K: k, Epsilon: eps, Algorithm: alg, Seed: 2})
		truth := map[int64]int64{}
		bad, checks := 0, 0
		for i := 0; i < n; i++ {
			j := items(i)
			truth[j]++
			tr.Observe(i%k, j)
			if i%103 == 0 && i > 0 {
				for _, q := range []int64{0, 1, 10, 99} {
					checks++
					if math.Abs(tr.Estimate(q)-float64(truth[q])) > 2*eps*float64(i+1) {
						bad++
					}
				}
			}
		}
		if frac := float64(bad) / float64(checks); frac > 0.1 {
			t.Errorf("%v: %.1f%% of frequency checks failed", alg, 100*frac)
		}
		tr.Close()
	}
}

func TestRankTrackerAllAlgorithms(t *testing.T) {
	const k = 8
	const eps = 0.1
	const n = 20000
	values := workload.PermValues(n, stats.New(13))
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
		tr := NewRankTracker(Options{K: k, Epsilon: eps, Algorithm: alg, Seed: 3})
		var seen []float64
		bad, checks := 0, 0
		for i := 0; i < n; i++ {
			v := values(i)
			seen = append(seen, v)
			tr.Observe(i%k, v)
			if i%211 == 0 && i > 0 {
				q := float64(n) / 2
				var truth float64
				for _, sv := range seen {
					if sv < q {
						truth++
					}
				}
				checks++
				if math.Abs(tr.Rank(q)-truth) > 2*eps*float64(i+1) {
					bad++
				}
			}
		}
		if frac := float64(bad) / float64(checks); frac > 0.1 {
			t.Errorf("%v: %.1f%% of rank checks failed", alg, 100*frac)
		}
		// Quantile round trip.
		med := tr.Quantile(0.5, 0, n)
		if math.Abs(med-float64(n)/2) > 3*eps*n {
			t.Errorf("%v: median %v far from %v", alg, med, n/2)
		}
		tr.Close()
	}
}

func TestMedianBoostedCountTracker(t *testing.T) {
	const k = 4
	const eps = 0.15
	const n = 10000
	tr := NewCountTracker(Options{K: k, Epsilon: eps, Copies: 7, Seed: 5})
	for i := 0; i < n; i++ {
		tr.Observe(i % k)
		if stats.RelErr(tr.Estimate(), float64(i+1)) > eps {
			t.Fatalf("boosted tracker out of band at %d", i+1)
		}
	}
}

// TestMedianBoostedFrequencyAndRankTrackers pins that Options.Copies is
// honored by the frequency and rank trackers too (via boost.Wrap), not just
// CountTracker as the Options doc used to claim: the boosted run stays in
// the ε band at every checkpoint, and the extra copies actually run —
// communication scales with the copy count.
func TestMedianBoostedFrequencyAndRankTrackers(t *testing.T) {
	const k = 4
	const eps = 0.15
	const n = 10000
	const copies = 5

	freqRun := func(copies int) (*FrequencyTracker, Metrics) {
		zipf := workload.ZipfItems(50, 1.2, stats.New(13))
		truth := map[int64]int64{}
		tr := NewFrequencyTracker(Options{K: k, Epsilon: eps, Copies: copies, Seed: 17})
		for i := 0; i < n; i++ {
			j := zipf(i)
			truth[j]++
			tr.Observe(i%k, j)
			if copies > 1 && i%59 == 0 && i > 0 {
				if math.Abs(tr.Estimate(0)-float64(truth[0])) > eps*float64(i+1) {
					t.Fatalf("boosted frequency tracker out of band at %d", i+1)
				}
			}
		}
		return tr, tr.Metrics()
	}
	_, boosted := freqRun(copies)
	_, single := freqRun(1)
	if boosted.Messages < 2*single.Messages {
		t.Errorf("freq: %d copies sent %d messages vs %d for one copy; the copies are not running",
			copies, boosted.Messages, single.Messages)
	}

	rankRun := func(copies int) (*RankTracker, Metrics) {
		values := workload.PermValues(n, stats.New(19))
		mid := float64(n) / 2
		var below float64
		tr := NewRankTracker(Options{K: k, Epsilon: eps, Copies: copies, Seed: 23})
		for i := 0; i < n; i++ {
			v := values(i)
			if v < mid {
				below++
			}
			tr.Observe(i%k, v)
			if copies > 1 && i%59 == 0 && i > 0 {
				if math.Abs(tr.Rank(mid)-below) > eps*float64(i+1) {
					t.Fatalf("boosted rank tracker out of band at %d", i+1)
				}
			}
		}
		return tr, tr.Metrics()
	}
	rt, boostedRank := rankRun(copies)
	_, singleRank := rankRun(1)
	if boostedRank.Messages < 2*singleRank.Messages {
		t.Errorf("rank: %d copies sent %d messages vs %d for one copy; the copies are not running",
			copies, boostedRank.Messages, singleRank.Messages)
	}
	// The boosted quantile path goes through the facade's bisect.
	if q := rt.Quantile(0.5, 0, n); math.Abs(q-float64(n)/2) > 2*eps*n {
		t.Errorf("boosted median %.0f too far from %.0f", q, float64(n)/2)
	}
}

func TestConcurrentRuntimeMatchesGuarantees(t *testing.T) {
	const k = 8
	const eps = 0.15
	const n = 5000
	tr := NewCountTracker(Options{K: k, Epsilon: eps, Seed: 7, Transport: TransportGoroutine})
	defer tr.Close()
	bad := 0
	for i := 0; i < n; i++ {
		tr.Observe(i % k)
		if i%17 == 0 && stats.RelErr(tr.Estimate(), float64(i+1)) > eps {
			bad++
		}
	}
	if frac := float64(bad) / float64(n/17); frac > 0.12 {
		t.Fatalf("concurrent runtime: %.1f%% checks failed", 100*frac)
	}
	m := tr.Metrics()
	if m.Arrivals != n {
		t.Fatalf("concurrent metrics arrivals = %d", m.Arrivals)
	}
}

func TestDeterministicSeedsReproduce(t *testing.T) {
	run := func() (float64, Metrics) {
		tr := NewCountTracker(Options{K: 4, Epsilon: 0.1, Seed: 42})
		for i := 0; i < 5000; i++ {
			tr.Observe(i % 4)
		}
		return tr.Estimate(), tr.Metrics()
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("same seed produced different results: %v/%v vs %v/%v", e1, m1, e2, m2)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{K: 0, Epsilon: 0.1},
		{K: 2, Epsilon: 0},
		{K: 2, Epsilon: 1},
		{K: 2, Epsilon: math.NaN()},
		{K: 2, Epsilon: 0.1, Copies: -1},
		{K: 2, Epsilon: 0.1, Rescale: -1},
		{K: 2, Epsilon: 0.1, Rescale: math.NaN()},
		{K: 2, Epsilon: 0.1, Transport: Transport(99)},
		{K: 2, Epsilon: 0.1, Transport: Transport(-1)},
		{K: 2, Epsilon: 0.1, SpaceProbeEvery: -5},
		{K: 2, Epsilon: 0.1, IngestBuffer: -1},
		{K: 2, Epsilon: 0.1, IngestPolicy: IngestPolicy(99)},
		{K: 2, Epsilon: 0.1, IngestPolicy: IngestPolicy(-1)},
	}
	for i, o := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("options %d (%+v) did not panic", i, o)
				}
			}()
			NewCountTracker(o)
		}()
	}
	// The boundary values that must stay valid.
	good := []Options{
		{K: 1, Epsilon: 0.5},
		{K: 2, Epsilon: 0.1, Rescale: 1},
		{K: 2, Epsilon: 0.1, Transport: TransportGoroutine},
		{K: 2, Epsilon: 0.1, ConcurrentIngest: true, IngestBuffer: 1, IngestPolicy: IngestDrop},
	}
	for i, o := range good {
		tr := NewCountTracker(o)
		tr.Observe(0)
		tr.Close()
		_ = i
	}
}

func TestTransportString(t *testing.T) {
	if TransportSequential.String() != "sequential" ||
		TransportGoroutine.String() != "goroutine" ||
		TransportTCP.String() != "tcp" ||
		Transport(99).String() != "unknown" {
		t.Fatal("Transport.String broken")
	}
}

// TestConcurrentTransportReportsSpace pins the satellite fix: the
// concurrent transports populate the space high-water marks via
// quiesce-time probes instead of silently leaving them zero.
func TestConcurrentTransportReportsSpace(t *testing.T) {
	for _, tr := range []Transport{TransportGoroutine, TransportTCP} {
		c := NewCountTracker(Options{K: 4, Epsilon: 0.1, Seed: 3, Transport: tr})
		for i := 0; i < 2000; i++ {
			c.Observe(i % 4)
		}
		m := c.Metrics()
		if m.MaxSiteSpace == 0 || m.MaxCoordSpace == 0 {
			t.Errorf("%v: space marks missing: %+v", tr, m)
		}
		c.Close()
	}
}

func TestObserveSiteRangeChecked(t *testing.T) {
	tr := NewCountTracker(Options{K: 2, Epsilon: 0.1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range site did not panic")
		}
	}()
	tr.Observe(2)
}

func TestAlgorithmString(t *testing.T) {
	if AlgorithmRandomized.String() != "randomized" ||
		AlgorithmDeterministic.String() != "deterministic" ||
		AlgorithmSampling.String() != "sampling" ||
		Algorithm(99).String() != "unknown" {
		t.Fatal("Algorithm.String broken")
	}
}

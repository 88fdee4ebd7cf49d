package disttrack

// Tests for the concurrent multi-producer ingestion frontend
// (Options.ConcurrentIngest): the equivalence property — a concurrent run
// over a fixed workload keeps the serial run's ε guarantees and
// per-element communication profile — plus backpressure accounting and the
// quiesced-query contract. CI runs this file under -race.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	ingestK         = 16
	ingestEps       = 0.1
	ingestN         = 40000
	ingestProducers = 8
)

// feedStriped spawns producers goroutines; producer p feeds the elements
// with index ≡ p (mod producers), preserving each site's arrival subsequence
// (placement(i) = i mod k, so every producer owns whole sites).
func feedStriped(producers, n int, observe func(i int)) {
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += producers {
				observe(i)
			}
		}(p)
	}
	wg.Wait()
}

// costProfile returns messages per arrival, the per-element communication
// cost the paper's protocols promise independent of who feeds them.
func costProfile(t *testing.T, m Metrics) float64 {
	t.Helper()
	if m.Arrivals == 0 {
		t.Fatal("no arrivals recorded")
	}
	return float64(m.Messages) / float64(m.Arrivals)
}

// sameProfile asserts the concurrent run's per-element message cost is
// within a small constant factor of the serial run's: the interleaving
// across sites differs, but the protocol's communication scaling must not.
func sameProfile(t *testing.T, label string, serial, concurrent float64) {
	t.Helper()
	if concurrent > 3*serial || serial > 3*concurrent {
		t.Errorf("%s: messages/arrival diverged: serial %.4f vs concurrent %.4f",
			label, serial, concurrent)
	}
}

// TestConcurrentIngestCountEquivalence is the tentpole property test for
// the count tracker: 8 producers over a fixed workload produce estimates
// inside the ε band with the serial run's communication profile, with
// nothing lost. The producers' interleaving makes each concurrent estimate
// a random draw even at a fixed seed, so the ε band is checked across
// seeds against the δ failure budget (as in guarantee_test.go); what holds
// on every run — nothing lost or dropped, the serial run's message profile
// — is checked per seed. Runs under -race in CI.
func TestConcurrentIngestCountEquivalence(t *testing.T) {
	const seeds = 8
	outside := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		serial := NewCountTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: seed})
		for i := 0; i < ingestN; i++ {
			serial.Observe(i % ingestK)
		}
		sm := serial.Metrics()
		if stats.RelErr(serial.Estimate(), ingestN) > ingestEps {
			outside++
		}
		serial.Close()

		conc := NewCountTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: seed, ConcurrentIngest: true})
		feedStriped(ingestProducers, ingestN, func(i int) { conc.Observe(i % ingestK) })
		conc.Flush()
		cm := conc.Metrics()
		if cm.Arrivals != ingestN {
			t.Errorf("seed %d: concurrent run ingested %d of %d arrivals", seed, cm.Arrivals, ingestN)
		}
		if cm.Dropped != 0 {
			t.Errorf("seed %d: Block policy dropped %d elements", seed, cm.Dropped)
		}
		if stats.RelErr(conc.Estimate(), ingestN) > ingestEps {
			outside++
		}
		sameProfile(t, fmt.Sprintf("count seed %d", seed), costProfile(t, sm), costProfile(t, cm))
		conc.Close()
	}
	if budget := failBudget(2*seeds, 0.1); outside > budget {
		t.Errorf("%d of %d estimates outside the ε band around %d (budget %d)",
			outside, 2*seeds, ingestN, budget)
	}
}

// TestConcurrentIngestFreqEquivalence pins the same property for the
// frequency tracker, including the hot-item coalescing path.
func TestConcurrentIngestFreqEquivalence(t *testing.T) {
	// ZipfItems draws statefully; materialize the stream once so producers
	// can read it concurrently and both runs see the same workload.
	zipf := workload.ZipfItems(200, 1.1, stats.New(21))
	items := make([]int64, ingestN)
	truth := map[int64]int64{}
	for i := range items {
		items[i] = zipf(i)
		truth[items[i]]++
	}

	run := func(concurrent bool) (*FrequencyTracker, Metrics) {
		tr := NewFrequencyTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: 6,
			ConcurrentIngest: concurrent})
		if concurrent {
			feedStriped(ingestProducers, ingestN, func(i int) { tr.Observe(i%ingestK, items[i]) })
			tr.Flush()
		} else {
			for i := 0; i < ingestN; i++ {
				tr.Observe(i%ingestK, items[i])
			}
		}
		return tr, tr.Metrics()
	}
	serial, sm := run(false)
	defer serial.Close()
	conc, cm := run(true)
	defer conc.Close()

	if cm.Arrivals != ingestN || cm.Dropped != 0 {
		t.Errorf("concurrent run: arrivals %d dropped %d, want %d and 0", cm.Arrivals, cm.Dropped, ingestN)
	}
	for _, q := range []int64{0, 1, 5, 50} {
		want := float64(truth[q])
		if got := conc.Estimate(q); math.Abs(got-want) > ingestEps*ingestN {
			t.Errorf("item %d: concurrent estimate %.0f, truth %.0f (band ±%.0f)",
				q, got, want, ingestEps*ingestN)
		}
	}
	sameProfile(t, "freq", costProfile(t, sm), costProfile(t, cm))
}

// TestConcurrentIngestRankEquivalence pins the property for the rank
// tracker: concurrent ingestion keeps rank and quantile queries inside the
// ε band with the serial communication profile.
func TestConcurrentIngestRankEquivalence(t *testing.T) {
	const n = ingestN / 2
	values := workload.PermValues(n, stats.New(31))
	mid := float64(n) / 2
	var below float64
	for i := 0; i < n; i++ {
		if values(i) < mid {
			below++
		}
	}

	run := func(concurrent bool) (*RankTracker, Metrics) {
		tr := NewRankTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: 7,
			ConcurrentIngest: concurrent})
		if concurrent {
			feedStriped(ingestProducers, n, func(i int) { tr.Observe(i%ingestK, values(i)) })
			tr.Flush()
		} else {
			for i := 0; i < n; i++ {
				tr.Observe(i%ingestK, values(i))
			}
		}
		return tr, tr.Metrics()
	}
	serial, sm := run(false)
	defer serial.Close()
	conc, cm := run(true)
	defer conc.Close()

	if cm.Arrivals != n || cm.Dropped != 0 {
		t.Errorf("concurrent run: arrivals %d dropped %d, want %d and 0", cm.Arrivals, cm.Dropped, n)
	}
	if got := conc.Rank(mid); math.Abs(got-below) > 2*ingestEps*float64(n) {
		t.Errorf("concurrent Rank(mid) = %.0f, truth %.0f (band ±%.0f)", got, below, 2*ingestEps*float64(n))
	}
	if q := conc.Quantile(0.5, 0, float64(n)); math.Abs(q-mid) > 2*ingestEps*float64(n) {
		t.Errorf("concurrent median %.0f too far from %.0f", q, mid)
	}
	sameProfile(t, "rank", costProfile(t, sm), costProfile(t, cm))
}

// TestConcurrentIngestAllTransports runs the concurrent frontend over every
// transport: the frontend sits above the runtime seam, so each fabric keeps
// its single-feeder contract while the public API accepts many producers.
func TestConcurrentIngestAllTransports(t *testing.T) {
	const n = 6000
	for _, tr := range []Transport{TransportSequential, TransportGoroutine, TransportTCP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			ct := NewCountTracker(Options{K: 4, Epsilon: ingestEps, Seed: 8,
				Transport: tr, ConcurrentIngest: true})
			defer ct.Close()
			// Query while producers stream: on the concurrent fabrics this
			// exercises the quiesced-snapshot read of protocol state that
			// lives on other goroutines (race detector coverage).
			queried := make(chan struct{})
			go func() {
				defer close(queried)
				for q := 0; q < 25; q++ {
					if est := ct.Estimate(); est < 0 || est > 1.5*float64(n) {
						t.Errorf("mid-load estimate %.0f implausible", est)
					}
				}
			}()
			feedStriped(4, n, func(i int) { ct.Observe(i % 4) })
			<-queried
			ct.Flush()
			if m := ct.Metrics(); m.Arrivals != n {
				t.Errorf("arrivals = %d, want %d", m.Arrivals, n)
			}
			if got := ct.Estimate(); stats.RelErr(got, n) > ingestEps {
				t.Errorf("estimate %.0f outside the ε band around %d", got, n)
			}
		})
	}
}

// TestConcurrentIngestQueriesDuringLoad hammers queries while producers are
// streaming: every answer must come from a quiescent snapshot, so estimates
// stay inside the ε band of SOME prefix of the stream (between what had
// quiesced and what was staged), and -race must stay silent.
func TestConcurrentIngestQueriesDuringLoad(t *testing.T) {
	const n = 20000
	tr := NewCountTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: 9, ConcurrentIngest: true})
	defer tr.Close()
	var wg sync.WaitGroup
	for p := 0; p < ingestProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += ingestProducers {
				tr.Observe(i % ingestK)
			}
		}(p)
	}
	for q := 0; q < 100; q++ {
		est := tr.Estimate()
		// The per-instant guarantee allows ~10% of instants outside ±ε, so
		// only a grossly impossible answer (negative, or far beyond the
		// whole stream) indicates a torn snapshot.
		if est < 0 || est > 1.5*float64(n) {
			t.Errorf("mid-load estimate %.0f outside any plausible prefix of %d", est, n)
		}
		_ = tr.Metrics()
	}
	wg.Wait()
	tr.Flush()
	if got := tr.Estimate(); stats.RelErr(got, n) > ingestEps {
		t.Errorf("final estimate %.0f outside the ε band around %d", got, n)
	}
}

// TestConcurrentMetricsDuringIngest is the regression test for the
// query-path race fixed in the serving PR: Metrics() readers run flat out
// against live producers on a persisting tracker, so the Snapshots counter
// (previously a plain int64 in the WAL logger, torn under -race) and the
// message/word counters are read while the owning loop is mid-snapshot.
// Monotonicity of Arrivals and Snapshots across reads pins that every read
// sees a coherent quiescent instant, and -race must stay silent.
func TestConcurrentMetricsDuringIngest(t *testing.T) {
	const n = 20000
	tr := NewCountTracker(Options{K: ingestK, Epsilon: ingestEps, Seed: 12,
		ConcurrentIngest: true, Persist: NewMemStore(), SnapshotEvery: 3})
	defer tr.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastArrivals, lastSnapshots int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := tr.Metrics()
				if m.Arrivals < lastArrivals {
					t.Errorf("Arrivals went backwards: %d then %d", lastArrivals, m.Arrivals)
				}
				if m.Snapshots < lastSnapshots {
					t.Errorf("Snapshots went backwards: %d then %d", lastSnapshots, m.Snapshots)
				}
				lastArrivals, lastSnapshots = m.Arrivals, m.Snapshots
				if est := tr.Estimate(); est < 0 || est > 1.5*n {
					t.Errorf("mid-load estimate %.0f implausible", est)
				}
			}
		}()
	}
	feedStriped(ingestProducers, n, func(i int) { tr.Observe(i % ingestK) })
	close(stop)
	readers.Wait()

	tr.Flush()
	m := tr.Metrics()
	if m.Arrivals != n {
		t.Errorf("arrivals = %d, want %d", m.Arrivals, n)
	}
	if m.Snapshots == 0 {
		t.Error("persisting tracker recorded no snapshots")
	}
	if got := tr.Estimate(); stats.RelErr(got, n) > ingestEps {
		t.Errorf("final estimate %.0f outside the ε band around %d", got, n)
	}
}

// TestConcurrentIngestDropPolicy pins the IngestDrop accounting at the
// facade: with the drainer provably stalled (a query holds the feed mutex
// open for the duration of the observes), a tiny buffer must shed load, and
// Arrivals + Dropped equals exactly what was offered.
func TestConcurrentIngestDropPolicy(t *testing.T) {
	const offered = 500
	tr := NewFrequencyTracker(Options{K: 2, Epsilon: ingestEps, Seed: 10,
		ConcurrentIngest: true, IngestBuffer: 4, IngestPolicy: IngestDrop})
	defer tr.Close()
	held := make(chan struct{})
	release := make(chan struct{})
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		tr.fe.Query(func() {
			close(held)
			<-release
		})
	}()
	<-held
	// Distinct items defeat coalescing; the staging buffer holds 4 runs and
	// the stalled drainer at most one taken sweep, so drops are certain.
	for i := 0; i < offered; i++ {
		tr.Observe(0, int64(i))
	}
	close(release)
	<-queryDone
	tr.Flush()
	m := tr.Metrics()
	if m.Dropped == 0 {
		t.Error("no drops despite a full buffer and a stalled drainer")
	}
	if m.Arrivals+m.Dropped != offered {
		t.Errorf("arrivals %d + dropped %d = %d, want %d",
			m.Arrivals, m.Dropped, m.Arrivals+m.Dropped, offered)
	}
}

// TestEmptyTrackerQueries pins query behavior before the first observation
// for all three trackers × three algorithms: counts, frequencies, and ranks
// are 0, and Quantile — which has no value of any rank to return — is NaN.
func TestEmptyTrackerQueries(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
		opt := Options{K: 4, Epsilon: 0.1, Algorithm: alg, Seed: 1}
		ct := NewCountTracker(opt)
		if got := ct.Estimate(); got != 0 {
			t.Errorf("%v: empty count estimate = %v, want 0", alg, got)
		}
		ct.Close()
		ft := NewFrequencyTracker(opt)
		if got := ft.Estimate(42); got != 0 {
			t.Errorf("%v: empty frequency estimate = %v, want 0", alg, got)
		}
		ft.Close()
		rt := NewRankTracker(opt)
		if got := rt.Rank(123); got != 0 {
			t.Errorf("%v: empty rank = %v, want 0", alg, got)
		}
		if got := rt.Quantile(0.5, 0, 1000); !math.IsNaN(got) {
			t.Errorf("%v: empty Quantile = %v, want NaN", alg, got)
		}
		rt.Close()
	}
	// Boosted randomized trackers go through the facade's bisect; pin the
	// NaN contract there too.
	rt := NewRankTracker(Options{K: 4, Epsilon: 0.1, Seed: 1, Copies: 3})
	if got := rt.Quantile(0.25, 0, 1000); !math.IsNaN(got) {
		t.Errorf("boosted: empty Quantile = %v, want NaN", got)
	}
	rt.Close()
}

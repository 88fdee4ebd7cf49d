package disttrack

import (
	"math"
	"testing"
)

// The batch-ingestion fast path must be indistinguishable from
// element-at-a-time ingestion: sites skip-sample the gap to their next
// message and the runtime splits batches at every message and probe
// boundary, so protocol state, estimates, and the exact Metrics ledger all
// match. These tests feed the same block-structured stream (runs of
// identical (site, item, value) triples, the batch path's natural shape)
// through Observe and ObserveBatch and require identical results for every
// tracker × algorithm combination.

const (
	eqK     = 8
	eqBlock = 64
	eqN     = 32000 // multiple of eqBlock so both paths see the same stream
)

// eqAlgorithms lists every flavor the equivalence suite covers.
var eqAlgorithms = []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling}

func eqOptions(alg Algorithm) Options {
	return Options{K: eqK, Epsilon: 0.05, Algorithm: alg, Seed: 12345}
}

// blockSite returns the site receiving arrival i under block placement.
func blockSite(i int) int { return (i / eqBlock) % eqK }

// blockItem returns the item id of arrival i (runs of eqBlock equal items).
func blockItem(i int) int64 { return int64(i / (2 * eqBlock) % 97) }

// blockValue returns the value of arrival i (runs of eqBlock equal values).
func blockValue(i int) float64 { return float64(i/eqBlock) * 1.25 }

func requireSameMetrics(t *testing.T, seq, bat Metrics) {
	t.Helper()
	if seq != bat {
		t.Fatalf("metrics diverged:\n sequential %+v\n batched    %+v", seq, bat)
	}
}

func requireClose(t *testing.T, what string, a, b float64) {
	t.Helper()
	// Coordinator estimates sum over Go maps, so the float association
	// order can differ between two runs; allow only rounding noise.
	if diff := math.Abs(a - b); diff > 1e-6*(1+math.Abs(a)) {
		t.Fatalf("%s diverged: sequential %v, batched %v", what, a, b)
	}
}

func TestCountBatchEquivalence(t *testing.T) {
	for _, alg := range eqAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			seq := NewCountTracker(eqOptions(alg))
			for i := 0; i < eqN; i++ {
				seq.Observe(blockSite(i))
			}
			bat := NewCountTracker(eqOptions(alg))
			for i := 0; i < eqN; i += eqBlock {
				bat.ObserveBatch(blockSite(i), eqBlock)
			}
			requireClose(t, "estimate", seq.Estimate(), bat.Estimate())
			requireSameMetrics(t, seq.Metrics(), bat.Metrics())
		})
	}
}

func TestCountBatchEquivalenceBoosted(t *testing.T) {
	opt := eqOptions(AlgorithmRandomized)
	opt.Copies = 3
	seq := NewCountTracker(opt)
	for i := 0; i < eqN; i++ {
		seq.Observe(blockSite(i))
	}
	bat := NewCountTracker(opt)
	for i := 0; i < eqN; i += eqBlock {
		bat.ObserveBatch(blockSite(i), eqBlock)
	}
	requireClose(t, "estimate", seq.Estimate(), bat.Estimate())
	requireSameMetrics(t, seq.Metrics(), bat.Metrics())
}

func TestFrequencyBatchEquivalence(t *testing.T) {
	for _, alg := range eqAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			seq := NewFrequencyTracker(eqOptions(alg))
			for i := 0; i < eqN; i++ {
				seq.Observe(blockSite(i), blockItem(i))
			}
			bat := NewFrequencyTracker(eqOptions(alg))
			for i := 0; i < eqN; i += eqBlock {
				bat.ObserveBatch(blockSite(i), blockItem(i), eqBlock)
			}
			for item := int64(0); item < 97; item += 13 {
				requireClose(t, "estimate", seq.Estimate(item), bat.Estimate(item))
			}
			requireSameMetrics(t, seq.Metrics(), bat.Metrics())
		})
	}
}

func TestRankBatchEquivalence(t *testing.T) {
	for _, alg := range eqAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			seq := NewRankTracker(eqOptions(alg))
			for i := 0; i < eqN; i++ {
				seq.Observe(blockSite(i), blockValue(i))
			}
			bat := NewRankTracker(eqOptions(alg))
			for i := 0; i < eqN; i += eqBlock {
				bat.ObserveBatch(blockSite(i), blockValue(i), eqBlock)
			}
			for _, q := range []float64{10, 100, 250, 400} {
				requireClose(t, "rank", seq.Rank(q), bat.Rank(q))
			}
			requireSameMetrics(t, seq.Metrics(), bat.Metrics())
		})
	}
}

// TestBatchEquivalenceConcurrent drives the goroutine-per-site runtime's
// batch path and checks it against the sequential simulator: both host the
// same deterministic state machines under the instant-communication model,
// so message and word counts must agree exactly.
func TestBatchEquivalenceConcurrent(t *testing.T) {
	opt := eqOptions(AlgorithmRandomized)
	ref := NewCountTracker(opt)
	for i := 0; i < eqN; i += eqBlock {
		ref.ObserveBatch(blockSite(i), eqBlock)
	}
	opt.Transport = TransportGoroutine
	conc := NewCountTracker(opt)
	defer conc.Close()
	for i := 0; i < eqN; i += eqBlock {
		conc.ObserveBatch(blockSite(i), eqBlock)
	}
	requireClose(t, "estimate", ref.Estimate(), conc.Estimate())
	rm, cm := ref.Metrics(), conc.Metrics()
	if rm.Messages != cm.Messages || rm.Words != cm.Words || rm.Arrivals != cm.Arrivals {
		t.Fatalf("concurrent batch diverged: sim %+v, netsim %+v", rm, cm)
	}
}

// TestRankBatchEquivalenceConcurrent drives the rank trackers' batch path
// on the goroutine-per-site runtime against the sequential simulator, for
// both the randomized tracker (pooled merge summaries) and the
// deterministic baseline (pooled GK snapshots crossing goroutines between
// sites and coordinator); run under -race this also proves the pools'
// hand-off is properly synchronized.
func TestRankBatchEquivalenceConcurrent(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic} {
		t.Run(alg.String(), func(t *testing.T) {
			opt := eqOptions(alg)
			ref := NewRankTracker(opt)
			for i := 0; i < eqN; i += eqBlock {
				ref.ObserveBatch(blockSite(i), blockValue(i), eqBlock)
			}
			opt.Transport = TransportGoroutine
			conc := NewRankTracker(opt)
			defer conc.Close()
			for i := 0; i < eqN; i += eqBlock {
				conc.ObserveBatch(blockSite(i), blockValue(i), eqBlock)
			}
			for _, q := range []float64{10, 100, 250, 400} {
				requireClose(t, "rank", ref.Rank(q), conc.Rank(q))
			}
			rm, cm := ref.Metrics(), conc.Metrics()
			if rm.Messages != cm.Messages || rm.Words != cm.Words || rm.Arrivals != cm.Arrivals {
				t.Fatalf("concurrent rank batch diverged: sim %+v, netsim %+v", rm, cm)
			}
		})
	}
}

// TestObserveBatchMatchesLoopTail exercises ragged batch sizes (not aligned
// with probe boundaries or block structure) against single Observes.
func TestObserveBatchMatchesLoopTail(t *testing.T) {
	opt := eqOptions(AlgorithmRandomized)
	seq := NewCountTracker(opt)
	bat := NewCountTracker(opt)
	sizes := []int{1, 7, 1023, 1, 5000, 129, 0, 3}
	site := 0
	for _, sz := range sizes {
		for j := 0; j < sz; j++ {
			seq.Observe(site)
		}
		bat.ObserveBatch(site, sz)
		site = (site + 3) % eqK
	}
	requireClose(t, "estimate", seq.Estimate(), bat.Estimate())
	requireSameMetrics(t, seq.Metrics(), bat.Metrics())
}

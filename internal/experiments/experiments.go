// Package experiments contains the drivers that regenerate the paper's
// evaluation artifacts — Table 1's rows and scaling shapes, the lower-bound
// experiments behind Figure 1 and Theorems 2.2-2.4, and the estimator and
// adjustment ablations (the experiment index E1–E14 is documented in the
// root README.md). The cmd/table1, cmd/lowerbounds and cmd/experiments
// binaries and the root bench harness all call into this package so every
// number is produced by exactly one code path.
package experiments

import (
	"fmt"
	"math"

	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/lowerbound"
	"disttrack/internal/registry"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// Problem identifies a tracking problem.
type Problem = registry.Problem

// Alg identifies an algorithm family.
type Alg = registry.Algorithm

// Enumerations for RunRow.
const (
	Count = registry.Count
	Freq  = registry.Freq
	Rank  = registry.Rank

	Randomized    = registry.Randomized
	Deterministic = registry.Deterministic
	Sampling      = registry.Sampling
)

// RowConfig parameterizes one protocol run.
type RowConfig struct {
	Problem Problem
	Alg     Alg
	K       int
	Eps     float64
	N       int
	Seed    uint64
	// Rescale is passed to randomized protocols (0 = paper default 3).
	// Table 1 comparisons use 1 so both families run at the same nominal ε.
	Rescale float64
}

// RowResult is the measured cost and accuracy of one run.
type RowResult struct {
	RowConfig
	Messages  int64
	Words     int64
	SiteSpace int // high-water per-site space in words
	Checks    int // number of accuracy checkpoints
	Bad       int // checkpoints outside the ε-band
	BadFrac   float64
}

// Run executes one row: the protocol on the standard workload for its
// problem (round-robin placement; Zipf(1.1) items for freq; a random value
// permutation for rank), checking accuracy at ~200 evenly spaced instants.
func Run(rc RowConfig) RowResult {
	return runRow(rc, 0)
}

// RunBatched executes one row on the block-structured variant of its
// workload — sites take turns receiving `block` consecutive arrivals, and
// (for count and freq) each block carries a single item — ingested through
// the runtimes' batch fast path, with the same ~200 accuracy checkpoints.
// It measures the batch path at experiment scale: protocol costs follow the
// same paper bounds (placement does not enter them), while wall-clock is
// proportional to messages instead of stream length.
func RunBatched(rc RowConfig, block int) RowResult {
	if block <= 0 {
		panic("experiments: RunBatched with non-positive block")
	}
	return runRow(rc, block)
}

func runRow(rc RowConfig, block int) RowResult {
	checkEvery := rc.N / 200
	if checkEvery < 1 {
		checkEvery = 1
	}
	res := RowResult{RowConfig: rc}

	// Protocol panics on an unknown problem or algorithm.
	p, q := registry.Protocol(registry.Spec{Problem: rc.Problem, Algorithm: rc.Alg,
		K: rc.K, Eps: rc.Eps, Rescale: rc.Rescale, Seed: rc.Seed})

	// Two independent copies of the input generators (same seed): one
	// feeds the harness, one replays ground truth inside the checks.
	feedItem, feedValue := rowInputs(rc, block)
	checkItem, checkValue := rowInputs(rc, block)
	var check func(arrived int64) float64 // returns |err| allowance-normalized
	switch rc.Problem {
	case Count:
		check = checkCount(rc, q.Count)
	case Freq:
		check = checkFreq(rc, q.Freq, checkItem)
	case Rank:
		check = checkRank(rc, q.Rank, checkValue)
	}

	h := sim.New(p)
	h.SpaceProbeEvery = 256
	if block > 0 {
		placement := workload.BlockPlacement(rc.K, block)
		for i := 0; i < rc.N; {
			// A run ends at the block boundary, the next checkpoint, or
			// the end of the stream, whichever comes first; rank values
			// vary per arrival, so rank runs are single elements.
			end := (i/block + 1) * block
			if c := (i/checkEvery + 1) * checkEvery; c < end {
				end = c
			}
			if end > rc.N {
				end = rc.N
			}
			site := placement(i)
			for i < end {
				j := end
				if rc.Problem == Rank {
					j = i + 1
				}
				h.ArriveBatch(site, feedItem(i), feedValue(i), int64(j-i))
				i = j
			}
			if i%checkEvery == 0 {
				res.Checks++
				if check(int64(i)) > 1 {
					res.Bad++
				}
			}
		}
	} else {
		placement := workload.RoundRobin(rc.K)
		for i := 0; i < rc.N; i++ {
			h.Arrive(placement(i), feedItem(i), feedValue(i))
			if (i+1)%checkEvery == 0 {
				res.Checks++
				if check(int64(i+1)) > 1 {
					res.Bad++
				}
			}
		}
	}
	h.Probe()
	m := h.Metrics()
	res.Messages = m.Messages()
	res.Words = m.Words()
	res.SiteSpace = m.MaxSiteSpace
	if res.Checks > 0 {
		res.BadFrac = float64(res.Bad) / float64(res.Checks)
	}
	return res
}

// rowInputs returns the item and value generators for a config. They are
// deterministic in the seed so that all algorithms see identical streams.
// With block > 0 the generators are reshaped for batching: freq draws one
// Zipf item per block (a hot flow per gateway turn) and the value channel,
// which count and freq ignore, is held constant so runs coalesce; rank
// keeps its distinct permutation values. Generators may be stateful, so
// callers must invoke them with non-decreasing indices.
func rowInputs(rc RowConfig, block int) (workload.ItemFunc, workload.ValueFunc) {
	switch rc.Problem {
	case Freq:
		items := workload.ZipfItems(1000, 1.1, stats.New(rc.Seed+77))
		if block > 0 {
			items = perBlock(items, block)
			return items, func(int) float64 { return 0 }
		}
		return items, workload.SortedValues()
	case Rank:
		return workload.SameItem(0), workload.PermValues(rc.N, stats.New(rc.Seed+78))
	default:
		if block > 0 {
			return workload.SameItem(0), func(int) float64 { return 0 }
		}
		return workload.SameItem(0), workload.SortedValues()
	}
}

// perBlock derives an ItemFunc drawing one item from f per block of
// consecutive indices, repeating it within the block. The wrapped generator
// is consulted once per block in index order, so stateful generators stay
// aligned between the feed and check copies.
func perBlock(f workload.ItemFunc, block int) workload.ItemFunc {
	curBlock := -1
	var curItem int64
	return func(i int) int64 {
		if b := i / block; b != curBlock {
			curBlock = b
			curItem = f(i)
		}
		return curItem
	}
}

func checkCount(rc RowConfig, estimate func() float64) func(int64) float64 {
	return func(n int64) float64 {
		return stats.RelErr(estimate(), float64(n)) / rc.Eps
	}
}

// checkFreq tracks the exact frequency of the hottest item (id 0 under Zipf).
func checkFreq(rc RowConfig, estimate func(int64) float64, items workload.ItemFunc) func(int64) float64 {
	var truth int64
	idx := 0
	return func(n int64) float64 {
		for ; int64(idx) < n; idx++ {
			if items(idx) == 0 {
				truth++
			}
		}
		return math.Abs(estimate(0)-float64(truth)) / (rc.Eps * float64(n))
	}
}

// checkRank tracks the exact rank of the stream's median value.
func checkRank(rc RowConfig, rankOf func(float64) float64, values workload.ValueFunc) func(int64) float64 {
	q := float64(rc.N) / 2
	var below int64
	idx := 0
	return func(n int64) float64 {
		for ; int64(idx) < n; idx++ {
			if values(idx) < q {
				below++
			}
		}
		return math.Abs(rankOf(q)-float64(below)) / (rc.Eps * float64(n))
	}
}

// AnalyticWords returns the paper's asymptotic communication formula
// (without constants) for a row, used to print predicted vs measured shapes.
func AnalyticWords(rc RowConfig) float64 {
	k := float64(rc.K)
	logN := math.Log2(float64(rc.N) + 2)
	switch {
	case rc.Problem == Count && rc.Alg == Deterministic:
		return k / rc.Eps * logN
	case rc.Problem == Count && rc.Alg == Randomized:
		return math.Sqrt(k) / rc.Eps * logN
	case rc.Problem == Freq && rc.Alg == Deterministic:
		return k / rc.Eps * logN
	case rc.Problem == Freq && rc.Alg == Randomized:
		return math.Sqrt(k) / rc.Eps * logN
	case rc.Problem == Rank && rc.Alg == Deterministic:
		return k / (rc.Eps * rc.Eps) * logN // the [6] baseline we implement
	case rc.Problem == Rank && rc.Alg == Randomized:
		l := math.Log2(1/(rc.Eps*math.Sqrt(k))) + 1
		if l < 1 {
			l = 1
		}
		return math.Sqrt(k) / rc.Eps * logN * math.Pow(l, 1.5)
	case rc.Alg == Sampling:
		return (1/(rc.Eps*rc.Eps) + k) * logN
	}
	return 0
}

// AnalyticSpace returns the paper's per-site space formula for a row.
func AnalyticSpace(rc RowConfig) float64 {
	k := float64(rc.K)
	switch {
	case rc.Problem == Count:
		return 1
	case rc.Problem == Freq && rc.Alg == Deterministic:
		return 1 / rc.Eps
	case rc.Problem == Freq && rc.Alg == Randomized:
		return 1 / (rc.Eps * math.Sqrt(k))
	case rc.Problem == Rank && rc.Alg == Deterministic:
		return 1 / rc.Eps * math.Log2(rc.Eps*float64(rc.N)+2)
	case rc.Problem == Rank && rc.Alg == Randomized:
		l := math.Log2(1/(rc.Eps*math.Sqrt(k))) + 1
		if l < 1 {
			l = 1
		}
		return 1 / (rc.Eps * math.Sqrt(k)) * math.Sqrt(l)
	case rc.Alg == Sampling:
		return 1
	}
	return 0
}

// Describe renders a row config compactly.
func (rc RowConfig) Describe() string {
	return fmt.Sprintf("%s/%s k=%d eps=%g n=%d", rc.Problem, rc.Alg, rc.K, rc.Eps, rc.N)
}

// MuSummary aggregates CompareUnderMu over several seeds.
type MuSummary struct {
	Draws          int
	SingleBranches int
	AvgDetMsgs     float64
	AvgRandMsgs    float64
	// RobinDetMsgs / RobinRandMsgs average only round-robin draws, the
	// branch where Theorem 2.2's separation shows.
	RobinDetMsgs  float64
	RobinRandMsgs float64
}

// RunMu runs the Theorem 2.2 comparison over draws seeds.
func RunMu(k int, eps float64, n, draws int) MuSummary {
	var s MuSummary
	robins := 0
	for seed := 0; seed < draws; seed++ {
		r := lowerbound.CompareUnderMu(k, eps, n, uint64(seed))
		s.Draws++
		s.AvgDetMsgs += float64(r.DetMessages)
		s.AvgRandMsgs += float64(r.RandMessages)
		if r.SingleSiteBranch {
			s.SingleBranches++
		} else {
			robins++
			s.RobinDetMsgs += float64(r.DetMessages)
			s.RobinRandMsgs += float64(r.RandMessages)
		}
	}
	s.AvgDetMsgs /= float64(s.Draws)
	s.AvgRandMsgs /= float64(s.Draws)
	if robins > 0 {
		s.RobinDetMsgs /= float64(robins)
		s.RobinRandMsgs /= float64(robins)
	}
	return s
}

// BiasAblation measures the mean signed error of the frequency estimators
// (2) vs (4) for an item appearing once every `period` arrivals, averaged
// over trials runs. Returns (biasedErr, unbiasedErr).
func BiasAblation(k, n, period, trials int, eps float64) (biased, unbiased float64) {
	const item = int64(424242)
	itemOf := func(i int) int64 {
		if i%period == 0 {
			return item
		}
		return int64(i)
	}
	run := func(useBiased bool, seed uint64) float64 {
		cfg := freq.Config{K: k, Eps: eps, Rescale: 1, BiasedEstimator: useBiased}
		p, coord := freq.NewProtocol(cfg, seed)
		h := sim.New(p)
		for i := 0; i < n; i++ {
			h.Arrive(i%k, itemOf(i), 0)
		}
		return coord.Estimate(item) - float64((n+period-1)/period)
	}
	for tr := 0; tr < trials; tr++ {
		biased += run(true, uint64(8000+tr))
		unbiased += run(false, uint64(8000+tr))
	}
	return biased / float64(trials), unbiased / float64(trials)
}

// AdjustmentAblation measures the mean signed error of the count estimate
// at the instants where it matters: immediately after every round boundary
// that halved p, with and without the paper's re-randomization step.
// Without the adjustment, every site's stale n̄_i is paired with the new,
// doubled 1/p in estimator (1), inflating the estimate by roughly
// k·(1/p_new − 1/p_old) until fresh updates arrive. Errors are normalized
// by the current n and averaged over all halving instants and trials.
// Returns (withAdjustment, withoutAdjustment) mean relative errors.
func AdjustmentAblation(k, n, trials int, eps float64) (with, without float64) {
	run := func(disable bool, seed uint64) float64 {
		cfg := count.Config{K: k, Eps: eps, Rescale: 1, DisableAdjustment: disable}
		p, coord := count.NewProtocol(cfg, seed)
		h := sim.New(p)
		lastP := coord.P()
		sum, hits := 0.0, 0
		for i := 0; i < n; i++ {
			h.Arrive(i%k, 0, 0)
			if cp := coord.P(); cp < lastP {
				lastP = cp
				sum += (coord.Estimate() - float64(i+1)) / float64(i+1)
				hits++
			}
		}
		if hits == 0 {
			return 0
		}
		return sum / float64(hits)
	}
	for tr := 0; tr < trials; tr++ {
		with += run(false, uint64(9000+tr))
		without += run(true, uint64(9000+tr))
	}
	return with / float64(trials), without / float64(trials)
}

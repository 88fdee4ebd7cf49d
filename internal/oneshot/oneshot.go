// Package oneshot implements the one-shot (k-party communication) versions
// of the three problems, which Section 1.3 of the paper uses as the
// reference point for the tracking costs:
//
//   - count: trivial — every site reports its count once (k words);
//   - frequency, deterministic: each site ships a Misra–Gries summary and
//     the coordinator merges them — O(k/ε) words [20, 1];
//   - frequency, randomized: probability-proportional-to-size reporting of
//     local counts at rate p = √k/(εn) — O(√k/ε) words, the [14] bound;
//   - rank, deterministic: each site ships a GK summary — O(k/ε·log) words;
//   - rank, randomized: random-shift systematic sampling of each site's
//     sorted data at stride τ = εn/√k — O(√k/ε) words with per-site rank
//     variance τ²/4, the [13] bound.
//
// The tracking protocols must solve this problem continuously; the paper's
// observation — reproduced by experiment E13 — is that tracking costs only
// a Θ(logN) factor more than one-shot for frequencies and ranks, while
// count tracking is fundamentally harder than its (trivial) one-shot
// version.
package oneshot

import (
	"math"
	"sort"

	"disttrack/internal/stats"
	"disttrack/internal/summary/gk"
	"disttrack/internal/summary/mg"
)

// Result bundles a one-shot answer function with its communication cost in
// words (the k-party model has no broadcast subtleties: every word a site
// sends to the coordinator counts once; small per-protocol header words are
// included).
type Result struct {
	Words int64
}

// Count solves one-shot count tracking: each site reports once.
func Count(siteCounts []int64) (total int64, res Result) {
	for _, c := range siteCounts {
		total += c
	}
	res.Words = int64(len(siteCounts))
	return total, res
}

// FreqDet merges per-site Misra–Gries summaries with m = ⌈2/ε⌉ counters
// each: the merged summary answers any frequency within εn.
func FreqDet(streams [][]int64, eps float64) (estimate func(int64) int64, res Result) {
	if eps <= 0 || eps >= 1 {
		panic("oneshot: eps out of (0,1)")
	}
	m := int(2/eps) + 1
	merged := mg.New(m)
	for _, stream := range streams {
		local := mg.New(m)
		for _, j := range stream {
			local.Add(j)
		}
		res.Words += int64(local.SpaceWords()) + 1
		merged.Merge(local)
	}
	return merged.Estimate, res
}

// FreqRand implements the randomized one-shot frequency protocol: every
// site knows its exact local counts c_ij and reports (item, count) with
// probability q_ij = min(1, c_ij·p), p = √k/(εn); the coordinator estimates
// f_j = Σ_i reported c_ij / q_ij (Horvitz–Thompson, unbiased, per-site
// variance ≤ 1/p² so total (εn)²). Expected words: 2·n·p = 2√k/ε.
func FreqRand(streams [][]int64, eps float64, rng *stats.RNG) (estimate func(int64) float64, res Result) {
	if eps <= 0 || eps >= 1 {
		panic("oneshot: eps out of (0,1)")
	}
	k := len(streams)
	var n int64
	for _, s := range streams {
		n += int64(len(s))
	}
	if n == 0 {
		return func(int64) float64 { return 0 }, res
	}
	p := math.Sqrt(float64(k)) / (eps * float64(n))
	est := make(map[int64]float64)
	for _, stream := range streams {
		// Draw in first-occurrence order, not map order, so a seed fixes
		// which items are reported.
		counts := map[int64]int64{}
		var order []int64
		for _, j := range stream {
			if counts[j] == 0 {
				order = append(order, j)
			}
			counts[j]++
		}
		for _, j := range order {
			c := counts[j]
			q := float64(c) * p
			if q >= 1 {
				est[j] += float64(c)
				res.Words += 2
				continue
			}
			if rng.Bernoulli(q) {
				est[j] += float64(c) / q
				res.Words += 2
			}
		}
	}
	return func(j int64) float64 { return est[j] }, res
}

// RankDet merges per-site GK summaries at error ε/2: summed rank estimates
// are within Σ_i (ε/2)·n_i = εn/2.
func RankDet(streams [][]float64, eps float64) (rank func(float64) int64, res Result) {
	if eps <= 0 || eps >= 1 {
		panic("oneshot: eps out of (0,1)")
	}
	snaps := make([]gk.Snapshot, 0, len(streams))
	for _, stream := range streams {
		g := gk.New(eps / 2)
		for _, v := range stream {
			g.Insert(v)
		}
		sn := g.Snapshot()
		res.Words += int64(sn.Words())
		snaps = append(snaps, sn)
	}
	return func(x float64) int64 {
		var r int64
		for _, sn := range snaps {
			r += sn.Rank(x)
		}
		return r
	}, res
}

// RankRand implements the randomized one-shot quantile protocol of [13]:
// after learning n (k words up, one broadcast word per site down), every
// site sorts its local data and ships the elements at positions
// o_i, o_i+τ, o_i+2τ, … for a uniform offset o_i ∈ [0, τ) and stride
// τ = max(1, ⌊εn/√k⌋). The estimator Σ_i τ·|{shipped_i < x}| is unbiased
// with per-site variance ≤ τ²/4, so total variance ≤ k·τ²/4 ≤ (εn)²/4.
// Words: 2k (count exchange) + n/τ = 2k + √k/ε.
func RankRand(streams [][]float64, eps float64, rng *stats.RNG) (rank func(float64) float64, res Result) {
	if eps <= 0 || eps >= 1 {
		panic("oneshot: eps out of (0,1)")
	}
	k := len(streams)
	var n int64
	for _, s := range streams {
		n += int64(len(s))
	}
	res.Words += 2 * int64(k) // count collection + stride broadcast
	if n == 0 {
		return func(float64) float64 { return 0 }, res
	}
	tau := int64(eps * float64(n) / math.Sqrt(float64(k)))
	if tau < 1 {
		tau = 1
	}
	type shipped struct {
		values []float64 // sorted
	}
	sites := make([]shipped, 0, k)
	for _, stream := range streams {
		local := make([]float64, len(stream))
		copy(local, stream)
		sort.Float64s(local)
		offset := int64(rng.Intn(int(tau)))
		var sent []float64
		for pos := offset; pos < int64(len(local)); pos += tau {
			sent = append(sent, local[pos])
		}
		res.Words += int64(len(sent))
		sites = append(sites, shipped{values: sent})
	}
	return func(x float64) float64 {
		est := 0.0
		for _, s := range sites {
			c := sort.SearchFloat64s(s.values, x)
			est += float64(tau) * float64(c)
		}
		return est
	}, res
}

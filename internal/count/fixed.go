// Package count implements the count-tracking protocols of Section 2 of the
// paper: the randomized O(√k/ε·logN) algorithm (the paper's headline
// result), the deterministic Θ(k/ε·logN) baseline it improves on, and the
// seed layout of the median-boosted copies (NewMedianProtocol, multiplexed
// by internal/boost) that turn the constant-probability guarantee into 1−δ
// for all time instances.
package count

import "disttrack/internal/stats"

// FixedP is the single-site core of the randomized algorithm with a fixed
// sampling probability p (paper Section 2.1, "The algorithm with a fixed
// p"): every increment is reported with probability p, and the estimator
//
//	n̂_i = n̄_i − 1 + 1/p   (n̄_i = last reported value; 0 if none)
//
// is unbiased with variance at most 1/p² (Lemma 2.1). The type exists so
// Lemma 2.1 can be tested in isolation; the full protocol embeds the same
// logic per site.
type FixedP struct {
	p    float64
	rng  *stats.RNG
	n    int64 // true local count
	nBar int64 // last value reported (0 = never)
}

// NewFixedP returns a fixed-probability estimator core. It panics if p is
// outside (0, 1].
func NewFixedP(p float64, rng *stats.RNG) *FixedP {
	if p <= 0 || p > 1 {
		panic("count: p out of (0,1]")
	}
	return &FixedP{p: p, rng: rng}
}

// Increment records one arrival; it reports whether an update message would
// be sent, and if so the reported value.
func (f *FixedP) Increment() (send bool, value int64) {
	f.n++
	if f.rng.Bernoulli(f.p) {
		f.nBar = f.n
		return true, f.n
	}
	return false, 0
}

// Estimate returns the coordinator-side estimator n̂_i given the updates
// reported so far: n̄_i − 1 + 1/p, or 0 when no update was ever sent
// (equation (1) of the paper — the case split is what keeps the estimator
// unbiased when n_i = Θ(εn/√k)).
func (f *FixedP) Estimate() float64 {
	if f.nBar == 0 {
		return 0
	}
	return float64(f.nBar) - 1 + 1/f.p
}

// N returns the true local count (test oracle).
func (f *FixedP) N() int64 { return f.n }

// NBar returns the last reported value (0 if none).
func (f *FixedP) NBar() int64 { return f.nBar }

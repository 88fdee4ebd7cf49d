package main

import (
	"math"
	"sort"
)

// timing summarises a set of latency samples the way the guide asks: the
// median, the highest percentile that still has at least ten samples beyond
// it, and the sample count.
type timing struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

// tailLadder is the set of percentiles a tail may be reported at, in
// hundredths of a percent so that "ten beyond" is integer arithmetic.
var tailLadder = [...]int{5000, 9000, 9900, 9990, 9999}

// tailPct picks the highest ladder percentile with >= 10 of n samples
// beyond it (the median when even p90 has too few).
func tailPct(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder[1:] {
		if n*(10000-p)/10000 >= 10 {
			best = p
		}
	}
	return float64(best) / 100
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// summarize sorts samples in place and reports median and tail. capPct
// limits the tail percentile (a metric named p95 never reports p99).
func summarize(samples []float64, capPct float64) timing {
	sort.Float64s(samples)
	t := timing{N: len(samples), TailPct: math.Min(tailPct(len(samples)), capPct)}
	t.P50 = percentile(samples, 50)
	t.Tail = percentile(samples, t.TailPct)
	return t
}

// windowSamples is the length of one timing window.
const windowSamples = 1024

// tailCap is the percentile the end-to-end tail metrics report. On the
// reference box a 4 ms scheduling quantum delays 1-2 % of HTTP requests
// whatever the server does (p99.5 and p99.9 read 4.1-4.2 ms on every run),
// so p99 sits on that knee and reads 1.2 or 4 ms from one run to the next;
// p95 is the highest round percentile the quantum does not own.
const tailCap = 95

// windowed summarises samples in the order they were taken, window by
// window: each run of windowSamples consecutive samples gives its own median
// and p95, and the result is the median window's. The box the benchmark
// runs on is slowed by neighbours in bursts that last a second or so; a
// pooled tail is made of exactly those bursts, while the median window is a
// quiet one. A short tail joins the last full window; fewer samples than two
// windows are summarised as they are (TailPct says at which percentile). N
// is the total.
func windowed(samples []float64) timing {
	if len(samples) < 2*windowSamples {
		return summarize(append([]float64(nil), samples...), tailCap)
	}
	var p50s, tails []float64
	for lo := 0; lo+windowSamples <= len(samples); lo += windowSamples {
		hi := lo + windowSamples
		if len(samples)-hi < windowSamples {
			hi = len(samples)
		}
		t := summarize(append([]float64(nil), samples[lo:hi]...), tailCap)
		p50s, tails = append(p50s, t.P50), append(tails, t.Tail)
	}
	return timing{P50: median(p50s), Tail: median(tails), TailPct: tailCap, N: len(samples)}
}

// median returns the middle of xs (mean of the two middles when even)
// without disturbing the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 by the exclusive method, matching Python's
// statistics.quantiles(xs, n=4), which is what the acceptance driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// rng is the benchmark's own generator (splitmix64). Inputs must not depend
// on internal/stats: a change to the repository's RNG is a change under
// test, and it must not move the workload with it.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// normal draws a standard normal by Box-Muller.
func (r *rng) normal() float64 {
	u1 := r.float()
	for u1 == 0 {
		u1 = r.float()
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*r.float())
}

// epochSeed derives epoch e's protocol seed from the workload seed.
func epochSeed(seed uint64, e int) uint64 {
	r := rng{s: seed ^ (uint64(e)+1)*0xd1342543de82ef95}
	return r.u64()
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^alpha.
type zipf struct{ cdf []float64 }

func newZipf(n int, alpha float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// queryKind selects the tracker method a query calls.
type queryKind uint8

const (
	qCount    queryKind = iota // CountTracker.Estimate()
	qFreq                      // FrequencyTracker.Estimate(Item)
	qRank                      // RankTracker.Rank(X)
	qQuantile                  // RankTracker.Quantile(X, 0, valueHi)
)

// valueHi bounds the value domain Quantile bisects over.
const valueHi = 1e4

// query is one precomputed question: what to ask after N arrivals, and the
// exact answer. For qQuantile the truth depends on the answer (any value of
// rank X·N is right), so it is resolved by stream.errOf.
type query struct {
	Kind  queryKind
	N     int64
	Item  int64
	X     float64
	Truth float64
}

// stream is one epoch's input block and its ground truth. Every epoch of a
// run replays the same block under a different protocol seed.
type stream struct {
	prob   problem
	sites  []uint16
	items  []int64   // freq only (and traced runs, for the summary probes)
	values []float64 // rank only (ditto)
	// queries[j] is asked after chunk j; the last entry is the end-of-epoch
	// query asked after Flush.
	queries []query
	// blocks[j] is a sorted copy of chunk j's values: the rank of x among
	// the first N values is a sum of binary searches over whole blocks.
	blocks [][]float64
}

// genStream builds the workload's epoch block from the seed. allCols also
// fills the columns the workload's own problem does not need.
func genStream(sp spec, seed uint64, allCols bool) *stream {
	n := sp.EpochElems
	st := &stream{prob: sp.Problem, sites: make([]uint16, n)}
	r := newRNG(seed)
	k := sp.Opt.K
	if sp.SiteZipf > 0 {
		z := newZipf(k, sp.SiteZipf)
		for i := range st.sites {
			st.sites[i] = uint16(z.draw(r))
		}
	} else {
		for i := range st.sites {
			st.sites[i] = uint16(r.intn(k))
		}
	}
	// The first chunk of every epoch goes round the sites in order, whatever
	// the seed. What the first few hundred arrivals look like decides where
	// the protocols' round boundaries fall, and through the power-of-two
	// sampling rate that is a lottery between two cost levels about 1.65x
	// apart (35 against 22 words/kelem on tcp-count), drawn once per epoch
	// and then kept. A random start lands mostly on the dear side and
	// sometimes on the cheap one, which made words/kelem differ by 6-16 %
	// between seeds; a round-robin start lands on the cheap side every time
	// (0.1 % between seeds). Placement does not enter the ground truth.
	for i := 0; i < min(n, queryEvery); i++ {
		st.sites[i] = uint16(i % k)
	}
	if sp.Problem == probFreq || allCols {
		universe, alpha := sp.Universe, sp.ItemZipf
		if universe == 0 {
			universe, alpha = 1<<16, 1.2
		}
		z := newZipf(universe, alpha)
		st.items = make([]int64, n)
		for i := range st.items {
			st.items[i] = int64(z.draw(r))
		}
	}
	if sp.Problem == probRank || allCols {
		st.values = make([]float64, n)
		for i := range st.values {
			v := math.Exp(3 + 0.6*r.normal()) // netmon's latency shape, median ~20
			if r.intn(100) == 0 {
				v *= 10
			}
			st.values[i] = math.Min(v, valueHi)
		}
	}
	st.buildQueries(sp, r)
	return st
}

// buildQueries precomputes one query per chunk plus the final one, with
// ground truth from a single pass over the block.
func (st *stream) buildQueries(sp spec, r *rng) {
	n := len(st.sites)
	var ends []int // arrival counts at which a query is asked
	for e := queryEvery; e <= n; e += queryEvery {
		ends = append(ends, e)
	}
	ends = append(ends, n) // the flushed end-of-epoch query
	st.queries = make([]query, len(ends))

	switch st.prob {
	case probCount:
		for j, e := range ends {
			st.queries[j] = query{Kind: qCount, N: int64(e), Truth: float64(e)}
		}
	case probFreq:
		universe := sp.Universe
		counts := make([]int32, universe)
		pos := 0
		for j, e := range ends {
			for ; pos < e; pos++ {
				counts[st.items[pos]]++
			}
			// Hot and cold items alternate: a heavy hitter the summaries
			// hold, then one from the tail they mostly do not.
			item := int64(j / 2 % 8)
			if j%2 == 1 {
				item = int64(1000 + r.intn(universe-1000))
			}
			st.queries[j] = query{Kind: qFreq, N: int64(e), Item: item, Truth: float64(counts[item])}
		}
	case probRank:
		for lo := 0; lo < n; lo += queryEvery {
			hi := min(lo+queryEvery, n)
			b := append([]float64(nil), st.values[lo:hi]...)
			sort.Float64s(b)
			st.blocks = append(st.blocks, b)
		}
		phis := [...]float64{0.5, 0.9, 0.99, 0.1}
		for j, e := range ends {
			if j%2 == 0 {
				x := st.values[r.intn(e)]
				st.queries[j] = query{Kind: qRank, N: int64(e), X: x, Truth: float64(st.rankBelow(x, e))}
			} else {
				st.queries[j] = query{Kind: qQuantile, N: int64(e), X: phis[j/2%len(phis)]}
			}
		}
	}
}

// rankBelow counts the values strictly below x among the first n arrivals.
func (st *stream) rankBelow(x float64, n int) int {
	rank := 0
	for j, b := range st.blocks {
		lo := j * queryEvery
		if lo >= n {
			break
		}
		if lo+len(b) <= n {
			rank += sort.SearchFloat64s(b, x)
			continue
		}
		for _, v := range st.values[lo:n] { // partial block (a truncated final chunk)
			if v < x {
				rank++
			}
		}
	}
	return rank
}

// errOf returns |answer − truth| in elements for the query's answer.
func (st *stream) errOf(q query, answer float64) float64 {
	if q.Kind == qQuantile {
		if math.IsNaN(answer) {
			return float64(q.N)
		}
		return math.Abs(float64(st.rankBelow(answer, int(q.N))) - q.X*float64(q.N))
	}
	return math.Abs(answer - q.Truth)
}

// digest fingerprints the block and its queries (FNV-1a over 64-bit words).
func (st *stream) digest() string {
	h := uint64(14695981039346656037)
	put := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, s := range st.sites {
		put(uint64(s))
	}
	for _, it := range st.items {
		put(uint64(it))
	}
	for _, v := range st.values {
		put(math.Float64bits(v))
	}
	for _, q := range st.queries {
		put(uint64(q.Kind))
		put(uint64(q.N))
		put(uint64(q.Item))
		put(math.Float64bits(q.X))
		put(math.Float64bits(q.Truth))
	}
	return fmt.Sprintf("%016x", h)
}

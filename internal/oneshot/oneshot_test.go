package oneshot

import (
	"math"
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

// makeFreqStreams builds k streams of Zipf items plus the true counts.
func makeFreqStreams(k, n int, seed uint64) ([][]int64, map[int64]int64) {
	rng := stats.New(seed)
	itemF := workload.ZipfItems(300, 1.1, rng)
	streams := make([][]int64, k)
	truth := map[int64]int64{}
	for i := 0; i < n; i++ {
		j := itemF(i)
		truth[j]++
		streams[i%k] = append(streams[i%k], j)
	}
	return streams, truth
}

func makeRankStreams(k, n int, seed uint64) ([][]float64, []float64) {
	rng := stats.New(seed)
	valueF := workload.PermValues(n, rng)
	streams := make([][]float64, k)
	all := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := valueF(i)
		all = append(all, v)
		streams[i%k] = append(streams[i%k], v)
	}
	return streams, all
}

func trueRank(all []float64, x float64) float64 {
	r := 0.0
	for _, v := range all {
		if v < x {
			r++
		}
	}
	return r
}

func TestCount(t *testing.T) {
	total, res := Count([]int64{3, 0, 7, 5})
	if total != 15 {
		t.Fatalf("total = %d", total)
	}
	if res.Words != 4 {
		t.Fatalf("words = %d, want k=4", res.Words)
	}
}

func TestFreqDetWithinEps(t *testing.T) {
	const k, n = 8, 40000
	const eps = 0.05
	streams, truth := makeFreqStreams(k, n, 1)
	est, res := FreqDet(streams, eps)
	for j, f := range truth {
		if e := est(j); math.Abs(float64(e)-float64(f)) > eps*float64(n) {
			t.Fatalf("FreqDet item %d: est %d true %d", j, e, f)
		}
	}
	// Words should be O(k/eps).
	if res.Words > int64(8*float64(k)/eps) {
		t.Fatalf("FreqDet words %d exceed O(k/eps) budget", res.Words)
	}
}

func TestFreqRandUnbiasedAndCheap(t *testing.T) {
	const k, n = 16, 30000
	const eps = 0.05
	streams, truth := makeFreqStreams(k, n, 2)
	root := stats.New(99)
	const item = int64(3) // mid-weight item
	const trials = 300
	sum := 0.0
	var words int64
	for tr := 0; tr < trials; tr++ {
		est, res := FreqRand(streams, eps, root.Split())
		sum += est(item)
		words += res.Words
	}
	mean := sum / trials
	want := float64(truth[item])
	if math.Abs(mean-want) > 0.05*want+2 {
		t.Fatalf("FreqRand mean %v, want %v", mean, want)
	}
	// Expected words ~ 2√k/ε = 160; heavy items are always sent so allow
	// a constant factor.
	avgWords := float64(words) / trials
	if avgWords > 10*2*math.Sqrt(k)/eps {
		t.Fatalf("FreqRand avg words %v too high", avgWords)
	}
}

// TestFreqRandDeterministic pins that a seed fixes FreqRand's answer: the
// per-item Bernoulli draws must not follow map iteration order.
func TestFreqRandDeterministic(t *testing.T) {
	const k, n, distinct = 4, 20000, 2000
	const eps = 0.1 // p = √k/(εn) = 1e-3: every q = c·p < 1
	rng := stats.New(7)
	streams := make([][]int64, k)
	for i := 0; i < n; i++ {
		streams[i%k] = append(streams[i%k], int64(rng.Intn(distinct)))
	}
	est1, res1 := FreqRand(streams, eps, stats.New(21))
	est2, res2 := FreqRand(streams, eps, stats.New(21))
	if res1.Words != res2.Words {
		t.Fatalf("words %d then %d at one seed", res1.Words, res2.Words)
	}
	for j := int64(0); j < distinct; j++ {
		if a, b := est1(j), est2(j); a != b {
			t.Fatalf("item %d: estimate %v then %v at one seed", j, a, b)
		}
	}
}

func TestFreqRandCheaperThanDet(t *testing.T) {
	const k, n = 64, 60000
	const eps = 0.02
	streams, _ := makeFreqStreams(k, n, 3)
	_, det := FreqDet(streams, eps)
	_, rnd := FreqRand(streams, eps, stats.New(5))
	if rnd.Words >= det.Words {
		t.Fatalf("randomized one-shot (%d words) not cheaper than deterministic (%d)",
			rnd.Words, det.Words)
	}
}

func TestRankDetWithinEps(t *testing.T) {
	const k, n = 8, 20000
	const eps = 0.05
	streams, all := makeRankStreams(k, n, 4)
	rank, _ := RankDet(streams, eps)
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		x := q * float64(n)
		if err := math.Abs(float64(rank(x)) - trueRank(all, x)); err > eps*float64(n) {
			t.Fatalf("RankDet at %v: error %v > %v", x, err, eps*float64(n))
		}
	}
}

func TestRankRandUnbiasedWithinVariance(t *testing.T) {
	const k, n = 16, 20000
	const eps = 0.05
	streams, all := makeRankStreams(k, n, 6)
	root := stats.New(7)
	x := float64(n) * 0.4
	want := trueRank(all, x)
	const trials = 400
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		rank, _ := RankRand(streams, eps, root.Split())
		ests[tr] = rank(x)
	}
	mean := stats.Mean(ests)
	se := stats.StdDev(ests)/math.Sqrt(trials) + 1e-9
	if math.Abs(mean-want) > 5*se+1 {
		t.Fatalf("RankRand mean %v, want %v (se %v)", mean, want, se)
	}
	// σ ≤ √k·τ/2 ≤ εn/2.
	if sd := stats.StdDev(ests); sd > eps*float64(n)/2*1.2 {
		t.Fatalf("RankRand std-dev %v above bound %v", sd, eps*float64(n)/2)
	}
}

func TestRankRandWordsBound(t *testing.T) {
	const k, n = 64, 60000
	const eps = 0.02
	streams, _ := makeRankStreams(k, n, 8)
	_, res := RankRand(streams, eps, stats.New(9))
	// 2k + ~√k/ε + k (partial strides) with slack.
	budget := int64(2*k + 3*int(math.Sqrt(k)/eps))
	if res.Words > budget {
		t.Fatalf("RankRand words %d exceed budget %d", res.Words, budget)
	}
	_, det := RankDet(streams, eps)
	if res.Words >= det.Words {
		t.Fatalf("randomized one-shot rank (%d) not cheaper than deterministic (%d)",
			res.Words, det.Words)
	}
}

func TestEmptyInputs(t *testing.T) {
	if total, _ := Count(nil); total != 0 {
		t.Fatal("empty Count")
	}
	est, res := FreqRand([][]int64{{}, {}}, 0.1, stats.New(1))
	if est(5) != 0 || res.Words != 0 {
		t.Fatal("empty FreqRand")
	}
	rank, res2 := RankRand([][]float64{{}, {}}, 0.1, stats.New(1))
	if rank(5) != 0 || res2.Words != 4 {
		t.Fatalf("empty RankRand: words %d", res2.Words)
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { FreqDet(nil, 0) },
		func() { FreqRand(nil, 1, stats.New(1)) },
		func() { RankDet(nil, -1) },
		func() { RankRand(nil, 2, stats.New(1)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

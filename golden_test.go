package disttrack

// The construction golden table: every tracker family, in every assembly the
// facade offers, run on one seeded stream with its total communication and
// final answers pinned to the last bit. The values were captured on the
// commit before construction moved into internal/registry, so the table
// proves the move changed no seed → RNG-split order and therefore no
// message: a row that differs is a construction bug, never noise. Float
// answers are compared with ==.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	goldenK      = 12
	goldenEps    = 0.1
	goldenSeed   = 7
	goldenN      = 30000
	goldenFanout = 4
)

type goldenRow struct {
	words, messages int64
	answers         []float64
}

// String renders the row as the Go literal the table holds, so a new row
// can be pasted from a failure message.
func (r goldenRow) String() string {
	as := make([]string, len(r.answers))
	for i, a := range r.answers {
		as[i] = strconv.FormatFloat(a, 'g', -1, 64)
	}
	return fmt.Sprintf("{%d, %d, []float64{%s}}", r.words, r.messages, strings.Join(as, ", "))
}

// goldenRun feeds the shared stream to one tracker. With restart the
// coordinator crash-restarts from a NewMemStore halfway through.
func goldenRun(t *testing.T, problem string, opt Options, restart bool) goldenRow {
	t.Helper()
	opt.K, opt.Epsilon, opt.Seed = goldenK, goldenEps, goldenSeed
	opt.Transport = TransportSequential
	if restart {
		opt.Persist = NewMemStore()
	}
	rng := stats.New(0x601d)
	place := workload.UniformPlacement(goldenK, rng.Split())
	items := workload.ZipfItems(1000, 1.1, rng.Split())
	values := workload.PermValues(goldenN, rng.Split())

	var observe func(i int)
	var crash func() error
	var answers func() []float64
	var tr interface {
		Metrics() Metrics
		Close() error
	}
	switch problem {
	case "count":
		c := NewCountTracker(opt)
		tr, crash = c, c.CrashRestartCoordinator
		observe = func(i int) { c.Observe(place(i)) }
		answers = func() []float64 { return []float64{c.Estimate()} }
	case "freq":
		f := NewFrequencyTracker(opt)
		tr, crash = f, f.CrashRestartCoordinator
		observe = func(i int) { f.Observe(place(i), items(i)) }
		answers = func() []float64 { return []float64{f.Estimate(0), f.Estimate(1), f.Estimate(7)} }
	case "rank":
		r := NewRankTracker(opt)
		tr, crash = r, r.CrashRestartCoordinator
		observe = func(i int) { r.Observe(place(i), values(i)) }
		answers = func() []float64 {
			return []float64{r.Rank(goldenN / 4), r.Rank(goldenN / 2),
				r.Quantile(0.5, 0, goldenN), r.Quantile(0.9, 0, goldenN)}
		}
	}
	defer tr.Close()
	for i := 0; i < goldenN; i++ {
		if restart && i == goldenN/2 {
			if err := crash(); err != nil {
				t.Fatalf("crash-restart: %v", err)
			}
		}
		observe(i)
	}
	m := tr.Metrics()
	return goldenRow{words: m.Words, messages: m.Messages, answers: answers()}
}

// golden is keyed problem/algorithm/assembly; "+restart" rows crash-restart
// the coordinator mid-run. Captured before internal/registry existed; never
// edit a value. The one exception so far: the words and messages of the five
// rank/randomized rows fell when sites stopped shipping tree nodes no prefix
// decomposition reads (38859/4094, 188210/16513 and 117108/12459 before);
// their answers are the original literals.
var golden = map[string]goldenRow{
	"count/randomized/flat":            {1882, 1882, []float64{30524}},
	"count/randomized/flat+restart":    {1882, 1882, []float64{30524}},
	"count/randomized/tree":            {6461, 6461, []float64{30170}},
	"count/randomized/copies3":         {5626, 5626, []float64{29693}},
	"count/randomized/copies3+restart": {5626, 5626, []float64{29693}},
	"count/randomized/robust":          {19934, 19934, []float64{29816.34454620704}},
	"count/randomized/robust+restart":  {19934, 19934, []float64{29816.34454620704}},
	"count/deterministic/flat":         {761, 761, []float64{29968.050000000003}},
	"count/deterministic/flat+restart": {761, 761, []float64{29968.050000000003}},
	"count/deterministic/tree":         {1761, 1761, []float64{29461.87123668678}},
	"count/sampling/flat":              {2895, 1029, []float64{33024}},
	"count/sampling/flat+restart":      {2895, 1029, []float64{33024}},
	"count/sampling/tree":              {9729, 3307, []float64{27136}},
	"freq/randomized/flat":             {5001, 3492, []float64{5398, 2642, 907}},
	"freq/randomized/flat+restart":     {5001, 3492, []float64{5398, 2642, 907}},
	"freq/randomized/tree":             {18947, 12791, []float64{5687, 1766, 700}},
	"freq/randomized/copies3":          {15301, 10628, []float64{6061, 3049, 105}},
	"freq/randomized/copies3+restart":  {15301, 10628, []float64{6061, 3049, 105}},
	"freq/deterministic/flat":          {21384, 7344, []float64{5305, 2357, 454}},
	"freq/deterministic/flat+restart":  {21384, 7344, []float64{5305, 2357, 454}},
	"freq/sampling/flat":               {2895, 1029, []float64{5888, 2816, 256}},
	"freq/sampling/flat+restart":       {2895, 1029, []float64{5888, 2816, 256}},
	"freq/sampling/tree":               {9729, 3307, []float64{4352, 1536, 512}},
	"rank/randomized/flat":             {25645, 3155, []float64{7284, 15216, 15462.000004481524, 27577.000006567687}},
	"rank/randomized/flat+restart":     {25645, 3155, []float64{7284, 15216, 15462.000004481524, 27577.000006567687}},
	"rank/randomized/tree":             {114175, 11723, []float64{7503, 14524, 14641.000006813556, 26919.000002089888}},
	"rank/randomized/copies3":          {77466, 9642, []float64{7312, 14788, 15357.000001240522, 27199.00000607595}},
	"rank/randomized/copies3+restart":  {77466, 9642, []float64{7312, 14788, 15357.000001240522, 27199.00000607595}},
	"rank/deterministic/flat":          {1050515, 4931, []float64{7438, 14999, 14956.000002566725, 26950.999998953193}},
	"rank/deterministic/flat+restart":  {1050515, 4931, []float64{7438, 14999, 14956.000002566725, 26950.999998953193}},
	"rank/sampling/flat":               {2895, 1029, []float64{8704, 15616, 15462.999993469566, 26968.999996315688}},
	"rank/sampling/flat+restart":       {2895, 1029, []float64{8704, 15616, 15462.999993469566, 26968.999996315688}},
	"rank/sampling/tree":               {9729, 3307, []float64{8960, 14592, 13689.000002341345, 26605.99999828264}},
}

func TestConstructionGolden(t *testing.T) {
	tree := Options{Topology: TopologyTree, Fanout: goldenFanout}
	type variant struct {
		name string
		opt  Options
		flat bool
	}
	seen := 0
	for _, problem := range []string{"count", "freq", "rank"} {
		for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
			variants := []variant{{"flat", Options{}, true}}
			if problem == "count" || alg != AlgorithmDeterministic {
				variants = append(variants, variant{"tree", tree, false})
			}
			if alg == AlgorithmRandomized {
				variants = append(variants, variant{"copies3", Options{Copies: 3}, true})
				if problem == "count" {
					variants = append(variants, variant{"robust", Options{Robust: true}, true})
				}
			}
			for _, v := range variants {
				for _, restart := range []bool{false, true} {
					if restart && !v.flat {
						continue // in-process crash-restart is a flat-star drill
					}
					name := problem + "/" + alg.String() + "/" + v.name
					if restart {
						name += "+restart"
					}
					opt := v.opt
					opt.Algorithm = alg
					got := goldenRun(t, problem, opt, restart)
					seen++
					want, ok := golden[name]
					if !ok {
						t.Errorf("no golden row; add\n\t%q: %v,", name, got)
						continue
					}
					same := got.words == want.words && got.messages == want.messages &&
						len(got.answers) == len(want.answers)
					for i := 0; same && i < len(got.answers); i++ {
						same = got.answers[i] == want.answers[i]
					}
					if !same {
						t.Errorf("%s:\n got %v\nwant %v", name, got, want)
					}
				}
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("ran %d rows, table holds %d", seen, len(golden))
	}
}

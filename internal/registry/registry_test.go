package registry

import (
	"math"
	"strings"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	testK      = 8
	testEps    = 0.1
	testSeed   = 7
	testN      = 20000
	testFanout = 3 // 8 leaves → groups of 3, 3, 2: exercises the short last group
)

func testSpec(f Spec) Spec {
	f.K, f.Eps, f.Seed = testK, testEps, testSeed
	return f
}

func name(f Spec) string {
	n := string(f.Problem) + "/" + string(f.Algorithm)
	if f.Robust {
		n += "/robust"
	}
	return n
}

// outcome is everything a seeded run must reproduce.
type outcome struct {
	words, messages int64
	answer, relErr  float64
}

// drive feeds the shared stream to a mounted assembly and reads the
// problem's query at a fixed probe against the exact truth. Everything is
// seeded, so the ε checks below are pinned outcomes, not statistical ones.
func drive(t runtime.Transport, p Problem, q Queries) outcome {
	rng := stats.New(99)
	items := workload.ZipfItems(100, 1.1, rng.Split())
	values := workload.PermValues(testN, rng.Split())
	var freq0, below float64
	for i := 0; i < testN; i++ {
		item, value := items(i), values(i)
		if item == 0 {
			freq0++
		}
		if value < testN/2 {
			below++
		}
		t.Arrive(i%testK, item, value)
	}
	t.Quiesce()
	m := t.Metrics()
	o := outcome{words: m.Words(), messages: m.Messages()}
	var truth float64
	switch p {
	case Count:
		o.answer, truth = q.Count(), testN
	case Freq:
		o.answer, truth = q.Freq(0), freq0
	case Rank:
		o.answer, truth = q.Rank(testN/2), below
	}
	o.relErr = math.Abs(o.answer-truth) / testN
	return o
}

// pieces builds a level's machines one by one — the way serve and connect
// processes do — drawing site RNGs from root in site order, which is also
// how the packages' NewProtocol seed theirs.
func pieces(s Spec, root *stats.RNG, coord proto.Coordinator) proto.Protocol {
	sites := make([]proto.Site, s.K)
	for i := range sites {
		sites[i] = Site(s, root.Split())
	}
	return proto.Protocol{Coord: coord, Sites: sites}
}

func simTree(t *testing.T, tp proto.Tree) runtime.Transport {
	t.Helper()
	tr, err := runtime.NewTree(tp, func(p proto.Protocol) (runtime.Transport, error) { return sim.New(p), nil })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkFields(t *testing.T, p Problem, q Queries) {
	t.Helper()
	got := [4]bool{q.Count != nil, q.Freq != nil, q.Rank != nil, q.Quantile != nil}
	want := map[Problem][4]bool{
		Count: {true, false, false, false},
		Freq:  {false, true, false, false},
		Rank:  {false, false, true, true},
	}[p]
	if got != want {
		t.Errorf("Queries{Count, Freq, Rank, Quantile} set = %v, want %v", got, want)
	}
}

// TestFamiliesSeparatelyBuiltPieces runs, for every table entry, the
// machines a distributed deployment builds one by one — Coordinator + K×Site
// for the star, Aggregators + root for the tree (the tracksim serve /
// connect / aggregate construction path) — and requires them to track the
// stream inside ε, expose exactly the problem's queries, and, for the
// non-robust families, reproduce the in-process assembly bit for bit.
func TestFamiliesSeparatelyBuiltPieces(t *testing.T) {
	if len(Families()) != 10 {
		t.Fatalf("table holds %d families, want 10 (3 problems × 3 algorithms + robust count)", len(Families()))
	}
	for _, f := range Families() {
		spec := testSpec(f)
		t.Run(name(f)+"/flat", func(t *testing.T) {
			if err := spec.Check(false); err != nil {
				t.Fatal(err)
			}
			coord, q := Coordinator(spec)
			checkFields(t, spec.Problem, q)
			got := drive(sim.New(pieces(spec, stats.New(spec.Seed), coord)), spec.Problem, q)
			if got.relErr > spec.Eps {
				t.Errorf("answer %v is %.3f·n off the truth, want ≤ ε = %v", got.answer, got.relErr, spec.Eps)
			}
			if spec.Robust {
				return // robust.NewProtocol interleaves its sampling and noise splits
			}
			p, pq := Protocol(spec)
			checkFields(t, spec.Problem, pq)
			if want := drive(sim.New(p), spec.Problem, pq); got != want {
				t.Errorf("pieces %+v != Protocol %+v", got, want)
			}
		})
		if spec.Check(true) != nil {
			continue
		}
		t.Run(name(f)+"/tree", func(t *testing.T) {
			shape, err := proto.NewTreeShape(spec.K, testFanout, spec.Eps)
			if err != nil {
				t.Fatal(err)
			}
			root := stats.New(spec.Seed)
			tp := proto.Tree{Fanout: testFanout}
			for g := 0; g < shape.Groups; g++ {
				gs := spec.Level(shape, shape.Size(g))
				agg, aq := Aggregator(gs)
				checkFields(t, spec.Problem, aq)
				tp.Groups = append(tp.Groups, pieces(gs, root, agg))
			}
			rs := spec.Level(shape, shape.Groups)
			coord, q := Coordinator(rs)
			tp.Root = pieces(rs, root, coord)
			got := drive(simTree(t, tp), spec.Problem, q)
			if got.relErr > spec.Eps {
				t.Errorf("answer %v is %.3f·n off the truth, want ≤ ε = %v", got.answer, got.relErr, spec.Eps)
			}
			whole, wq := Tree(spec, testFanout)
			checkFields(t, spec.Problem, wq)
			if want := drive(simTree(t, whole), spec.Problem, wq); got != want {
				t.Errorf("pieces %+v != Tree %+v", got, want)
			}
		})
	}
}

// TestBoostedFamilies pins the Copies > 1 variants' query surface and their
// coordinator rebuild (the crash-restart path).
func TestBoostedFamilies(t *testing.T) {
	for _, p := range []Problem{Count, Freq, Rank} {
		spec := testSpec(Spec{Problem: p, Algorithm: Randomized, Copies: 3})
		pr, q := Protocol(spec)
		checkFields(t, p, q)
		if got := drive(sim.New(pr), p, q); got.relErr > spec.Eps {
			t.Errorf("%s ×3: answer %v is %.3f·n off", p, got.answer, got.relErr)
		}
		_, cq := Coordinator(spec)
		checkFields(t, p, cq)
	}
}

// TestMedianBoosterAllInstants checks the boosted count's guarantee: with
// enough copies EVERY instant is within ε (the 1−δ all-instants claim of
// the paper's Section 1.2; a failure here would be a once-in-many-runs
// event).
func TestMedianBoosterAllInstants(t *testing.T) {
	const k, eps, n = 8, 0.15, 20000
	p, q := Protocol(Spec{Problem: Count, Algorithm: Randomized, K: k, Eps: eps, Copies: 9, Seed: 23})
	h := sim.New(p)
	events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()
	bad := 0
	h.Run(events, func(arrived int64) {
		if stats.RelErr(q.Count(), float64(arrived)) > eps {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("median-boosted tracker out of eps-band at %d/%d instants", bad, n)
	}
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		tree bool
		want string // substring of the rejection; "" = accepted
	}{
		{"robust × deterministic", Spec{Problem: Count, Algorithm: Deterministic, Robust: true}, false, "Options.Robust requires AlgorithmRandomized"},
		{"robust × sampling", Spec{Problem: Count, Algorithm: Sampling, Robust: true}, false, "Options.Robust requires AlgorithmRandomized"},
		{"robust × freq", Spec{Problem: Freq, Algorithm: Randomized, Robust: true}, false, "robust frequency tracking is not implemented"},
		{"robust × rank", Spec{Problem: Rank, Algorithm: Randomized, Robust: true}, false, "robust rank tracking is not implemented"},
		{"robust × copies", Spec{Problem: Count, Algorithm: Randomized, Robust: true, Copies: 3}, false, "Options.Robust is incompatible with Options.Copies > 1"},
		{"robust × tree", Spec{Problem: Count, Algorithm: Randomized, Robust: true}, true, "Options.Robust is incompatible with TopologyTree"},
		{"copies × tree", Spec{Problem: Count, Algorithm: Randomized, Copies: 3}, true, "Options.Copies > 1 is incompatible with TopologyTree"},
		{"tree × det freq", Spec{Problem: Freq, Algorithm: Deterministic}, true, "AlgorithmDeterministic frequency tracking (its SpaceSaving summaries have no merge path"},
		{"tree × det rank", Spec{Problem: Rank, Algorithm: Deterministic}, true, "AlgorithmDeterministic rank tracking (its Greenwald-Khanna snapshots have no merge path"},
		{"unknown problem", Spec{Problem: "moments", Algorithm: Randomized}, false, "unknown problem/algorithm moments/randomized"},
		{"unknown algorithm", Spec{Problem: Count, Algorithm: "unknown"}, false, "unknown problem/algorithm count/unknown"},
		{"robust count", Spec{Problem: Count, Algorithm: Randomized, Robust: true, Copies: 1}, false, ""},
		{"boosted rank", Spec{Problem: Rank, Algorithm: Randomized, Copies: 3}, false, ""},
		{"copies ignored by deterministic", Spec{Problem: Freq, Algorithm: Deterministic, Copies: 3}, false, ""},
	} {
		err := tc.spec.Check(tc.tree)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// Every table entry is accepted flat, and in a tree exactly when it has
	// an aggregator.
	for _, f := range Families() {
		if err := f.Check(false); err != nil {
			t.Errorf("%s: rejected flat: %v", name(f), err)
		}
		treeOK := f.Check(true) == nil
		wantTree := !f.Robust && (f.Problem == Count || f.Algorithm != Deterministic)
		if treeOK != wantTree {
			t.Errorf("%s: tree accepted = %v, want %v", name(f), treeOK, wantTree)
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// small is a 10 000-event variant of a workload, for tests.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.EpochElems, sp.ExactEpochs = 10_000, 1
	return sp
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"seq-freq", "seq-rank", "tree-count"} {
		sp := small(t, name)
		a, b, c := genStream(sp, 7, false), genStream(sp, 7, false), genStream(sp, 8, false)
		if a.digest() != b.digest() {
			t.Errorf("%s: one seed gave two streams", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: two seeds gave one stream", name)
		}
	}
	if epochSeed(1, 0) == epochSeed(1, 1) || epochSeed(1, 0) == epochSeed(2, 0) {
		t.Error("epoch seeds collide")
	}
}

func TestTruthEqualsBruteForce(t *testing.T) {
	for _, name := range []string{"tcp-count", "seq-freq", "seq-rank"} {
		sp := small(t, name)
		st := genStream(sp, 3, false)
		if len(st.queries) != sp.EpochElems/queryEvery+1 {
			t.Fatalf("%s: %d queries", name, len(st.queries))
		}
		for _, q := range st.queries {
			n := int(q.N)
			var want float64
			switch q.Kind {
			case qCount:
				want = float64(n)
			case qFreq:
				for _, it := range st.items[:n] {
					if it == q.Item {
						want++
					}
				}
			case qRank, qQuantile:
				x := q.X
				if q.Kind == qQuantile {
					x = 25 // any answer: errOf must rank it exactly
				}
				for _, v := range st.values[:n] {
					if v < x {
						want++
					}
				}
			}
			switch q.Kind {
			case qQuantile:
				if got, exp := st.errOf(q, 25), math.Abs(want-q.X*float64(n)); got != exp {
					t.Errorf("%s: quantile error at n=%d is %v, brute force %v", name, n, got, exp)
				}
			default:
				if q.Truth != want {
					t.Errorf("%s: truth at n=%d is %v, brute force %v", name, n, q.Truth, want)
				}
			}
		}
	}
}

func TestTailIsTheHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs, 99); s.P50 != 10000 || s.TailPct != 99 || s.Tail != 19800 || s.N != 20000 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"estimate":1}`))
	}))
	defer srv.Close()
	sp := small(t, "tcp-count")
	sp.HTTP = &httpSpec{Conns: 1, QueryFrac: 1}
	ld := newLoad(sp, genStream(sp, 1, false), 1, srv.URL, nil)
	const rate, stallAt, stall = 1000.0, 20, 40 * time.Millisecond
	samples, _ := ld.openLoop([]*client{newClient()}, 100*time.Millisecond, rate, func(j int64) {
		if j == stallAt {
			time.Sleep(stall) // the generator is held up once
		}
	})
	if len(samples) != 100 {
		t.Fatalf("%d samples", len(samples))
	}
	for _, s := range samples {
		if !s.ok {
			t.Fatal("request failed")
		}
	}
	before, after := samples[stallAt-10], samples[stallAt+5]
	if before.lat > 20e3 || before.gen > 20e3 {
		t.Errorf("before the stall: latency %v µs, lateness %v µs", before.lat, before.gen)
	}
	// request stallAt+5 was due 5 ms into a 40 ms stall: it is sent about
	// 35 ms late, and that wait is part of its latency
	if after.gen < 25e3 || after.lat < after.gen {
		t.Errorf("after the stall: latency %v µs, lateness %v µs", after.lat, after.gen)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "handler", Start: 10, End: 70},
		{ID: 2, Parent: 1, Name: "backend", Start: 20, End: 50},
		{ID: 3, Parent: -1, Name: "request", Start: 200, End: 260},
		{ID: 4, Parent: 3, Name: "handler", Start: 210, End: 250},
		{ID: 5, Parent: -1, Name: "backend", Start: 215, End: 225}, // orphan
	}
	adoptOrphans(spans, "backend", "handler")
	if spans[5].Parent != 4 {
		t.Fatalf("orphan adopted by %d", spans[5].Parent)
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 40 + 20, "handler": 30 + 30, "backend": 30 + 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != 100+60 {
		t.Errorf("self times sum to %v, the roots cover 160", total)
	}
}

func TestResultFileRoundTrips(t *testing.T) {
	in := resultFile{
		Provenance: provenance{Commit: "abc", Dirty: true, GoVersion: "go1.24", CPU: "x", NProc: 2, GOMAXPROCS: 2, Kernel: "k", Stamp: "s", WallS: 1.5},
		Config:     suiteConfig{Seed: 1, Seconds: 20, Reps: 3, Traced: true},
		EndToEnd:   endToEnd, PerLayer: perLayer,
		Workloads: []workloadResult{{Name: "w", Why: "y", Sizes: map[string]any{"k": 64.0},
			Runs: []runRecord{{Correct: true, Attempted: 10, Metrics: map[string]metricValue{"setup_s": {0.25, "s"}},
				Detail: runDetail{Workload: "w", Seed: 1, Exact: &exactCounts{Words: 5}, Timings: map[string]timing{"q": {1, 2, 99, 3}}}}},
			Summary: map[string]metricSummary{"setup_s": {Unit: "s", Median: 0.25, Q1: 0.2, Q3: 0.3, Values: []float64{0.2, 0.25, 0.3}}}}},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out resultFile
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the document:\n in %+v\nout %+v", in, out)
	}
}

func TestCompareGatesOnBoundsAndSpread(t *testing.T) {
	mk := func(rate, p50 []float64) resultFile {
		sum := func(v []float64, unit string) metricSummary {
			q1, q3 := quartiles(v)
			return metricSummary{Unit: unit, Median: median(v), Q1: q1, Q3: q3, Values: v}
		}
		return resultFile{Workloads: []workloadResult{{Name: "seq-freq", Summary: map[string]metricSummary{
			"ingest_melems_per_s": sum(rate, "Melem/s"), "query_p50_us": sum(p50, "us")}}}}
	}
	verdicts := func(a, b resultFile) map[string]string {
		m := map[string]string{}
		for _, c := range compareFiles(a, b) {
			m[c.Metric] = c.Verdict
		}
		return m
	}
	base := mk([]float64{9.0, 9.1, 9.2}, []float64{100, 101, 102})
	if v := verdicts(base, mk([]float64{8.9, 9.0, 9.1}, []float64{103, 104, 105})); v["ingest_melems_per_s"] != "ok" || v["query_p50_us"] != "ok" {
		t.Errorf("small gaps: %v", v)
	}
	// throughput is better-higher: losing a third is a regression; a 30 % faster query is not
	if v := verdicts(base, mk([]float64{6.0, 6.1, 6.2}, []float64{70, 71, 72})); v["ingest_melems_per_s"] != "REGRESSION" || v["query_p50_us"] != "ok" {
		t.Errorf("big gaps: %v", v)
	}
	if v := verdicts(base, mk([]float64{7.5, 9.1, 11.0}, []float64{100, 101, 102})); v["ingest_melems_per_s"] != "unresolved" {
		t.Errorf("noisy set: %v", v)
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		b, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, good, bad := write("a.json", base), write("b.json", base), write("c.json", mk([]float64{6.0, 6.1, 6.2}, []float64{100, 101, 102}))
	if code := compareMain([]string{a, good}); code != 0 {
		t.Errorf("a set against itself exits %d", code)
	}
	if code := compareMain([]string{a, bad}); code == 0 {
		t.Error("a regression exits 0")
	}
}

func TestGateFiresOnAWrongTruthTable(t *testing.T) {
	sp := small(t, "seq-freq")
	st := genStream(sp, 1, false)
	if res := runLibraryOn(sp, st, 1, 0); len(res.Gate) != 0 || res.Failed != 0 {
		t.Fatalf("honest truth table: gate %v, %d failed", res.Gate, res.Failed)
	}
	for i := range st.queries {
		st.queries[i].Truth += 5 * sp.Opt.Epsilon * float64(st.queries[i].N)
	}
	res := runLibraryOn(sp, st, 1, 0)
	null, _ := os.Open(os.DevNull)
	defer null.Close()
	if code := res.print(null); code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("wrong truth table: exit %d, correct %v, %d failed, gate %v", code, res.Correct, res.Failed, res.Gate)
	}
}

func TestSmokePasses(t *testing.T) {
	dir := t.TempDir()
	code := suiteMain(suiteConfig{Seed: 1, Smoke: true, Traced: true, Out: dir,
		exec: func(sp spec, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
			res := runOne(sp, seed, 0.2, traced, outDir)
			null, _ := os.Open(os.DevNull)
			defer null.Close()
			res.print(null) // closes the gate: a missing metric is a failure
			return res, nil
		}})
	if code != 0 {
		t.Fatalf("smoke exits %d", code)
	}
	results, _ := filepath.Glob(filepath.Join(dir, "*", "result.json"))
	traces, _ := filepath.Glob(filepath.Join(dir, "*", "trace-*.json"))
	if len(results) != 1 || len(traces) != len(specs) {
		t.Fatalf("%d result files, %d span files", len(results), len(traces))
	}
	f, err := loadResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if len(w.Runs) != 1 || w.Traced == nil || len(w.Traced.Metrics) != len(perLayer) || len(w.Runs[0].Metrics) != len(endToEnd) {
			t.Errorf("%s: incomplete result", w.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTheTables holds the declared contract file and
// the tables the program reports from to one another.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: declared %q / %q", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", doc.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(perLayer) > 128 {
		t.Error("contract limits")
	}
}

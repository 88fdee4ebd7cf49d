// Command bench is the repository's benchmark: five workloads over the
// tracker stack, twelve end-to-end metrics, and a traced run that
// attributes time to layers. See README.md in this directory.
//
//	go run -C bench . --workload seq-freq --seed 1 --seconds 20 --trace 0   one run, JSON on the last line
//	go run -C bench . -reps 3                                               every workload, result file in out/
//	go run -C bench . -smoke                                                every workload at 1/128 scale
//	go run -C bench . compare A.json B.json                                 gate B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

const defaultSeed = 1

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds
// carries the same number (a test holds them equal).
const runSeconds = 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print its result as the last line (default: every workload, each in a child process)")
		seed     = flag.Uint64("seed", defaultSeed, "inputs and per-epoch protocol seeds derive from it")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced ladder and prints per-layer metrics")
		reps     = flag.Int("reps", 3, "untraced runs per workload; a reported value is their median")
		traced   = flag.Bool("traced", true, "also make one traced run per workload")
		out      = flag.String("out", "out", "directory for result and trace files")
		smoke    = flag.Bool("smoke", false, "every workload at 1/128 scale with all correctness gates on")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(suiteMain(suiteConfig{Seed: *seed, Seconds: *seconds, Reps: *reps,
			Traced: *traced, Out: *out, Smoke: *smoke}))
	}
	sp, ok := findSpec(*workload)
	if !ok {
		var names []string
		for _, s := range specs {
			names = append(names, s.Name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *smoke {
		sp = sp.smoke()
	}
	res := runOne(sp, *seed, *seconds, *trace != 0, *out)
	os.Exit(res.print(os.Stdout))
}

// runOne executes one workload in this process.
func runOne(sp spec, seed uint64, seconds float64, traced bool, outDir string) *runResult {
	switch {
	case traced:
		return runTraced(sp, seed, seconds, outDir)
	case sp.HTTP != nil:
		return runHTTP(sp, seed, seconds, outDir, nil).result
	default:
		return runLibrary(sp, seed, seconds)
	}
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run reports. The driver contract's object is
// the four fields print writes last; the rest rides on a "#detail" line for
// the suite runner.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Gate   []string  `json:"-"`
	Detail runDetail `json:"-"`
	defs   []metricDef
}

// runDetail is the part of a run's report the contract line has no room for.
type runDetail struct {
	Workload      string            `json:"workload"`
	Seed          uint64            `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Traced        bool              `json:"traced"`
	Gate          []string          `json:"gate_failures,omitempty"`
	StreamDigest  string            `json:"stream_digest,omitempty"`
	GenS          float64           `json:"stream_gen_s"`
	Epochs        int               `json:"epochs,omitempty"`
	Queries       int               `json:"queries,omitempty"`
	EpsViolations int               `json:"eps_violations"` // answers outside ε·n: allowed up to a share δ
	Exact         *exactCounts      `json:"exact,omitempty"`
	Served        *exactCounts      `json:"served_ledger,omitempty"` // http-freq: the live tracker's own, diagnostic
	Timings       map[string]timing `json:"timings,omitempty"`
	TraceFile     string            `json:"trace_file,omitempty"`
}

func newResult(sp spec, seed uint64, seconds float64, traced bool) *runResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &runResult{Metrics: map[string]metricValue{}, defs: defs,
		Detail: runDetail{Workload: sp.Name, Seed: seed, Seconds: seconds, Traced: traced}}
}

// set records a metric; the name must be declared in the run's metric set.
func (r *runResult) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// print writes the human-readable listing, the detail line and, last, the
// contract's JSON object. It returns the process exit code: non-zero when
// the correctness gate failed or a declared metric is missing.
func (r *runResult) print(w *os.File) int {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Gate = append(r.Gate, "metric "+d.Name+" was not measured")
		}
	}
	r.Correct = len(r.Gate) == 0
	r.Detail.Gate = r.Gate
	for _, d := range r.defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, g := range r.Gate {
		fmt.Fprintf(w, "GATE FAILED: %s\n", g)
	}
	detail, _ := json.Marshal(r.Detail)
	fmt.Fprintf(w, "#detail %s\n", detail)
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

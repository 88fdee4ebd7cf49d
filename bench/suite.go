package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteConfig is one invocation of the whole benchmark.
type suiteConfig struct {
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Reps    int     `json:"reps"`
	Traced  bool    `json:"traced"`
	Out     string  `json:"-"`
	Smoke   bool    `json:"smoke"`

	// exec runs one workload once. The default re-executes this binary so
	// that heap, GC state and VmHWM belong to that run alone; tests
	// substitute an in-process runner.
	exec func(sp spec, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error)
}

// provenance says where and on what a result file was produced.
type provenance struct {
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Stamp      string  `json:"stamp"`
	WallS      float64 `json:"wall_s"`
}

func gatherProvenance(stamp string) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Stamp: stamp,
		CPU:    procField("/proc/cpuinfo", "model name"),
		Kernel: strings.TrimSpace(readFile("/proc/sys/kernel/osrelease"))}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "status", "--porcelain").Output()
		p.Dirty = len(bytes.TrimSpace(st)) > 0
	}
	return p
}

func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}

// runRecord is one run as the result file keeps it.
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    runDetail              `json:"detail"`
}

// metricSummary is one (workload, metric) cell: every rep's raw value and
// the median and quartiles over them.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadResult is everything the suite learnt about one workload.
type workloadResult struct {
	Name    string                   `json:"name"`
	Why     string                   `json:"why"`
	Sizes   map[string]any           `json:"sizes"`
	Runs    []runRecord              `json:"runs"`
	Summary map[string]metricSummary `json:"summary"`
	Traced  *runRecord               `json:"traced,omitempty"`
	Gate    []string                 `json:"gate_failures,omitempty"`
}

// resultFile is the suite's output document.
type resultFile struct {
	Provenance provenance       `json:"provenance"`
	Config     suiteConfig      `json:"config"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []metricDef      `json:"per_layer"`
	Workloads  []workloadResult `json:"workloads"`
}

// sizes lists a workload's frozen sizes for the result file.
func (s spec) sizes() map[string]any {
	m := map[string]any{
		"problem": s.Problem.String(), "k": s.Opt.K, "epsilon": s.Opt.Epsilon,
		"transport": s.Opt.Transport.String(), "topology": s.Opt.Topology.String(),
		"epoch_elems": s.EpochElems, "exact_epochs": s.ExactEpochs, "query_every": queryEvery,
	}
	if s.Opt.Fanout > 0 {
		m["fanout"] = s.Opt.Fanout
	}
	if s.ItemZipf > 0 {
		m["item_zipf"], m["universe"] = s.ItemZipf, s.Universe
	}
	if s.SiteZipf > 0 {
		m["site_zipf"] = s.SiteZipf
	}
	if s.HTTP != nil {
		m["http"] = *s.HTTP
	}
	return m
}

// execChild runs one workload in a fresh process of this same binary and
// parses what it printed.
func execChild(smoke bool) func(sp spec, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
	return func(sp spec, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"-workload", sp.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir, "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output() // a failed gate exits non-zero but still prints its result
		res, err := parseRun(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (%v)", sp.Name, err, runErr)
		}
		return res, nil
	}
}

// parseRun recovers a run's result from its standard output: the contract
// object on the last line and the detail line before it.
func parseRun(out []byte) (*runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("no result printed")
	}
	res := &runResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	detail, ok := strings.CutPrefix(lines[len(lines)-2], "#detail ")
	if !ok {
		return nil, fmt.Errorf("no detail line")
	}
	if err := json.Unmarshal([]byte(detail), &res.Detail); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	res.Gate = res.Detail.Gate
	return res, nil
}

func toRecord(r *runResult) runRecord {
	return runRecord{Correct: len(r.Gate) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: r.Metrics, Detail: r.Detail}
}

// suiteMain runs every workload reps times untraced (and once traced),
// prints the medians, writes the result file and returns the exit code.
func suiteMain(cfg suiteConfig) int {
	start := time.Now()
	if cfg.Smoke {
		cfg.Seconds, cfg.Reps = 0.4, 1
	}
	if cfg.exec == nil {
		cfg.exec = execChild(cfg.Smoke)
	}
	stamp := start.UTC().Format("20060102T150405Z")
	outDir := filepath.Join(cfg.Out, stamp)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{Config: cfg, EndToEnd: endToEnd, PerLayer: perLayer}
	failed := false
	for _, sp := range specs {
		if cfg.Smoke {
			sp = sp.smoke()
		}
		w := workloadResult{Name: sp.Name, Why: sp.Why, Sizes: sp.sizes(), Summary: map[string]metricSummary{}}
		for rep := 0; rep < cfg.Reps; rep++ {
			res, err := cfg.exec(sp, cfg.Seed, cfg.Seconds, false, outDir)
			if err != nil {
				w.Gate = append(w.Gate, err.Error())
				continue
			}
			w.Runs = append(w.Runs, toRecord(res))
			for _, g := range res.Gate {
				w.Gate = append(w.Gate, fmt.Sprintf("rep %d: %s", rep, g))
			}
		}
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range w.Runs {
				if m, ok := r.Metrics[d.Name]; ok {
					vals = append(vals, m.Value)
				}
			}
			q1, q3 := quartiles(vals)
			w.Summary[d.Name] = metricSummary{Unit: d.Unit, Median: median(vals), Q1: q1, Q3: q3, Values: vals}
		}
		if sp.HTTP == nil { // the deterministic workloads must repeat their counts exactly
			for _, r := range w.Runs[min(1, len(w.Runs)):] {
				a, b := w.Runs[0].Detail.Exact, r.Detail.Exact
				if a == nil || b == nil || a.Words != b.Words || a.Messages != b.Messages {
					w.Gate = append(w.Gate, "words/messages differ between reps at one seed")
					break
				}
			}
		}
		if cfg.Traced {
			res, err := cfg.exec(sp, cfg.Seed, cfg.Seconds, true, outDir)
			if err != nil {
				w.Gate = append(w.Gate, err.Error())
			} else {
				rec := toRecord(res)
				w.Traced = &rec
				for _, g := range res.Gate {
					w.Gate = append(w.Gate, "traced: "+g)
				}
			}
		}
		failed = failed || len(w.Gate) > 0
		file.Workloads = append(file.Workloads, w)
		printWorkload(w)
	}
	file.Provenance = gatherProvenance(stamp)
	file.Provenance.WallS = time.Since(start).Seconds()
	path := filepath.Join(outDir, "result.json")
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result file: %s (%.0f s)\n", path, file.Provenance.WallS)
	if failed {
		return 1
	}
	return 0
}

func printWorkload(w workloadResult) {
	fmt.Printf("== %s (%d reps)\n", w.Name, len(w.Runs))
	for _, d := range endToEnd {
		s := w.Summary[d.Name]
		fmt.Printf("  %-22s %14.6g %-8s [q1 %.6g, q3 %.6g]\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3)
	}
	var att, bad int64
	for _, r := range w.Runs {
		att += r.Attempted
		bad += r.Failed
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", att, bad)
	if w.Traced != nil {
		for _, d := range perLayer {
			if m, ok := w.Traced.Metrics[d.Name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	for _, g := range w.Gate {
		fmt.Printf("  GATE FAILED: %s\n", g)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// cell is one workload × end-to-end metric comparison.
type cell struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // how much worse B's median is, as a share of A's (negative: better)
	SpreadA, SpreadB float64 // inter-quartile distance as a share of the median
	Bound            float64
	Verdict          string // "ok", "REGRESSION" or "unresolved"
}

// compareFiles gates result set B against result set A with the bounds the
// benchmark fixes. A cell whose sets are noisier than its bound is
// unresolved, not passed — unless the gap itself is beyond the bound, which
// noise does not excuse.
func compareFiles(a, b resultFile) []cell {
	byName := map[string]workloadResult{}
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	var cells []cell
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Summary[d.Name], wb.Summary[d.Name]
			if len(sa.Values) == 0 || len(sb.Values) == 0 || sa.Median == 0 {
				continue
			}
			c := cell{Workload: wb.Name, Metric: d.Name, A: sa.Median, B: sb.Median, Bound: d.Bound,
				SpreadA: (sa.Q3 - sa.Q1) / math.Abs(sa.Median), SpreadB: (sb.Q3 - sb.Q1) / math.Abs(sb.Median)}
			c.Worse = (sb.Median - sa.Median) / math.Abs(sa.Median)
			if d.Better == "higher" {
				c.Worse = -c.Worse
			}
			switch {
			case c.Worse > d.Bound:
				c.Verdict = "REGRESSION"
			case c.SpreadA > d.Bound || c.SpreadB > d.Bound:
				c.Verdict = "unresolved"
			default:
				c.Verdict = "ok"
			}
			cells = append(cells, c)
		}
	}
	return cells
}

func loadResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain implements `bench compare A.json B.json`. It exits non-zero
// when any median is worse than its bound allows.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	cells := compareFiles(a, b)
	fmt.Printf("A: %s %s   B: %s %s\n", a.Provenance.Stamp, short(a.Provenance.Commit), b.Provenance.Stamp, short(b.Provenance.Commit))
	fmt.Printf("%-11s %-20s %13s %13s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "iqr A", "iqr B", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, c := range cells {
		fmt.Printf("%-11s %-20s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.A, c.B, c.Worse*100, c.SpreadA*100, c.SpreadB*100, c.Bound*100, c.Verdict)
		switch c.Verdict {
		case "REGRESSION":
			regressions++
		case "unresolved":
			unresolved++
		}
	}
	fmt.Printf("%d cells, %d regressions, %d unresolved\n", len(cells), regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

func short(commit string) string {
	if len(commit) > 10 {
		return commit[:10]
	}
	return commit
}

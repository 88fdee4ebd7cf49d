package count

import (
	"testing"

	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

func TestMedianCostScalesWithCopies(t *testing.T) {
	const k = 4
	const eps = 0.1
	const n = 10000
	events := workload.Config{N: n, Placement: workload.RoundRobin(k)}.Events()
	run := func(copies int) int64 {
		p, _ := NewMedianProtocol(Config{K: k, Eps: eps}, copies, 29)
		h := sim.New(p)
		h.Run(events, nil)
		return h.Metrics().Messages()
	}
	m1 := run(1)
	m5 := run(5)
	ratio := float64(m5) / float64(m1)
	if ratio < 3 || ratio > 7 {
		t.Fatalf("5-copy cost ratio %v, want ~5", ratio)
	}
}

func TestMedianSingleCopyMatchesBase(t *testing.T) {
	// One copy must behave exactly like the base protocol under the same
	// seeds... we can at least check estimates stay sane and equal at p=1.
	cfg := Config{K: 2, Eps: 0.5, Rescale: 1}
	p, coords := NewMedianProtocol(cfg, 1, 31)
	h := sim.New(p)
	for i := 1; i <= 5; i++ { // √2/0.5 ≈ 2.8 so p=1 only briefly; use tiny n
		h.Arrive(i%2, 0, 0)
	}
	if est := coords[0].Estimate(); est <= 0 {
		t.Fatalf("single-copy estimate %v", est)
	}
}

func TestMedianValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero copies did not panic")
		}
	}()
	NewMedianProtocol(Config{K: 2, Eps: 0.1}, 0, 1)
}

func TestMedianCopiesHelperIntegration(t *testing.T) {
	c := stats.MedianCopies(1e5, 0.01)
	if c < 3 {
		t.Fatalf("MedianCopies = %d", c)
	}
	// Just assemble a protocol with that many copies to ensure it scales.
	p, _ := NewMedianProtocol(Config{K: 2, Eps: 0.2}, c, 37)
	if p.K() != 2 {
		t.Fatal("protocol K wrong")
	}
}

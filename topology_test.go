package disttrack

import (
	"math"
	"strings"
	"testing"
)

// mustPanic asserts that fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q; want it to contain %q", msg, want)
		}
	}()
	fn()
}

// TestTopologyOptionValidation pins the precise rejection messages for bad
// topology combinations.
func TestTopologyOptionValidation(t *testing.T) {
	base := Options{K: 8, Epsilon: 0.1}

	t.Run("fanout without tree", func(t *testing.T) {
		o := base
		o.Fanout = 4
		mustPanic(t, "Options.Fanout requires Options.Topology == TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("fanout too small", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout = TopologyTree, 1
		mustPanic(t, "Options.Fanout must be >= 2 with TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("fanout missing", func(t *testing.T) {
		o := base
		o.Topology = TopologyTree
		mustPanic(t, "Options.Fanout must be >= 2 with TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("depth inconsistent with k", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout = TopologyTree, 8 // one group: not a tree
		mustPanic(t, "K must exceed Fanout", func() { NewCountTracker(o) })
	})
	t.Run("unknown topology", func(t *testing.T) {
		o := base
		o.Topology = Topology(17)
		mustPanic(t, "unknown Options.Topology", func() { NewCountTracker(o) })
	})
	t.Run("robust x tree", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout, o.Robust = TopologyTree, 4, true
		mustPanic(t, "Options.Robust is incompatible with TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("copies x tree", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout, o.Copies = TopologyTree, 4, 3
		mustPanic(t, "Options.Copies > 1 is incompatible with TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("faultplan x tree", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout = TopologyTree, 4
		o.Transport = TransportGoroutine
		o.FaultPlan = &FaultPlan{Drop: 0.01}
		mustPanic(t, "Options.FaultPlan is incompatible with TopologyTree", func() { NewCountTracker(o) })
	})
	t.Run("deterministic frequency lacks merge path", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout = TopologyTree, 4
		o.Algorithm = AlgorithmDeterministic
		mustPanic(t, "TopologyTree is incompatible with AlgorithmDeterministic frequency tracking", func() { NewFrequencyTracker(o) })
	})
	t.Run("deterministic rank lacks merge path", func(t *testing.T) {
		o := base
		o.Topology, o.Fanout = TopologyTree, 4
		o.Algorithm = AlgorithmDeterministic
		mustPanic(t, "TopologyTree is incompatible with AlgorithmDeterministic rank tracking", func() { NewRankTracker(o) })
	})
}

// TestTopologyStrings pins the enum names (they appear in tracksim flags).
func TestTopologyStrings(t *testing.T) {
	for _, tc := range []struct {
		tp   Topology
		want string
	}{{TopologyFlat, "flat"}, {TopologyTree, "tree"}, {Topology(9), "unknown"}} {
		if got := tc.tp.String(); got != tc.want {
			t.Errorf("Topology(%d).String() = %q, want %q", int(tc.tp), got, tc.want)
		}
	}
}

// treeSmoke runs n round-robin arrivals through a small tree tracker and
// checks the count-style estimate stays within eps of the truth.
func TestTreeCountSmoke(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling} {
		t.Run(alg.String(), func(t *testing.T) {
			tr := NewCountTracker(Options{
				K: 16, Epsilon: 0.1, Algorithm: alg, Seed: 7,
				Topology: TopologyTree, Fanout: 4,
			})
			defer tr.Close()
			const n = 20000
			for i := 0; i < n; i++ {
				tr.Observe(i % 16)
			}
			got := tr.Estimate()
			if math.Abs(got-n) > 0.1*n {
				t.Fatalf("tree %s count estimate %.0f; want within 10%% of %d", alg, got, n)
			}
			m := tr.Metrics()
			if m.Arrivals != n {
				t.Fatalf("Arrivals = %d, want %d", m.Arrivals, n)
			}
			if m.Depth != 2 {
				t.Fatalf("Depth = %d, want 2", m.Depth)
			}
			if m.LevelMessages[0] == 0 || m.LevelMessages[1] == 0 {
				t.Fatalf("per-level messages = %v, want both levels nonzero", m.LevelMessages)
			}
			if m.Messages != m.LevelMessages[0]+m.LevelMessages[1] {
				t.Fatalf("Messages = %d, want sum of levels %v", m.Messages, m.LevelMessages)
			}
			if m.LiveSites != 16 {
				t.Fatalf("LiveSites = %d, want 16", m.LiveSites)
			}
		})
	}
}

// TestTreeDeterministicCountAlwaysBound verifies the deterministic tree
// keeps its δ=0 always-guarantee: the estimate is checked at every arrival.
func TestTreeDeterministicCountAlwaysBound(t *testing.T) {
	tr := NewCountTracker(Options{
		K: 12, Epsilon: 0.1, Algorithm: AlgorithmDeterministic,
		Topology: TopologyTree, Fanout: 4,
	})
	defer tr.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Observe(i % 12)
		truth := float64(i + 1)
		if got := tr.Estimate(); math.Abs(got-truth) > 0.1*truth {
			t.Fatalf("at n=%d: estimate %.2f outside eps*n=%.2f", i+1, got, 0.1*truth)
		}
	}
}

// TestTreeFreqRankSmoke exercises the frequency and rank trees end to end.
func TestTreeFreqRankSmoke(t *testing.T) {
	const n = 20000
	t.Run("freq", func(t *testing.T) {
		tr := NewFrequencyTracker(Options{
			K: 16, Epsilon: 0.1, Seed: 11, Topology: TopologyTree, Fanout: 4,
		})
		defer tr.Close()
		// Item 1 gets half the stream, item 2 a quarter, the rest singletons.
		for i := 0; i < n; i++ {
			var item int64
			switch {
			case i%2 == 0:
				item = 1
			case i%4 == 1:
				item = 2
			default:
				item = int64(1000 + i)
			}
			tr.Observe(i%16, item)
		}
		if got := tr.Estimate(1); math.Abs(got-n/2) > 0.1*n {
			t.Fatalf("freq(1) = %.0f, want %d +- %d", got, n/2, n/10)
		}
		if got := tr.Estimate(2); math.Abs(got-n/4) > 0.1*n {
			t.Fatalf("freq(2) = %.0f, want %d +- %d", got, n/4, n/10)
		}
	})
	t.Run("rank", func(t *testing.T) {
		tr := NewRankTracker(Options{
			K: 16, Epsilon: 0.1, Seed: 13, Topology: TopologyTree, Fanout: 4,
		})
		defer tr.Close()
		rng := uint64(1)
		for i := 0; i < n; i++ {
			// xorshift values in (0,1); distinct with probability ~1.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			v := float64(rng%1000003)/1000003 + float64(i)*1e-9
			tr.Observe(i%16, v)
		}
		if got := tr.Rank(0.5); math.Abs(got-n/2) > 0.1*n {
			t.Fatalf("rank(0.5) = %.0f, want %d +- %d", got, n/2, n/10)
		}
	})
}

// TestTreeFrequencyPinnedAtScale pins a k=256/fanout-16 frequency tree's
// answers and cost ledger at a fixed seed to the values the tree produced
// while every aggregator query walked the coordinator's full state (commit
// 4020df4). Aggregators feed the root int64(Estimate(item)) for every dirty
// item, so any drift in the per-item estimate index would change the virtual
// stream, and with it the root's messages and estimates.
func TestTreeFrequencyPinnedAtScale(t *testing.T) {
	const k, n = 256, 200000
	tr := NewFrequencyTracker(Options{
		K: k, Epsilon: 0.02, Seed: 5, Topology: TopologyTree, Fanout: 16,
	})
	defer tr.Close()
	// Hot items 0..7 take about half the stream; the rest is a long tail
	// drawn by a fixed LCG, so the stream needs no seed of its own.
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		item := int64(x >> 33 % 50000)
		if x>>62 < 2 {
			item = int64(x >> 40 % 8)
		}
		tr.Observe(int(x>>20%k), item)
	}
	for item, want := range map[int64]float64{0: 12273, 3: 12140, 7: 12830} {
		if got := tr.Estimate(item); got != want {
			t.Errorf("Estimate(%d) = %v, want %v", item, got, want)
		}
	}
	// The long tail, folded: every estimate is an integer, so the weighted
	// sum is exact in float64 and moves if any single answer does.
	var tail float64
	for item := int64(8); item < 50000; item++ {
		tail += float64(item%97+1) * tr.Estimate(item)
	}
	if tail != 6307892 {
		t.Errorf("weighted tail sum = %v, want 6307892", tail)
	}
	m := tr.Metrics()
	if m.Words != 544931 || m.Messages != 366299 {
		t.Errorf("Words, Messages = %d, %d; want 544931, 366299", m.Words, m.Messages)
	}
}

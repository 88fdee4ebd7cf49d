package count

import (
	"math"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/stats"
)

// walkEstimate is the O(k) reference estimator: n̂ = Σ_{n̄_i>0} (n̄_i − 1 + 1/p).
func walkEstimate(c *Coordinator) float64 {
	est := 0.0
	for _, nb := range c.nBar {
		if nb > 0 {
			est += float64(nb) - 1 + 1/c.p
		}
	}
	return est
}

// TestEstimateMatchesWalk drives random Receive/RestoreState sequences —
// reports, adjustments (zero included), restored records (zero and
// negative included), round reports and restored round metadata that move
// p — and requires Estimate to equal the reference walk bit for bit after
// every step, and again after a SnapshotState -> RestoreState round trip
// into a fresh coordinator.
func TestEstimateMatchesWalk(t *testing.T) {
	send := func(int, proto.Message) {}
	cast := func(proto.Message) {}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.New(seed)
		k := 1 + rng.Intn(64)
		cfg := Config{K: k, Eps: 0.01 + 0.2*rng.Float64()}
		c := NewCoordinator(cfg)
		value := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return -1 - int64(rng.Intn(1000))
			default:
				return int64(rng.Intn(1 << 30))
			}
		}
		check := func(step int, c *Coordinator, what string) {
			t.Helper()
			if got, want := c.Estimate(), walkEstimate(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d (%s): Estimate %v, walk %v", seed, step, what, got, want)
			}
		}
		for step := 0; step < 400; step++ {
			from := rng.Intn(k)
			switch rng.Intn(6) {
			case 0:
				c.Receive(from, UpdateMsg{N: value()}, send, cast)
			case 1:
				c.Receive(from, AdjustMsg{NBar: value()}, send, cast)
			case 2:
				c.RestoreState(from, UpdateMsg{N: value()})
			case 3:
				c.Receive(from, rounds.UpMsg{N: int64(rng.Intn(1 << 28))}, send, cast)
			case 4:
				c.RestoreState(-1, proto.StateMsg{Key: 1, A: int64(rng.Intn(1 << 28)), B: int64(step)})
			default:
				c.Receive(from, UpdateMsg{N: int64(rng.Intn(1 << 20))}, send, cast)
			}
			check(step, c, "live")
		}
		fresh := NewCoordinator(cfg)
		c.SnapshotState(fresh.RestoreState)
		check(-1, fresh, "restored")
		if math.Float64bits(fresh.Estimate()) != math.Float64bits(c.Estimate()) {
			t.Fatalf("seed %d: restored Estimate %v, original %v", seed, fresh.Estimate(), c.Estimate())
		}
	}
}

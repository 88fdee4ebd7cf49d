package rank_test

// External test package: wire imports rank, so a test that decodes frames
// cannot live inside it.

import (
	"math"
	"runtime/metrics"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/rounds"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/summary/merge"
	"disttrack/internal/wire"
)

var fuzzCfg = rank.Config{K: 2, Eps: 0.1, Rescale: 1}

// fuzzAllocBudget caps what one input may make the coordinator allocate. The
// largest admissible chunk id grows a site's table to 2^20-odd slots, a few
// times 8 MB with append's slack, whatever the input's length; a forged id
// that got through would ask for gigabytes.
const fuzzAllocBudget = 128 << 20

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// frame appends one fuzz record: the sending site, then the wire form.
func frame(t testing.TB, b []byte, site int, m proto.Message) []byte {
	b, err := wire.Append(append(b, byte(site)), m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzReceive feeds a rank coordinator whatever the wire decoder accepts, as
// a connection to an untrusted peer would: arbitrary bytes, cut into (site,
// frame) records. The coordinator must never panic, never allocate past a
// fixed budget, and still answer Rank(+Inf) with a finite number.
func FuzzReceive(f *testing.F) {
	// An honest run's traffic, in slices of a few dozen messages.
	p, _ := rank.NewProtocol(fuzzCfg, 5)
	h := sim.New(p)
	var honest, seed []byte
	inSeed := 0
	h.SetCoordLog(func(from int, m proto.Message) {
		honest = frame(f, honest, from, m)
		seed = frame(f, seed, from, m)
		if inSeed++; inSeed == 40 {
			f.Add(seed)
			seed, inSeed = nil, 0
		}
	})
	rng := stats.New(9)
	for i := 0; i < 3000; i++ {
		h.Arrive(rng.Intn(fuzzCfg.K), 0, rng.Float64())
	}
	f.Add(honest)
	snap := merge.Snapshot{N: 3, Buffers: []merge.WeightedBuffer{{Weight: 1, Values: []float64{1, 2, math.NaN()}}}}
	for _, m := range []proto.Message{
		rank.SummaryMsg{Chunk: -1, Snap: snap},
		rank.SummaryMsg{Level: -1, Snap: snap},
		rank.SummaryMsg{Pos: -1, Snap: snap},
		rank.SummaryMsg{Level: 62, Pos: 1, Snap: snap},
		rank.SummaryMsg{Level: 1 << 40, Snap: snap},
		rank.SummaryMsg{Pos: math.MaxInt, Snap: snap},
		rank.SummaryMsg{Chunk: 1 << 40, Snap: snap},
		rank.SummaryMsg{Snap: merge.Snapshot{N: math.MaxInt64, Buffers: []merge.WeightedBuffer{{Weight: math.MinInt64, Values: []float64{math.Inf(1)}}}}},
		rank.SampleMsg{Chunk: -1, Index: -1, Value: math.NaN()},
		rank.SampleMsg{Chunk: math.MaxInt64, Index: math.MaxInt64, Value: math.Inf(-1)},
		rounds.UpMsg{N: math.MaxInt64},
		rounds.UpMsg{N: -1},
	} {
		// On its own, and after honest traffic has built some state.
		f.Add(frame(f, nil, 1, m))
		f.Add(frame(f, append([]byte(nil), honest...), 0, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		c := rank.NewCoordinator(fuzzCfg)
		before := allocatedBytes()
		for len(b) > 1 {
			m, rest, err := wire.Decode(b[1:])
			if err != nil {
				break
			}
			c.Receive(int(b[0])%fuzzCfg.K, m, nil, func(proto.Message) {})
			b = rest
		}
		if r := c.Rank(math.Inf(1)); math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("Rank(+Inf) = %v", r)
		}
		if grew := allocatedBytes() - before; grew > fuzzAllocBudget {
			t.Fatalf("the input made the coordinator allocate %d MB", grew>>20)
		}
	})
}

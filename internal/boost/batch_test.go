package boost_test

import (
	"reflect"
	"testing"

	"disttrack/internal/boost"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
)

// log records every delivered message, in order (a runtime.Tap).
type log []any

func (l *log) Up(from int, m proto.Message) { *l = append(*l, "up", from, m) }
func (l *log) Down(to int, m proto.Message) { *l = append(*l, "down", to, m) }

// counted wraps a site's batch path to count calls and arrivals consumed.
type counted struct {
	proto.BatchSite
	calls, consumed *int64
}

func (c counted) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	done := c.BatchSite.ArriveBatch(item, value, count, out)
	*c.calls++
	*c.consumed += done
	return done
}

// runBoth feeds the same runs of identical elements to two seeded copies of
// a boosted protocol, one run per ArriveBatch on the first and element at a
// time on the second. The two must deliver the same messages in the same
// order; it returns how many ArriveBatch calls the batched side made.
func runBoth(t *testing.T, build func() proto.Protocol, runs int, runLen int64) (calls int64) {
	t.Helper()
	batched, serial := build(), build()
	var consumed int64
	for i, s := range batched.Sites {
		bs, ok := s.(proto.BatchSite)
		if !ok {
			t.Fatal("a boosted site is not a proto.BatchSite")
		}
		batched.Sites[i] = counted{bs, &calls, &consumed}
	}
	hb, hs := sim.New(batched), sim.New(serial)
	var lb, ls log
	hb.SetTap(&lb)
	hs.SetTap(&ls)
	k := batched.K()
	for r := 0; r < runs; r++ {
		hb.ArriveBatch(r%k, int64(r%3), 0, runLen)
		for j := int64(0); j < runLen; j++ {
			hs.Arrive(r%k, int64(r%3), 0)
		}
	}
	if want := int64(runs) * runLen; consumed != want {
		t.Fatalf("ArriveBatch consumed %d arrivals, want %d", consumed, want)
	}
	if !reflect.DeepEqual(lb, ls) {
		t.Fatalf("batched run delivered %d tap entries, element-at-a-time %d (or they differ)", len(lb), len(ls))
	}
	if hb.Metrics() != hs.Metrics() {
		t.Fatalf("metrics differ: batched %+v, serial %+v", hb.Metrics(), hs.Metrics())
	}
	return calls
}

// TestArriveBatchLockstepCount pins the boosted batch path on count sites,
// whose copies can report and absorb their quiet gaps: a run costs
// O(messages) ArriveBatch calls, and the copies end bit-identical to
// element-at-a-time delivery.
func TestArriveBatchLockstepCount(t *testing.T) {
	const k, copies, runs, runLen = 4, 5, 40, 5000
	var coords [2][]*count.Coordinator
	built := 0
	build := func() proto.Protocol {
		root := stats.New(17)
		ps := make([]proto.Protocol, copies)
		for j := range ps {
			var c *count.Coordinator
			ps[j], c = count.NewProtocol(count.Config{K: k, Eps: 0.1}, root.Uint64())
			coords[built] = append(coords[built], c)
		}
		built++
		return boost.Wrap(ps)
	}
	calls := runBoth(t, build, runs, runLen)
	if calls*10 > runs*runLen {
		t.Errorf("%d ArriveBatch calls for %d arrivals: the lockstep is not absorbing quiet gaps", calls, runs*runLen)
	}
	for j := range coords[0] {
		if a, b := coords[0][j].Estimate(), coords[1][j].Estimate(); a != b {
			t.Errorf("copy %d: batched estimate %v, element-at-a-time %v", j, a, b)
		}
	}
}

// TestArriveBatchFallbackFreq pins the fallback: freq sites have no
// quiet-gap capability, so a boosted freq site's ArriveBatch feeds exactly
// one element per call, the same one Arrive would.
func TestArriveBatchFallbackFreq(t *testing.T) {
	const k, copies, runs, runLen = 3, 3, 12, 50
	var coords [2][]*freq.Coordinator
	built := 0
	build := func() proto.Protocol {
		root := stats.New(19)
		ps := make([]proto.Protocol, copies)
		for j := range ps {
			var c *freq.Coordinator
			ps[j], c = freq.NewProtocol(freq.Config{K: k, Eps: 0.1}, root.Uint64())
			coords[built] = append(coords[built], c)
		}
		built++
		return boost.Wrap(ps)
	}
	if calls := runBoth(t, build, runs, runLen); calls != runs*runLen {
		t.Errorf("%d ArriveBatch calls for %d arrivals, want one per arrival", calls, runs*runLen)
	}
	for j := range coords[0] {
		for item := int64(0); item < 3; item++ {
			if a, b := coords[0][j].Estimate(item), coords[1][j].Estimate(item); a != b {
				t.Errorf("copy %d item %d: batched estimate %v, element-at-a-time %v", j, item, a, b)
			}
		}
	}
}

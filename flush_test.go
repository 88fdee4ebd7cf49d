package disttrack

// The flush-boundary suite: the concurrent transports coalesce outbound
// frames (buffered TCP encoders, vectored fan-out writes) and flush at
// batch edges. Coalescing is purely a wire
// optimization — this suite pins the contract that makes it invisible:
//
//   - per-link FIFO message sequences are bit-identical whether frames
//     travel one-per-write or many-per-write (digest equality across all
//     transports, queried at every single arrival, so any unflushed frame
//     at a query boundary would surface as a divergence);
//   - the fault middleware sees the same message stream either way, so a
//     seeded drop/duplicate/reorder/partition schedule makes identical
//     decisions on the goroutine transport (one message per delivery)
//     and the TCP transport (coalesced frames);
//   - batched ingestion flushes at chunk edges exactly like singleton
//     arrivals flush at injection edges.
//
// Everything here runs under -race in CI (the root package is raced).

import (
	"testing"

	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	flushK    = 4
	flushN    = 600
	flushEps  = 0.1
	flushSeed = 31
)

// runCountEveryArrival queries after every single arrival: a frame still
// sitting unflushed in a transport buffer at any query boundary would
// change the settled state the query observes and break digest equality.
func runCountEveryArrival(t *testing.T, tr Transport) runResult {
	t.Helper()
	c := NewCountTracker(Options{K: flushK, Epsilon: flushEps, Seed: flushSeed,
		Transport: tr})
	defer c.Close()
	tap := newDigestTap(flushK)
	c.eng.SetTap(tap)
	var res runResult
	for i := 0; i < flushN; i++ {
		c.Observe(i % flushK)
		res.answers = append(res.answers, c.Estimate())
	}
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runRankEveryArrival(t *testing.T, tr Transport) runResult {
	t.Helper()
	values := workload.PermValues(flushN, stats.New(flushSeed^0xabc))
	r := NewRankTracker(Options{K: flushK, Epsilon: flushEps, Seed: flushSeed,
		Transport: tr})
	defer r.Close()
	tap := newDigestTap(flushK)
	r.eng.SetTap(tap)
	var res runResult
	for i := 0; i < flushN; i++ {
		r.Observe(i%flushK, values(i))
		res.answers = append(res.answers, r.Rank(float64(flushN)/2))
	}
	res.metrics = r.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

// TestFlushBoundaryEveryArrival maximizes query density: a query after
// every arrival on all three transports. Digests, metrics, and every
// intermediate answer must be identical — the strongest observable form of
// "queries always see a settled backlog".
func TestFlushBoundaryEveryArrival(t *testing.T) {
	runs := []struct {
		name string
		run  func(*testing.T, Transport) runResult
	}{
		{"count", runCountEveryArrival},
		{"rank", runRankEveryArrival},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			compareTransports(t, func(tr Transport) runResult { return r.run(t, tr) })
		})
	}
}

// runCountFaulted runs the count tracker under a fault plan with a digest
// tap installed, capturing the post-middleware per-link sequences.
func runCountFaulted(t *testing.T, tr Transport, plan *FaultPlan, batched bool) (runResult, FaultStats) {
	t.Helper()
	c := NewCountTracker(Options{K: flushK, Epsilon: flushEps, Seed: flushSeed,
		Transport: tr, FaultPlan: plan})
	defer c.Close()
	tap := newDigestTap(flushK)
	c.eng.SetTap(tap)
	var res runResult
	if batched {
		for done := 0; done < flushN; done += 50 {
			c.ObserveBatch((done/50)%flushK, 50)
			res.answers = append(res.answers, c.Estimate())
		}
	} else {
		for i := 0; i < flushN; i++ {
			c.Observe(i % flushK)
			if i%40 == 0 {
				res.answers = append(res.answers, c.Estimate())
			}
		}
	}
	res.answers = append(res.answers, c.Estimate())
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res, c.FaultStats()
}

func runRankFaulted(t *testing.T, tr Transport, plan *FaultPlan) (runResult, FaultStats) {
	t.Helper()
	values := workload.PermValues(flushN, stats.New(flushSeed^0xabc))
	r := NewRankTracker(Options{K: flushK, Epsilon: flushEps, Seed: flushSeed,
		Transport: tr, FaultPlan: plan})
	defer r.Close()
	tap := newDigestTap(flushK)
	r.eng.SetTap(tap)
	var res runResult
	for i := 0; i < flushN; i++ {
		r.Observe(i%flushK, values(i))
		if i%40 == 0 {
			res.answers = append(res.answers, r.Rank(float64(flushN)/2))
		}
	}
	res.answers = append(res.answers, r.Rank(float64(flushN)/2))
	res.metrics = r.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res, r.FaultStats()
}

// compareFaulted runs the same faulted workload on both concurrent
// transports and demands identical digests, metrics, and answers: the
// fault middleware must make the same seeded decisions whether frames
// arrive one message per delivery (goroutine) or as coalesced wire batches
// (TCP).
func compareFaulted(t *testing.T, run func(Transport) (runResult, FaultStats)) {
	t.Helper()
	base, baseStats := run(TransportGoroutine)
	other, otherStats := run(TransportTCP)
	if what, ok := equalResults(base, other); !ok {
		t.Errorf("faulted run diverged between goroutine and tcp: %s", what)
	}
	if baseStats != otherStats {
		t.Errorf("fault schedules diverged: goroutine %+v, tcp %+v", baseStats, otherStats)
	}
}

// TestFlushBoundaryFaultDigests pins the masked-fault stream equality:
// drop, duplicate, and reorder faults fire identically on coalesced and
// singleton delivery.
func TestFlushBoundaryFaultDigests(t *testing.T) {
	plan := &FaultPlan{Seed: 17, Drop: 0.05, Duplicate: 0.05, Reorder: 0.2}
	t.Run("count", func(t *testing.T) {
		t.Parallel()
		var fired FaultStats
		compareFaulted(t, func(tr Transport) (runResult, FaultStats) {
			res, st := runCountFaulted(t, tr, plan, false)
			fired = st
			return res, st
		})
		if fired.Dropped == 0 || fired.Duplicated == 0 || fired.Reordered == 0 {
			t.Fatalf("fault schedule fired nothing: %+v", fired)
		}
	})
	t.Run("rank", func(t *testing.T) {
		t.Parallel()
		var fired FaultStats
		compareFaulted(t, func(tr Transport) (runResult, FaultStats) {
			res, st := runRankFaulted(t, tr, plan)
			fired = st
			return res, st
		})
		if fired.Dropped == 0 || fired.Duplicated == 0 {
			t.Fatalf("fault schedule fired nothing: %+v", fired)
		}
	})
}

// TestFlushBoundaryPartition pins the partition path: a site is killed
// mid-stream and rejoins (dropping its traffic, then resyncing), and the
// full crash/resync message sequence must still be bit-identical between
// the two concurrent transports.
func TestFlushBoundaryPartition(t *testing.T) {
	plan := &FaultPlan{Seed: 19,
		Kills: []SiteKill{{Site: 1, At: flushN / 4, RejoinAt: flushN / 2}}}
	var fired FaultStats
	compareFaulted(t, func(tr Transport) (runResult, FaultStats) {
		res, st := runCountFaulted(t, tr, plan, false)
		fired = st
		return res, st
	})
	if fired.Partitioned == 0 {
		t.Fatalf("kill/rejoin schedule trapped nothing: %+v", fired)
	}
}

// TestFlushBoundaryBatchedFaults covers the chunk-edge flush: batched
// ingestion under masked faults must coalesce without changing the fault
// schedule's view of the stream.
func TestFlushBoundaryBatchedFaults(t *testing.T) {
	plan := &FaultPlan{Seed: 29, Drop: 0.05, Duplicate: 0.05, Reorder: 0.2}
	var fired FaultStats
	compareFaulted(t, func(tr Transport) (runResult, FaultStats) {
		res, st := runCountFaulted(t, tr, plan, true)
		fired = st
		return res, st
	})
	if fired.Dropped == 0 {
		t.Fatalf("fault schedule fired nothing: %+v", fired)
	}
}

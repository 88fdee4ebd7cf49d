package disttrack

// The transport-independence suite: every tracker runs the same seeded
// workload on the sequential simulator, the goroutine runtime, and the TCP
// loopback transport, and must produce identical per-link message
// sequences, identical cost Metrics, and identical query answers. This is
// the contract that makes the sequential transport's exact accounting
// meaningful for the distributed deployments: the fabric carries the
// protocol, it never changes it.

import (
	"hash/fnv"
	"math"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/stats"
	"disttrack/internal/wire"
	"disttrack/internal/workload"
)

var allTransports = []Transport{TransportSequential, TransportGoroutine, TransportTCP}

// linkDigest accumulates an order-sensitive hash of one direction of one
// site's coordinator link. Each slot is written by exactly one goroutine;
// the transports' quiescence barriers order those writes before the test's
// reads.
type linkDigest struct {
	hash uint64
	n    int
	buf  []byte
}

func (d *linkDigest) add(m proto.Message) {
	var err error
	d.buf, err = wire.Append(d.buf[:0], m)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	var word [8]byte
	word[0] = byte(d.hash)
	word[1] = byte(d.hash >> 8)
	word[2] = byte(d.hash >> 16)
	word[3] = byte(d.hash >> 24)
	word[4] = byte(d.hash >> 32)
	word[5] = byte(d.hash >> 40)
	word[6] = byte(d.hash >> 48)
	word[7] = byte(d.hash >> 56)
	h.Write(word[:])
	h.Write(d.buf)
	d.hash = h.Sum64()
	d.n++
}

// digestTap implements runtime.Tap with one digest per (site, direction).
type digestTap struct {
	up   []linkDigest
	down []linkDigest
}

func newDigestTap(k int) *digestTap {
	return &digestTap{up: make([]linkDigest, k), down: make([]linkDigest, k)}
}

func (t *digestTap) Up(from int, m proto.Message) { t.up[from].add(m) }
func (t *digestTap) Down(to int, m proto.Message) { t.down[to].add(m) }
func (t *digestTap) signature() (sig []uint64, ns []int) {
	for i := range t.up {
		sig = append(sig, t.up[i].hash, t.down[i].hash)
		ns = append(ns, t.up[i].n, t.down[i].n)
	}
	return sig, ns
}

// runResult is everything one run of one tracker must reproduce exactly.
type runResult struct {
	answers  []float64
	metrics  Metrics
	linkSig  []uint64
	linkMsgs []int
}

func equalResults(a, b runResult) (string, bool) {
	if len(a.answers) != len(b.answers) {
		return "answer count", false
	}
	for i := range a.answers {
		if a.answers[i] != b.answers[i] {
			return "query answers", false
		}
	}
	if a.metrics != b.metrics {
		return "metrics", false
	}
	for i := range a.linkSig {
		if a.linkSig[i] != b.linkSig[i] || a.linkMsgs[i] != b.linkMsgs[i] {
			return "per-link message sequences", false
		}
	}
	return "", true
}

const (
	indepK    = 5
	indepEps  = 0.1
	indepN    = 4000
	indepSeed = 42
)

func runCount(t *testing.T, tr Transport, copies int, batched bool) runResult {
	t.Helper()
	c := NewCountTracker(Options{K: indepK, Epsilon: indepEps, Seed: indepSeed,
		Transport: tr, Copies: copies})
	defer c.Close()
	tap := newDigestTap(indepK)
	c.eng.SetTap(tap)
	var res runResult
	if batched {
		for done := 0; done < indepN; done += 100 {
			c.ObserveBatch((done/100)%indepK, 100)
			res.answers = append(res.answers, c.Estimate())
		}
	} else {
		for i := 0; i < indepN; i++ {
			c.Observe(i % indepK)
			if i%500 == 0 {
				res.answers = append(res.answers, c.Estimate())
			}
		}
	}
	res.answers = append(res.answers, c.Estimate())
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runFreq(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	f := NewFrequencyTracker(Options{K: indepK, Epsilon: indepEps, Seed: indepSeed,
		Algorithm: alg, Transport: tr})
	defer f.Close()
	tap := newDigestTap(indepK)
	f.eng.SetTap(tap)
	items := workload.ZipfItems(200, 1.2, stats.New(99))
	var res runResult
	for i := 0; i < indepN; i++ {
		f.Observe(i%indepK, items(i))
		if i%777 == 0 {
			res.answers = append(res.answers, f.Estimate(0))
		}
	}
	for _, j := range []int64{0, 1, 7, 50, 199} {
		res.answers = append(res.answers, f.Estimate(j))
	}
	res.metrics = f.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runRank(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	r := NewRankTracker(Options{K: indepK, Epsilon: indepEps, Seed: indepSeed,
		Algorithm: alg, Transport: tr})
	defer r.Close()
	tap := newDigestTap(indepK)
	r.eng.SetTap(tap)
	values := workload.PermValues(indepN, stats.New(17))
	var res runResult
	for i := 0; i < indepN; i++ {
		r.Observe(i%indepK, values(i))
		if i%777 == 0 {
			res.answers = append(res.answers, r.Rank(float64(indepN)/2))
		}
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		res.answers = append(res.answers, r.Rank(q*indepN))
	}
	res.answers = append(res.answers, r.Quantile(0.5, 0, indepN))
	res.metrics = r.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runCountAlg(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	c := NewCountTracker(Options{K: indepK, Epsilon: indepEps, Seed: indepSeed,
		Algorithm: alg, Transport: tr})
	defer c.Close()
	tap := newDigestTap(indepK)
	c.eng.SetTap(tap)
	var res runResult
	for i := 0; i < indepN; i++ {
		c.Observe(i % indepK)
		if i%777 == 0 {
			res.answers = append(res.answers, c.Estimate())
		}
	}
	res.answers = append(res.answers, c.Estimate())
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runCountRobust(t *testing.T, tr Transport) runResult {
	t.Helper()
	c := NewCountTracker(Options{K: indepK, Epsilon: indepEps, Seed: indepSeed,
		Robust: true, Transport: tr})
	defer c.Close()
	tap := newDigestTap(indepK)
	c.eng.SetTap(tap)
	var res runResult
	for i := 0; i < indepN; i++ {
		c.Observe(i % indepK)
		if i%777 == 0 {
			res.answers = append(res.answers, c.Estimate())
		}
	}
	res.answers = append(res.answers, c.Estimate())
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

// TestTransportIndependence pins the tentpole contract: all three trackers
// times all three algorithms behave bit-identically on all three
// transports — same query answers at every checkpoint, same message/word/
// broadcast/space accounting, same per-link message sequences.
func TestTransportIndependence(t *testing.T) {
	algs := []Algorithm{AlgorithmRandomized, AlgorithmDeterministic, AlgorithmSampling}
	for _, alg := range algs {
		alg := alg
		t.Run("count/"+alg.String(), func(t *testing.T) {
			compareTransports(t, func(tr Transport) runResult { return runCountAlg(t, alg, tr) })
		})
		t.Run("freq/"+alg.String(), func(t *testing.T) {
			compareTransports(t, func(tr Transport) runResult { return runFreq(t, alg, tr) })
		})
		t.Run("rank/"+alg.String(), func(t *testing.T) {
			compareTransports(t, func(tr Transport) runResult { return runRank(t, alg, tr) })
		})
	}
}

// Tree-topology independence: a 2-level tree mounts one fabric per group
// plus one for the root, all of the selected transport kind. The tree link
// space is leaves 0..k-1 then root links k..k+groups-1 (see
// runtime.Tree.SetTap), so the digest tap covers every edge of the tree —
// the virtual-arrival re-aggregation must replay bit-identically on every
// fabric, level by level.
const (
	treeK      = 8
	treeFanout = 4
	treeGroups = (treeK + treeFanout - 1) / treeFanout
)

func treeOpts(alg Algorithm, tr Transport) Options {
	return Options{K: treeK, Epsilon: indepEps, Seed: indepSeed, Algorithm: alg,
		Transport: tr, Topology: TopologyTree, Fanout: treeFanout}
}

func runTreeCount(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	c := NewCountTracker(treeOpts(alg, tr))
	defer c.Close()
	tap := newDigestTap(treeK + treeGroups)
	c.eng.SetTap(tap)
	var res runResult
	for i := 0; i < indepN; i++ {
		c.Observe(i % treeK)
		if i%777 == 0 {
			res.answers = append(res.answers, c.Estimate())
		}
	}
	res.answers = append(res.answers, c.Estimate())
	res.metrics = c.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runTreeFreq(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	f := NewFrequencyTracker(treeOpts(alg, tr))
	defer f.Close()
	tap := newDigestTap(treeK + treeGroups)
	f.eng.SetTap(tap)
	items := workload.ZipfItems(200, 1.2, stats.New(99))
	var res runResult
	for i := 0; i < indepN; i++ {
		f.Observe(i%treeK, items(i))
		if i%777 == 0 {
			res.answers = append(res.answers, f.Estimate(0))
		}
	}
	for _, j := range []int64{0, 1, 7, 50, 199} {
		res.answers = append(res.answers, f.Estimate(j))
	}
	res.metrics = f.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

func runTreeRank(t *testing.T, alg Algorithm, tr Transport) runResult {
	t.Helper()
	r := NewRankTracker(treeOpts(alg, tr))
	defer r.Close()
	tap := newDigestTap(treeK + treeGroups)
	r.eng.SetTap(tap)
	values := workload.PermValues(indepN, stats.New(17))
	var res runResult
	for i := 0; i < indepN; i++ {
		r.Observe(i%treeK, values(i))
		if i%777 == 0 {
			res.answers = append(res.answers, r.Rank(float64(indepN)/2))
		}
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		res.answers = append(res.answers, r.Rank(q*indepN))
	}
	res.answers = append(res.answers, r.Quantile(0.5, 0, indepN))
	res.metrics = r.Metrics()
	res.linkSig, res.linkMsgs = tap.signature()
	return res
}

// compareTransportsTree is compareTransports minus the coordinator-space
// high-water mark: the root fabric is fed through the batch path (virtual
// arrivals arrive as runs), whose probe instants legitimately differ
// between the sequential and concurrent fabrics — the same documented
// cadence difference TestTransportIndependenceBatched excludes. Everything
// else — per-link sequences, per-level counters, answers — must match
// exactly.
func compareTransportsTree(t *testing.T, run func(Transport) runResult) {
	t.Helper()
	base := run(TransportSequential)
	if base.metrics.Messages == 0 || base.metrics.Arrivals == 0 {
		t.Fatal("baseline run exchanged no messages")
	}
	for _, tr := range allTransports[1:] {
		got := run(tr)
		b, g := base, got
		b.metrics.MaxCoordSpace, g.metrics.MaxCoordSpace = 0, 0
		if what, ok := equalResults(b, g); !ok {
			t.Errorf("transport %v diverged from sequential in %s:\nseq: %+v\ngot: %+v",
				tr, what, base.metrics, got.metrics)
		}
	}
}

// TestTransportIndependenceTree extends the tentpole contract to the
// 2-level tree topology: identical per-link FNV message sequences on every
// edge (site↔aggregator and aggregator↔root), identical Metrics including
// the per-level counters, and identical query answers across
// sequential/goroutine/tcp.
func TestTransportIndependenceTree(t *testing.T) {
	t.Run("count/randomized", func(t *testing.T) {
		compareTransportsTree(t, func(tr Transport) runResult { return runTreeCount(t, AlgorithmRandomized, tr) })
	})
	t.Run("count/deterministic", func(t *testing.T) {
		compareTransportsTree(t, func(tr Transport) runResult { return runTreeCount(t, AlgorithmDeterministic, tr) })
	})
	t.Run("count/sampling", func(t *testing.T) {
		compareTransportsTree(t, func(tr Transport) runResult { return runTreeCount(t, AlgorithmSampling, tr) })
	})
	t.Run("freq/randomized", func(t *testing.T) {
		compareTransportsTree(t, func(tr Transport) runResult { return runTreeFreq(t, AlgorithmRandomized, tr) })
	})
	t.Run("rank/randomized", func(t *testing.T) {
		compareTransportsTree(t, func(tr Transport) runResult { return runTreeRank(t, AlgorithmRandomized, tr) })
	})
}

// TestTransportIndependenceRobust pins the robust mode across transports:
// every noise draw is seeded (per-site report noise, coordinator release
// noise), so the noised message sequences, released answers, and Metrics
// must be bit-identical on all three fabrics.
func TestTransportIndependenceRobust(t *testing.T) {
	compareTransports(t, func(tr Transport) runResult { return runCountRobust(t, tr) })
}

// TestTransportIndependenceBoosted covers the median-boosted multiplexer
// (boost.Msg copy routing) across transports.
func TestTransportIndependenceBoosted(t *testing.T) {
	compareTransports(t, func(tr Transport) runResult { return runCount(t, tr, 3, false) })
}

// TestTransportIndependenceBatched covers the ObserveBatch fast path: the
// chunked injection must behave identically on every fabric. Space
// high-water marks are probed at different instants on the batch path
// (the sequential transport splits chunks at probe boundaries; the
// concurrent ones probe after quiescence), so they are excluded here.
func TestTransportIndependenceBatched(t *testing.T) {
	base := runCount(t, TransportSequential, 0, true)
	for _, tr := range allTransports[1:] {
		got := runCount(t, tr, 0, true)
		b, g := base, got
		b.metrics.MaxSiteSpace, g.metrics.MaxSiteSpace = 0, 0
		b.metrics.MaxCoordSpace, g.metrics.MaxCoordSpace = 0, 0
		if what, ok := equalResults(b, g); !ok {
			t.Errorf("transport %v diverged from sequential in %s", tr, what)
		}
	}
}

func compareTransports(t *testing.T, run func(Transport) runResult) {
	t.Helper()
	base := run(TransportSequential)
	if base.metrics.Messages == 0 || base.metrics.Arrivals == 0 {
		t.Fatal("baseline run exchanged no messages")
	}
	for _, ans := range base.answers {
		if math.IsNaN(ans) {
			t.Fatal("baseline produced NaN answer")
		}
	}
	for _, tr := range allTransports[1:] {
		got := run(tr)
		if what, ok := equalResults(base, got); !ok {
			t.Errorf("transport %v diverged from sequential in %s:\nseq: %+v\ngot: %+v",
				tr, what, base.metrics, got.metrics)
		}
	}
}

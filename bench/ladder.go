package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"disttrack"
	"disttrack/internal/count"
	"disttrack/internal/experiments"
	"disttrack/internal/freq"
	"disttrack/internal/ingest"
	"disttrack/internal/netsim"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/sim"
	"disttrack/internal/stats"
	"disttrack/internal/summary/merge"
	"disttrack/internal/summary/spacesaving"
	"disttrack/internal/summary/sticky"
	"disttrack/internal/wire"
)

// The ladder replays one epoch's stream at each layer's exported
// constructors, one layer further up the stack per rung, because below the
// facade the benchmark cannot interpose inside a single run. Rungs on the
// workload's own path replay the whole epoch so that they compare directly
// with the workload; layers the workload bypasses are probed over probeElems
// elements, which is enough for a per-element cost.
const probeElems = 256 << 10

// tcpProbeSites caps the star the TCP probe dials: a socket pair per site,
// and the descriptor budget of the box is not the benchmark's to spend.
const tcpProbeSites = 64

// at returns event i's payload; columns a stream lacks read as zero.
func (st *stream) at(i int) (item int64, value float64) {
	if st.items != nil {
		item = st.items[i]
	}
	if st.values != nil {
		value = st.values[i]
	}
	return
}

// buildProto assembles the workload's flat protocol from the protocol
// package's own constructor, with the query closure of its coordinator.
func buildProto(p problem, k int, eps float64, seed uint64) (proto.Protocol, func(q query) float64) {
	switch p {
	case probCount:
		pr, c := count.NewProtocol(count.Config{K: k, Eps: eps}, seed)
		return pr, func(query) float64 { return c.Estimate() }
	case probFreq:
		pr, c := freq.NewProtocol(freq.Config{K: k, Eps: eps}, seed)
		return pr, func(q query) float64 { return c.Estimate(q.Item) }
	default:
		pr, c := rank.NewProtocol(rank.Config{K: k, Eps: eps}, seed)
		return pr, func(q query) float64 {
			if q.Kind == qQuantile {
				return c.Quantile(q.X, 0, valueHi)
			}
			return c.Rank(q.X)
		}
	}
}

func buildTree(p problem, k int, eps float64, fanout int, seed uint64) proto.Tree {
	switch p {
	case probCount:
		t, _ := count.NewTreeProtocol(count.Config{K: k, Eps: eps}, fanout, seed)
		return t
	case probFreq:
		t, _ := freq.NewTreeProtocol(freq.Config{K: k, Eps: eps}, fanout, seed)
		return t
	default:
		t, _ := rank.NewTreeProtocol(rank.Config{K: k, Eps: eps}, fanout, seed)
		return t
	}
}

// recorder is a runtime.Tap for the sequential transport: it notes which
// arrivals set off a cascade and keeps every message as its wire frame (a
// deep copy, and the input of the wire and persist probes).
type recorder struct {
	cur       int32 // arrival being injected, set by the feeding loop
	cascadeAt []int32
	msgs      int
	keep      bool
	frames    []byte
	up        []bool
	link      []int32
	err       error
}

func (r *recorder) note(up bool, link int, m proto.Message) {
	if n := len(r.cascadeAt); n == 0 || r.cascadeAt[n-1] != r.cur {
		r.cascadeAt = append(r.cascadeAt, r.cur)
	}
	r.msgs++
	if !r.keep {
		return
	}
	var err error
	if r.frames, err = wire.AppendFrame(r.frames, m); err != nil && r.err == nil {
		r.err = err
	}
	r.up = append(r.up, up)
	r.link = append(r.link, int32(link))
}

func (r *recorder) Up(from int, m proto.Message) { r.note(true, from, m) }
func (r *recorder) Down(to int, m proto.Message) { r.note(false, to, m) }

// record replays the first n events on the sequential transport under a
// recording tap. mod folds sites into a smaller star (0 = as generated).
func record(p proto.Protocol, st *stream, n, mod int, keep bool) *recorder {
	rec := &recorder{keep: keep}
	h := sim.New(p)
	h.SetTap(rec)
	for i := 0; i < n; i++ {
		rec.cur = int32(i)
		item, value := st.at(i)
		h.Arrive(siteOf(st, i, mod), item, value)
	}
	return rec
}

func siteOf(st *stream, i, mod int) int {
	s := int(st.sites[i])
	if mod > 0 {
		s %= mod
	}
	return s
}

// cascadeTimes is what timeCascades measures on one transport.
type cascadeTimes struct {
	quietNs   float64   // per arrival that moved no message
	cascadeUS []float64 // per arrival that moved at least one
	totalNs   float64   // per arrival, all of them
}

// timeCascades replays the first n events on t, timing the quiet stretches
// in bulk and every cascading arrival on its own. Which arrivals cascade is
// known in advance from a sequential recording of the same protocol and
// seed: every transport delivers the same message sequence.
func timeCascades(t runtime.Transport, st *stream, n, mod int, cascadeAt []int32) cascadeTimes {
	var ct cascadeTimes
	var quiet time.Duration
	quietN, ci := 0, 0
	start := time.Now()
	for i := 0; i < n; {
		next := n
		if ci < len(cascadeAt) {
			next = int(cascadeAt[ci])
		}
		if next > i {
			t0 := time.Now()
			quietN += next - i
			for ; i < next; i++ {
				item, value := st.at(i)
				t.Arrive(siteOf(st, i, mod), item, value)
			}
			quiet += time.Since(t0)
		}
		if i < n {
			item, value := st.at(i)
			t0 := time.Now()
			t.Arrive(siteOf(st, i, mod), item, value)
			ct.cascadeUS = append(ct.cascadeUS, float64(time.Since(t0))/1e3)
			i++
			ci++
		}
	}
	ct.totalNs = float64(time.Since(start)) / float64(n)
	if quietN > 0 {
		ct.quietNs = float64(quiet) / float64(quietN)
	}
	return ct
}

// ladder carries one traced run's probes.
type ladder struct {
	sp   spec
	st   *stream
	seed uint64 // protocol seed of every rung (epoch 0's)
	res  *runResult
	tmp  string
	rows []ladderRow

	simNs float64   // rung 1: ns per arrival on internal/sim, whole epoch
	rec   *recorder // probeElems of kept messages from the flat protocol
}

func (l *ladder) row(rung string, ns, prev float64, note string) {
	l.rows = append(l.rows, ladderRow{Rung: rung, NsPerElem: ns, DeltaNs: ns - prev, Note: note})
}

// probeProto is rung 1: the protocol package on internal/sim, nothing else.
func (l *ladder) probeProto() {
	sp, st := l.sp, l.st
	n := len(st.sites)
	k, eps := sp.Opt.K, sp.Opt.Epsilon
	p, ask := buildProto(sp.Problem, k, eps, l.seed)
	h := sim.New(p)
	var arrive time.Duration
	var queryUS []float64
	pos := 0
	for _, q := range st.queries {
		t0 := time.Now()
		for ; pos < int(q.N); pos++ {
			item, value := st.at(pos)
			h.Arrive(int(st.sites[pos]), item, value)
		}
		t1 := time.Now()
		ask(q)
		arrive += t1.Sub(t0)
		queryUS = append(queryUS, float64(time.Since(t1))/1e3)
	}
	h.Probe()
	m := h.Metrics()
	kelem := float64(n) / 1000
	l.simNs = float64(arrive) / float64(n)
	alg := experiments.RowConfig{Problem: experiments.Problem(sp.Problem.String()),
		Alg: experiments.Randomized, K: k, Eps: eps, N: n}
	l.res.set("proto.arrive_ns", l.simNs)
	l.res.set("proto.query_us", median(queryUS))
	l.res.set("proto.words_up_per_kelem", float64(m.WordsUp)/kelem)
	l.res.set("proto.words_down_per_kelem", float64(m.WordsDown)/kelem)
	l.res.set("proto.broadcasts_per_epoch", float64(m.Broadcasts))
	l.res.set("proto.site_space_words", float64(m.MaxSiteSpace))
	l.res.set("proto.coord_space_words", float64(m.MaxCoordSpace))
	l.res.set("proto.bound_ratio", float64(m.Words())/experiments.AnalyticWords(alg))

	p2, _ := buildProto(sp.Problem, k, eps, l.seed)
	l.rec = record(p2, st, min(n, probeElems), 0, true)
	if l.rec.err != nil {
		l.res.Gate = append(l.res.Gate, "recording: "+l.rec.err.Error())
	}
}

// facadeSeqNs is rung 2: the same epoch through the public facade on the
// sequential transport, without queries.
func (l *ladder) facadeSeqNs() float64 {
	opt := disttrack.Options{K: l.sp.Opt.K, Epsilon: l.sp.Opt.Epsilon, Seed: l.seed}
	tk := newTracker(l.sp.Problem, opt)
	n := len(l.st.sites)
	t0 := time.Now()
	tk.observe(l.st, 0, n)
	ns := float64(time.Since(t0)) / float64(n)
	tk.Close()
	return ns
}

// probeFabric times a Fabric-based transport built from its own package's
// constructor. It returns ns per arrival over the n events it replayed.
func (l *ladder) probeFabric(prefix string, n, mod int, start func(proto.Protocol) (runtime.Transport, error)) float64 {
	sp := l.sp
	k := sp.Opt.K
	if mod > 0 {
		k = mod
	}
	p, _ := buildProto(sp.Problem, k, sp.Opt.Epsilon, l.seed)
	rec := record(p, l.st, n, mod, false)
	p, _ = buildProto(sp.Problem, k, sp.Opt.Epsilon, l.seed)
	t, err := start(p)
	if err != nil {
		l.res.Gate = append(l.res.Gate, prefix+" probe: "+err.Error())
		return 0
	}
	ct := timeCascades(t, l.st, n, mod, rec.cascadeAt)
	t0 := time.Now()
	const quiesces = 1000
	for i := 0; i < quiesces; i++ {
		t.Quiesce()
	}
	quiesceUS := float64(time.Since(t0)) / quiesces / 1e3
	got := t.Metrics()
	t.Close()
	if got.Messages() != int64(rec.msgs) {
		l.res.Gate = append(l.res.Gate, fmt.Sprintf("%s probe carried %d messages, the sequential recording %d",
			prefix, got.Messages(), rec.msgs))
	}
	c := summarize(ct.cascadeUS, 99)
	l.res.set(prefix+".arrive_quiet_ns", ct.quietNs)
	l.res.set(prefix+".cascade_us_p50", c.P50)
	l.res.set(prefix+".cascade_us_p99", c.Tail)
	if prefix == "fabric" {
		l.res.set("fabric.msgs_per_cascade", float64(rec.msgs)/float64(max(1, len(rec.cascadeAt))))
		l.res.set("fabric.quiesce_us", quiesceUS)
	}
	return ct.totalNs
}

func startNetsim(p proto.Protocol) (runtime.Transport, error) { return netsim.Start(p), nil }
func startTCP(p proto.Protocol) (runtime.Transport, error)    { return tcp.StartLoopback(p) }

// probeTCPSetup times loopback start and close by themselves.
func (l *ladder) probeTCPSetup() {
	k := min(l.sp.Opt.K, tcpProbeSites)
	var setup, closing []float64
	for i := 0; i < 5; i++ {
		p, _ := buildProto(l.sp.Problem, k, l.sp.Opt.Epsilon, l.seed)
		t0 := time.Now()
		t, err := tcp.StartLoopback(p)
		t1 := time.Now()
		if err != nil {
			l.res.Gate = append(l.res.Gate, "tcp set-up probe: "+err.Error())
			return
		}
		t.Close()
		setup = append(setup, float64(t1.Sub(t0))/1e6)
		closing = append(closing, float64(time.Since(t1))/1e6)
	}
	l.res.set("tcp.setup_ms", median(setup))
	l.res.set("tcp.close_ms", median(closing))
}

// probeTree mounts the workload's protocol as a two-level tree on goroutine
// fabrics. It returns ns per arrival over the n events it replayed.
func (l *ladder) probeTree(n int) float64 {
	sp := l.sp
	fanout := sp.Opt.Fanout
	if fanout == 0 {
		fanout = int(math.Ceil(math.Sqrt(float64(sp.Opt.K))))
	}
	mk := func(p proto.Protocol) (runtime.Transport, error) { return netsim.Start(p), nil }
	var setup []float64
	var tr *runtime.Tree
	for i := 0; i < 3; i++ {
		if tr != nil {
			tr.Close()
		}
		tp := buildTree(sp.Problem, sp.Opt.K, sp.Opt.Epsilon, fanout, l.seed)
		t0 := time.Now()
		var err error
		if tr, err = runtime.NewTree(tp, mk); err != nil {
			l.res.Gate = append(l.res.Gate, "tree probe: "+err.Error())
			return 0
		}
		setup = append(setup, float64(time.Since(t0))/1e6)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		item, value := l.st.at(i)
		tr.Arrive(int(l.st.sites[i]), item, value)
	}
	ns := float64(time.Since(t0)) / float64(n)
	tr.Quiesce()
	leaf, root := tr.LevelMetrics()
	tr.Close()
	// the flat star over the same n events, for the fan-in ratio
	p, _ := buildProto(sp.Problem, sp.Opt.K, sp.Opt.Epsilon, l.seed)
	flat := record(p, l.st, n, 0, false)
	kelem := float64(n) / 1000
	l.res.set("tree.arrive_ns", ns)
	l.res.set("tree.leaf_msgs_per_kelem", float64(leaf.Messages())/kelem)
	l.res.set("tree.root_msgs_per_kelem", float64(root.Messages())/kelem)
	l.res.set("tree.fanin_ratio", float64(flat.msgs)/float64(max(1, root.Messages())))
	l.res.set("tree.setup_ms", median(setup))
	return ns
}

// frameLen reads a wire frame's little-endian length prefix.
func frameLen(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// decoded returns the recording's messages as owned values.
func (l *ladder) decoded() ([]proto.Message, error) {
	var out []proto.Message
	b := l.rec.frames
	for len(b) > 0 {
		n := frameLen(b)
		m, _, err := wire.Decode(b[4 : 4+n])
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		b = b[4+n:]
	}
	return out, nil
}

// probeWire pushes the recorded messages through the codec.
func (l *ladder) probeWire(msgs []proto.Message) {
	if len(msgs) == 0 {
		return
	}
	const passes = 8
	var buf []byte
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		buf = buf[:0]
		for _, m := range msgs {
			buf, _ = wire.AppendFrame(buf, m)
		}
	}
	appendNs := float64(time.Since(t0)) / float64(passes*len(msgs))
	var dec wire.Decoder
	t0 = time.Now()
	for pass := 0; pass < passes; pass++ {
		for b := buf; len(b) > 0; {
			n := frameLen(b)
			dec.Decode(b[4 : 4+n])
			b = b[4+n:]
		}
	}
	decodeNs := float64(time.Since(t0)) / float64(passes*len(msgs))
	l.res.set("wire.append_ns_per_msg", appendNs)
	l.res.set("wire.decode_ns_per_msg", decodeNs)
	l.res.set("wire.bytes_per_msg", float64(len(buf))/float64(len(msgs)))
	l.res.set("wire.bytes_per_kelem", float64(len(buf))*1000/float64(min(len(l.st.sites), probeElems)))
}

// probeSummaries feeds the workload's items and values into one summary of
// each kind, by itself.
func (l *ladder) probeSummaries() {
	n := min(len(l.st.sites), probeElems)
	eps := l.sp.Opt.Epsilon
	items, values := l.st.items[:n], l.st.values[:n]

	sl := sticky.New(eps, stats.New(l.seed))
	every := int(1 / eps)
	t0 := time.Now()
	for i, it := range items {
		if sl.Bump(it) == 0 && i%every == 0 {
			sl.Insert(it)
		}
	}
	l.res.set("summary.sticky_bump_ns", float64(time.Since(t0))/float64(n))

	ss := spacesaving.New(int(math.Ceil(1 / eps)))
	t0 = time.Now()
	for _, it := range items {
		ss.Add(it)
	}
	l.res.set("summary.spacesaving_add_ns", float64(time.Since(t0))/float64(n))

	ms := merge.New(16, stats.New(l.seed))
	t0 = time.Now()
	for _, v := range values {
		ms.Insert(v)
	}
	l.res.set("summary.merge_insert_ns", float64(time.Since(t0))/float64(n))
	const snaps = 1000
	var words int
	t0 = time.Now()
	for i := 0; i < snaps; i++ {
		words += ms.Snapshot().Words()
	}
	l.res.set("summary.merge_snapshot_us", float64(time.Since(t0))/snaps/1e3)
	_ = words
}

// nopFeeder is the far side of the ingest probe: it counts what the
// drainer hands over and does nothing with it.
type nopFeeder struct{ calls, elems atomic.Int64 }

func (f *nopFeeder) ArriveBatch(site int, item int64, value float64, count int64) {
	f.calls.Add(1)
	f.elems.Add(count)
}

// probeIngest drives the concurrent frontend alone: two producers, a no-op
// feeder, and a querier sampling the quiescent-window wait under that load.
func (l *ladder) probeIngest() {
	n := min(len(l.st.sites), probeElems)
	var feeder nopFeeder
	fe := ingest.New(&feeder, l.sp.Opt.K, ingest.Options{})
	const producers = 2
	var wg sync.WaitGroup
	var busy [producers]time.Duration
	var done atomic.Bool
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i := w; i < n; i += producers {
				item, value := l.st.at(i)
				fe.Observe(int(l.st.sites[i]), item, value)
			}
			busy[w] = time.Since(t0)
		}()
	}
	var waitUS []float64
	go func() { wg.Wait(); done.Store(true) }()
	for !done.Load() {
		t0 := time.Now()
		fe.Query(func() {})
		waitUS = append(waitUS, float64(time.Since(t0))/1e3)
		time.Sleep(50 * time.Microsecond)
	}
	t0 := time.Now()
	err := fe.Flush()
	flushUS := float64(time.Since(t0)) / 1e3
	if cerr := fe.Close(); err == nil {
		err = cerr
	}
	if err != nil || feeder.elems.Load() != int64(n) {
		l.res.Gate = append(l.res.Gate, fmt.Sprintf("ingest probe: fed %d of %d elements, %v", feeder.elems.Load(), n, err))
	}
	l.res.set("ingest.observe_ns", float64(busy[0]+busy[1])/float64(n))
	l.res.set("ingest.runs_per_kelem", float64(feeder.calls.Load())*1000/float64(n))
	l.res.set("ingest.query_wait_us", median(waitUS))
	l.res.set("ingest.flush_us", flushUS)
}

// probePersist logs the recorded coordinator-bound messages through a
// Logger over a disk store, applying each to a live coordinator the way the
// transports' log-before-apply hook does, then seals and recovers it.
// storeDir, when set, is a store a real run left behind: recovery is then
// timed on that one.
func (l *ladder) probePersist(msgs []proto.Message, storeDir string) {
	dir := filepath.Join(l.tmp, "persist-probe")
	fail := func(err error) { l.res.Gate = append(l.res.Gate, "persist probe: "+err.Error()) }
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
		return
	}
	store, err := persist.OpenDisk(dir)
	if err != nil {
		fail(err)
		return
	}
	k, eps := l.sp.Opt.K, l.sp.Opt.Epsilon
	p, _ := buildProto(l.sp.Problem, k, eps, l.seed)
	lg := persist.NewLogger(store, p.Coord, 0, nil)
	noSend, noCast := func(int, proto.Message) {}, func(proto.Message) {}
	var logged, walBytes int
	var logging time.Duration
	var scratch []byte
	for i, m := range msgs {
		if !l.rec.up[i] {
			continue
		}
		from := int(l.rec.link[i])
		t0 := time.Now()
		err := lg.Log(from, m)
		logging += time.Since(t0)
		if err != nil {
			fail(err)
			return
		}
		p.Coord.Receive(from, m, noSend, noCast)
		logged++
		// the Logger's frame, encoded again off the clock for its size
		scratch, _ = wire.AppendFrame(scratch[:0], wire.Logged{From: from, Msg: m})
		walBytes += len(scratch)
	}
	t0 := time.Now()
	if err := lg.Snapshot(); err != nil {
		fail(err)
	}
	t1 := time.Now()
	if err := lg.Sync(); err != nil {
		fail(err)
	}
	t2 := time.Now()
	store.Close()

	if storeDir == "" {
		storeDir = dir
	}
	re, err := persist.OpenDisk(storeDir)
	if err != nil {
		fail(err)
		return
	}
	fresh, _ := buildProto(l.sp.Problem, k, eps, l.seed)
	t3 := time.Now()
	if _, err := persist.Recover(re, fresh.Coord, nil); err != nil {
		fail(err)
	}
	recoverMS := float64(time.Since(t3)) / 1e6
	re.Close()

	elems := float64(min(len(l.st.sites), probeElems))
	l.res.set("persist.log_ns_per_frame", float64(logging)/float64(max(1, logged)))
	l.res.set("persist.snapshot_ms", float64(t1.Sub(t0))/1e6)
	l.res.set("persist.sync_ms", float64(t2.Sub(t1))/1e6)
	l.res.set("persist.wal_bytes_per_kelem", float64(walBytes)*1000/elems)
	l.res.set("persist.recover_ms", recoverMS)
}

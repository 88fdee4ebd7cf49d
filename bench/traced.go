package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"disttrack"
)

// runTraced is the separate, traced run. It replays the epoch at the bottom
// of the ladder (the protocol on internal/sim), runs the workload itself
// under spans next to an untraced twin (their difference is the tracing
// overhead), then probes every other layer over the same stream. It reports
// every per-layer metric and writes the span file.
func runTraced(sp spec, seed uint64, seconds float64, outDir string) *runResult {
	res := newResult(sp, seed, seconds, true)
	genStart := time.Now()
	st := genStream(sp, seed, true)
	res.Detail.GenS = time.Since(genStart).Seconds()
	res.Detail.StreamDigest = st.digest()
	tmp, err := os.MkdirTemp(mkOut(outDir), "probe-"+sp.Name+"-")
	if err != nil {
		res.Gate = append(res.Gate, "temp dir: "+err.Error())
		return res
	}
	defer os.RemoveAll(tmp)
	tr := newTracer()
	l := &ladder{sp: sp, st: st, seed: epochSeed(seed, 0), res: res, tmp: tmp}
	l.probeProto()

	var sh shares
	var ownNs float64 // the workload's own ns per element, queries excluded
	var storeDir string
	if sp.HTTP == nil {
		ownNs, sh = l.tracedLibrary(tr, seconds*0.3)
	} else {
		hs := sp
		hs.ExactEpochs = 0 // the count metrics are the untraced run's business
		run := runHTTP(hs, seed, seconds*0.45, tmp, tr)
		twin := runHTTP(hs, seed, seconds*0.2, tmp, nil) // same traffic, no spans or instruments
		l.absorb(run.result)
		l.absorb(twin.result)
		l.serveMetrics(run)
		for k, v := range run.facade {
			res.set("facade."+k, v)
		}
		o := summarize(run.probe.observeNsPerElem, 99)
		res.set("facade.observe_ns_per_elem_p50", o.P50)
		res.set("facade.observe_ns_per_elem_p99", o.Tail)
		res.set("facade.query_us", median(run.probe.backendUS[reqQuery]))
		res.set("trace.overhead_share", 1-run.reqPerS/twin.reqPerS)
		storeDir = run.storeDir
		sh = httpShares(tr)
		ownNs = 1e3 / run.result.Metrics["ingest_melems_per_s"].Value
	}

	// the rungs above the protocol
	facadeNs := ownNs
	if sp.HTTP != nil || sp.Opt.Transport != disttrack.TransportSequential {
		facadeNs = l.facadeSeqNs()
	}
	n := len(st.sites)
	flatGoroutine := sp.Opt.Transport == disttrack.TransportGoroutine && sp.Opt.Topology == disttrack.TopologyFlat
	isTCP := sp.Opt.Transport == disttrack.TransportTCP
	isTree := sp.Opt.Topology == disttrack.TopologyTree
	pick := func(onPath bool) int { // whole epoch on the workload's path, a probe's worth off it
		if onPath {
			return n
		}
		return min(n, probeElems)
	}
	mod := 0
	if sp.Opt.K > tcpProbeSites {
		mod = tcpProbeSites
	}
	netNs := l.probeFabric("fabric", pick(flatGoroutine), 0, startNetsim)
	tcpNs := l.probeFabric("tcp", pick(isTCP), mod, startTCP)
	l.probeTCPSetup()
	treeNs := l.probeTree(pick(isTree))
	msgs, err := l.decoded()
	if err != nil {
		res.Gate = append(res.Gate, "decoding the recording: "+err.Error())
	}
	l.probeWire(msgs)
	l.probeSummaries()
	l.probeIngest()
	l.probePersist(msgs, storeDir)
	if sp.HTTP == nil {
		// the serve layer over this workload's problem, k and ε
		hsp := sp
		hsp.Name += "+serve"
		hsp.Opt = disttrack.Options{K: sp.Opt.K, Epsilon: sp.Opt.Epsilon, ConcurrentIngest: true}
		hsp.ExactEpochs = 0 // the probe wants the serve layer, not the count metrics
		hsp.HTTP = &httpSpec{Conns: 2, ObserveFrac: 0.80, QueryFrac: 0.18, BatchFrac: 0.10,
			BatchCount: 64, OpenRate: 2000, Setups: 2, Block: min(n, probeElems), Probe: true}
		run := runHTTP(hsp, seed, seconds*0.15, tmp, newTracer())
		l.absorb(run.result)
		l.serveMetrics(run)
	}

	// the budget table, rung by rung
	where := func(on bool) string {
		if on {
			return "on this workload's path, whole epoch"
		}
		return fmt.Sprintf("not on this workload's path; probe over %d elements", min(n, probeElems))
	}
	l.row("internal/"+sp.Problem.String()+" on internal/sim", l.simNs, 0, "whole epoch, queries excluded")
	l.row("+ disttrack facade (sequential)", facadeNs, l.simNs, "")
	l.row("+ internal/netsim fabric", netNs, l.simNs, where(flatGoroutine))
	l.row("+ runtime/tcp loopback + wire", tcpNs, l.simNs, where(isTCP))
	l.row("+ runtime.Tree over netsim", treeNs, l.simNs, where(isTree))
	l.row("= workload, queries excluded", ownNs, facadeNs, "")

	res.set("share.proto", sh.proto)
	res.set("share.facade", sh.facade)
	res.set("share.transport", sh.transport)
	res.set("share.serve_http", sh.serveHTTP)
	res.set("share.ingest_persist", sh.ingestPersist)

	self := map[string]float64{}
	for name, d := range selfTimes(tr.spans) {
		self[name] = float64(d) / 1e6
	}
	path := filepath.Join(mkOut(outDir), "trace-"+sp.Name+".json")
	if err := writeTrace(path, traceFile{Workload: sp.Name, Seed: seed, SelfMS: self, Ladder: l.rows, Spans: tr.spans}); err != nil {
		res.Gate = append(res.Gate, "writing the span file: "+err.Error())
	}
	res.Detail.TraceFile = path
	for _, r := range l.rows {
		fmt.Fprintf(os.Stderr, "ladder  %-42s %10.1f ns/elem %+10.1f  %s\n", r.Rung, r.NsPerElem, r.DeltaNs, r.Note)
	}
	return res
}

// absorb folds a sub-run's operations and gate failures into the traced
// run's own.
func (l *ladder) absorb(sub *runResult) {
	l.res.Attempted += sub.Attempted
	l.res.Failed += sub.Failed
	for _, g := range sub.Gate {
		l.res.Gate = append(l.res.Gate, sub.Detail.Workload+": "+g)
	}
}

// shares is where a workload's own wall time goes, by layer.
type shares struct{ proto, facade, transport, serveHTTP, ingestPersist float64 }

// tracedLibrary runs the library workload with every other epoch traced and
// reports the facade metrics. The spans stop at the facade, so the Observe
// time is split with the ladder: the protocol's share is what the same
// elements cost on internal/sim plus the queries; on the sequential
// transport the rest of Observe is the facade's; on the others the rest of
// everything — Observe, set-up, flush, ledger read, close — is the
// transport's.
func (l *ladder) tracedLibrary(tr *tracer, seconds float64) (ownNs float64, sh shares) {
	sp, res := l.sp, l.res
	r := &libRun{sp: sp, st: l.st, seed: res.Detail.Seed, tr: tr}
	begin := time.Now()
	for e := 0; e < 2 || time.Since(begin).Seconds() < seconds; e++ {
		r.epoch(e, e%2 == 1)
	}
	r.finish()
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Gate = append(res.Gate, r.gate...)
	res.Detail.Epochs = r.epochs

	perElem := make([]float64, len(r.chunkUS))
	var chunkSum float64
	for i, us := range r.chunkUS {
		perElem[i] = us * 1e3 / queryEvery
		chunkSum += us
	}
	ownNs = chunkSum * 1e3 / float64(len(r.chunkUS)*queryEvery)
	o := summarize(perElem, 99)
	res.set("facade.new_ms", median(r.setupS)*1e3)
	res.set("facade.observe_ns_per_elem_p50", o.P50)
	res.set("facade.observe_ns_per_elem_p99", o.Tail)
	res.set("facade.query_us", median(r.queryUS))
	res.set("facade.metrics_us", median(r.metricsUS))
	res.set("facade.flush_ms", median(r.flushMS))
	res.set("facade.close_ms", median(r.closeMS))
	res.set("facade.allocs_per_kelem", median(r.allocsPerKelem))
	res.set("facade.bytes_per_elem", median(r.bytesPerElem))
	res.set("facade.gc_pause_ms", median(r.gcPauseMS))
	res.set("trace.overhead_share", 1-median(r.tracedRate)/median(r.untracedRate))

	self := selfTimes(tr.spans)
	var total float64
	for _, d := range self {
		total += float64(d)
	}
	observe := float64(self["Observe x4096"])
	protoT := min(observe, l.simNs*observe/ownNs) + float64(self["query"])
	sh.proto = protoT / total
	if sp.Opt.Transport == disttrack.TransportSequential {
		sh.facade = (observe + float64(self["query"]) - protoT) / total
	}
	sh.transport = 1 - sh.proto - sh.facade
	return ownNs, sh
}

// httpShares reads the split straight off the request spans: the client
// span's self time is net/http, JSON and the kernel on both sides, the
// handler's self time is internal/serve, and the backend span is the ingest
// frontend (observe: staging; the WAL append happens on the drain path,
// off the request) or the protocol's query inside the quiescent window.
func httpShares(tr *tracer) shares {
	for _, kind := range reqKindName {
		adoptOrphans(tr.spans, "serve.backend."+kind, "serve.handler."+kind)
	}
	self := selfTimes(tr.spans)
	var total, serve float64
	for name, d := range self {
		total += float64(d)
		if strings.HasPrefix(name, "client.") || strings.HasPrefix(name, "serve.handler.") {
			serve += float64(d)
		}
	}
	if total == 0 {
		return shares{}
	}
	return shares{serveHTTP: serve / total,
		ingestPersist: float64(self["serve.backend.observe"]) / total,
		proto:         float64(self["serve.backend.query"]+self["serve.backend.metrics"]) / total}
}

// serveMetrics reports the serve layer's metrics from a traced HTTP run.
func (l *ladder) serveMetrics(run *httpRun) {
	res, p := l.res, run.probe
	res.set("http.floor_rtt_us", median(run.floorUS))
	res.set("serve.handler_observe_us", median(p.handlerUS[reqObserve]))
	res.set("serve.handler_query_us", median(p.handlerUS[reqQuery]))
	res.set("serve.handler_metrics_us", median(p.handlerUS[reqMetrics]))
	res.set("serve.backend_observe_us", median(p.backendUS[reqObserve]))
	res.set("serve.backend_query_us", median(p.backendUS[reqQuery]))
	res.set("serve.allocs_per_request", run.allocsPerReq)
	res.set("gen.lateness_p99_us", run.result.Detail.Timings["gen_lateness_us"].Tail)
}

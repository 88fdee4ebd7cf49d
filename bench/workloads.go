package main

import "disttrack"

// problem is the tracking problem a workload exercises.
type problem int

const (
	probCount problem = iota
	probFreq
	probRank
)

func (p problem) String() string { return [...]string{"count", "freq", "rank"}[p] }

// queryEvery is the mid-stream query cadence of the library workloads: one
// query per chunk of this many arrivals. It is also the unit a chunk-level
// observe latency is reported over.
const queryEvery = 4096

// spec is one workload with its frozen sizes. Everything a run does is a
// function of the spec and the seed; nothing here is tuned at run time, so
// two commits always execute the same work.
type spec struct {
	Name string
	// Why is the one-sentence reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why     string
	Problem problem
	Opt     disttrack.Options // Seed is overwritten per epoch

	// EpochElems is the length of one epoch (tumbling window): a fresh
	// tracker observes this many elements, then is flushed, queried,
	// audited and closed.
	EpochElems int
	// ExactEpochs is the fixed prefix of epochs every run completes
	// whatever the machine's speed. The count metrics (words, messages,
	// error) are computed over exactly these epochs, so at one seed they
	// repeat bit for bit; timing metrics use every epoch the run fits into
	// its -seconds.
	ExactEpochs int

	ItemZipf float64 // item skew over Universe (freq)
	Universe int
	SiteZipf float64 // site placement skew; 0 = uniform

	HTTP *httpSpec // non-nil: the run is driven over HTTP, not the library
}

// httpSpec freezes the traffic shape of an HTTP-driven workload.
type httpSpec struct {
	Conns       int     // keep-alive client connections (closed-loop clients)
	ObserveFrac float64 // share of POST /v1/observe
	QueryFrac   float64 // share of GET /v1/<problem>; the rest is GET /metrics
	BatchFrac   float64 // share of observes carrying count=BatchCount
	BatchCount  int
	// OpenRate is phase B's fixed open-loop rate in requests per second;
	// it must stay at or below half of phase A's measured capacity.
	OpenRate float64
	// Setups is how many times the serving stack is built and torn down
	// before the measured one, so setup_s is a median.
	Setups int
	// Block is the length of the event block the request schedule cycles
	// over.
	Block int
	// PhaseA ends phase A after this many requests when that comes before
	// its share of -seconds (0 = time only). A query costs what the
	// coordinator's state has grown to, so phase B must start from the same
	// number of elements on every run, not from however many a noisy phase A
	// got through.
	PhaseA int
	// Probe marks the short HTTP run a library workload's traced ladder
	// makes to measure the serve layer: its phases last a second or so, too
	// short to hold the generator to the checks a real run's latencies need.
	Probe bool
}

var specs = []spec{
	{
		Name:    "seq-freq",
		Why:     "protocol core alone: freq tracker on the sequential transport, so fabric, wire, ingest, persist and serve are bypassed and reads sit beside writes on one layer",
		Problem: probFreq,
		Opt:     disttrack.Options{K: 64, Epsilon: 0.01, Transport: disttrack.TransportSequential},

		EpochElems: 2 << 20, ExactEpochs: 24,
		ItemZipf: 1.2, Universe: 1 << 20,
	},
	{
		Name:    "seq-rank",
		Why:     "same layer as seq-freq used differently: summary merges and snapshot shipping instead of counter updates, the largest compute headroom in the repo",
		Problem: probRank,
		Opt:     disttrack.Options{K: 64, Epsilon: 0.02, Transport: disttrack.TransportSequential},

		EpochElems: 1 << 20, ExactEpochs: 12,
	},
	{
		Name:    "tcp-count",
		Why:     "bare forwarding at the smallest packet: cheapest core over TCP loopback, so Fabric, runtime/tcp, wire and the kernel are nearly all of the time",
		Problem: probCount,
		Opt:     disttrack.Options{K: 64, Epsilon: 0.01, Transport: disttrack.TransportTCP},

		EpochElems: 2 << 20, ExactEpochs: 6,
	},
	{
		Name:    "tree-count",
		Why:     "scale-out k on mailboxes: runtime.Tree over 33 goroutine fabrics with hot shards, which uses the Fabric differently from tcp-count",
		Problem: probCount,
		Opt: disttrack.Options{K: 1024, Epsilon: 0.05, Transport: disttrack.TransportGoroutine,
			Topology: disttrack.TopologyTree, Fanout: 32},

		EpochElems: 2 << 20, ExactEpochs: 12,
		SiteZipf: 1.0,
	},
	{
		Name:    "http-freq",
		Why:     "the path a service user touches: net/http, JSON and serve over concurrent ingest with a disk WAL, where protocol work is negligible and should not move the result",
		Problem: probFreq,
		Opt: disttrack.Options{K: 16, Epsilon: 0.01, Transport: disttrack.TransportGoroutine,
			ConcurrentIngest: true},

		// the epochs are the sequential replay the count metrics come from
		EpochElems: 1 << 20, ExactEpochs: 8,
		ItemZipf: 1.2, Universe: 1 << 20,
		HTTP: &httpSpec{Conns: 2, ObserveFrac: 0.80, QueryFrac: 0.18,
			BatchFrac: 0.10, BatchCount: 64, OpenRate: 10000, Setups: 15, Block: 256 << 10,
			PhaseA: 200_000},
	},
}

// findSpec returns the named workload.
func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to 1/128 of its size with every
// correctness gate left on.
func (s spec) smoke() spec {
	s.EpochElems /= 128
	s.ExactEpochs = 1
	if s.HTTP != nil {
		h := *s.HTTP
		h.Setups = 2
		h.Block /= 128
		h.PhaseA /= 128
		s.HTTP = &h
	}
	return s
}

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the metric set a user of the system would see. Every
// workload reports every one of them (see README for the per-workload
// definition of an "observe" and a "query").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_melems_per_s", "Melem/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"observe_p50_us", "us", "lower", 0.25},
	{"observe_p95_us", "us", "lower", 0.25},
	{"words_per_kelem", "count", "lower", 0.02},
	{"msgs_per_kelem", "count", "lower", 0.02},
	{"err_over_eps_mean", "ratio", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"drain_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics, one block per module.
var perLayer = []metricDef{
	// disttrack facade, from spans around the benchmark's own calls
	{Name: "facade.new_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.observe_ns_per_elem_p50", Unit: "ns", Better: "lower"},
	{Name: "facade.observe_ns_per_elem_p99", Unit: "ns", Better: "lower"},
	{Name: "facade.query_us", Unit: "us", Better: "lower"},
	{Name: "facade.metrics_us", Unit: "us", Better: "lower"},
	{Name: "facade.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.close_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.allocs_per_kelem", Unit: "count", Better: "lower"},
	{Name: "facade.bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "facade.gc_pause_ms", Unit: "ms", Better: "lower"},
	// internal/{count,freq,rank} on internal/sim
	{Name: "proto.arrive_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.query_us", Unit: "us", Better: "lower"},
	{Name: "proto.words_up_per_kelem", Unit: "count", Better: "lower"},
	{Name: "proto.words_down_per_kelem", Unit: "count", Better: "lower"},
	{Name: "proto.broadcasts_per_epoch", Unit: "count", Better: "lower"},
	{Name: "proto.site_space_words", Unit: "count", Better: "lower"},
	{Name: "proto.coord_space_words", Unit: "count", Better: "lower"},
	{Name: "proto.bound_ratio", Unit: "ratio", Better: "lower"},
	// internal/summary
	{Name: "summary.sticky_bump_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.spacesaving_add_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.merge_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.merge_snapshot_us", Unit: "us", Better: "lower"},
	// internal/runtime Fabric + netsim / runtime/tcp
	{Name: "fabric.arrive_quiet_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.cascade_us_p50", Unit: "us", Better: "lower"},
	{Name: "fabric.cascade_us_p99", Unit: "us", Better: "lower"},
	{Name: "fabric.msgs_per_cascade", Unit: "count", Better: "lower"},
	{Name: "fabric.quiesce_us", Unit: "us", Better: "lower"},
	{Name: "tcp.arrive_quiet_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.cascade_us_p50", Unit: "us", Better: "lower"},
	{Name: "tcp.cascade_us_p99", Unit: "us", Better: "lower"},
	{Name: "tcp.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "tcp.close_ms", Unit: "ms", Better: "lower"},
	// internal/wire
	{Name: "wire.append_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_kelem", Unit: "B", Better: "lower"},
	// internal/runtime Tree
	{Name: "tree.arrive_ns", Unit: "ns", Better: "lower"},
	{Name: "tree.leaf_msgs_per_kelem", Unit: "count", Better: "lower"},
	{Name: "tree.root_msgs_per_kelem", Unit: "count", Better: "lower"},
	{Name: "tree.fanin_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tree.setup_ms", Unit: "ms", Better: "lower"},
	// internal/ingest
	{Name: "ingest.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.runs_per_kelem", Unit: "count", Better: "lower"},
	{Name: "ingest.query_wait_us", Unit: "us", Better: "lower"},
	{Name: "ingest.flush_us", Unit: "us", Better: "lower"},
	// internal/persist
	{Name: "persist.log_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.wal_bytes_per_kelem", Unit: "B", Better: "lower"},
	{Name: "persist.recover_ms", Unit: "ms", Better: "lower"},
	// internal/serve + net/http
	{Name: "http.floor_rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_observe_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_metrics_us", Unit: "us", Better: "lower"},
	{Name: "serve.backend_observe_us", Unit: "us", Better: "lower"},
	{Name: "serve.backend_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "gen.lateness_p99_us", Unit: "us", Better: "lower"},
	// where the workload's own wall time goes, by layer (ladder deltas)
	{Name: "share.proto", Unit: "ratio", Better: "lower"},
	{Name: "share.facade", Unit: "ratio", Better: "lower"},
	{Name: "share.transport", Unit: "ratio", Better: "lower"},
	{Name: "share.serve_http", Unit: "ratio", Better: "lower"},
	{Name: "share.ingest_persist", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

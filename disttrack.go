// Package disttrack is a library for continuous tracking of aggregates over
// distributed data streams, implementing the randomized algorithms of
//
//	Zengfeng Huang, Ke Yi, Qin Zhang.
//	"Randomized Algorithms for Tracking Distributed Count, Frequencies,
//	and Ranks." PODS 2012 (arXiv:1108.3413).
//
// The model: k sites each receive a stream of elements; a coordinator must
// maintain, at ALL times, an ε-approximation of an aggregate of the union of
// the streams, while minimizing communication. The package provides three
// trackers:
//
//   - CountTracker  — n(t) = total number of elements (Section 2);
//   - FrequencyTracker — per-item frequencies with ±εn error (Section 3);
//   - RankTracker   — ranks/quantiles with ±εn error (Section 4);
//
// each in three interchangeable flavors (AlgorithmRandomized — the paper's
// O(√k/ε·logN) protocols; AlgorithmDeterministic — the optimal deterministic
// Θ(k/ε·logN) baselines; AlgorithmSampling — the continuous-sampling
// baseline [9] with O(1/ε²·logN) cost), plus exact communication accounting
// in the paper's message/word units.
//
// Randomized trackers guarantee, at any single time instant, an error of at
// most ε·n with probability at least 0.9; CountTracker additionally offers
// median boosting (Options.Copies) for an all-instants guarantee.
// Deterministic trackers guarantee ε·n always.
//
// # Quick start
//
//	tr := disttrack.NewCountTracker(disttrack.Options{K: 8, Epsilon: 0.05})
//	for i := 0; i < 100000; i++ {
//		tr.Observe(i % 8) // element arrives at site i%8
//	}
//	fmt.Println(tr.Estimate(), tr.Metrics().Messages)
//
// # Transports
//
// A tracker mounts its protocol on one of three interchangeable transports
// (Options.Transport). All three enforce the paper's instant-communication
// model — Observe returns only after the triggered message cascade has
// fully quiesced — so for a fixed seed they produce identical message
// sequences, Metrics, and query answers:
//
//   - TransportSequential (default): everything runs inline on the calling
//     goroutine with exact, deterministic cost accounting;
//   - TransportGoroutine: the shared in-process fabric with in-memory
//     delivery; it starts no goroutine, and every cascade runs on the
//     goroutine that feeds the elements;
//   - TransportTCP: one loopback TCP connection per site; every protocol
//     message crosses the kernel as a length-prefixed frame carrying its
//     binary wire encoding (internal/wire).
//
// Call Close when done to release the TCP transport's goroutines and
// sockets (and to mark any transport closed). For genuinely distributed deployments — a coordinator process
// and k site processes exchanging the same wire frames over a real
// network — see cmd/tracksim's serve and connect modes.
package disttrack

import (
	"fmt"
	"math"

	"disttrack/internal/ingest"
	"disttrack/internal/netsim"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/registry"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/faulty"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/sim"
)

// Algorithm selects a protocol flavor.
type Algorithm int

const (
	// AlgorithmRandomized is the paper's randomized protocol:
	// O(√k/ε·logN) communication, per-instant 0.9 success probability.
	AlgorithmRandomized Algorithm = iota
	// AlgorithmDeterministic is the optimal deterministic baseline:
	// Θ(k/ε·logN) communication, errors bounded always.
	AlgorithmDeterministic
	// AlgorithmSampling is continuous distributed sampling [9]:
	// O(1/ε²·logN) communication independent of k; one sample answers
	// count, frequency, and rank queries.
	AlgorithmSampling
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmRandomized:
		return "randomized"
	case AlgorithmDeterministic:
		return "deterministic"
	case AlgorithmSampling:
		return "sampling"
	default:
		return "unknown"
	}
}

// Transport selects the message fabric a tracker's protocol runs on. All
// transports preserve the paper's instant-communication model and produce
// identical results for a fixed seed; they differ in how messages move.
type Transport int

const (
	// TransportSequential runs everything inline on the calling goroutine:
	// the deterministic exact-accounting reference (internal/sim).
	TransportSequential Transport = iota
	// TransportGoroutine runs the protocol on the in-process fabric with
	// in-memory delivery (internal/netsim): no goroutine of its own, every
	// cascade runs on the goroutine that feeds the elements.
	TransportGoroutine
	// TransportTCP connects each site to the coordinator over a loopback
	// TCP socket carrying wire-encoded message frames (internal/runtime).
	TransportTCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case TransportSequential:
		return "sequential"
	case TransportGoroutine:
		return "goroutine"
	case TransportTCP:
		return "tcp"
	default:
		return "unknown"
	}
}

// Topology selects the coordination structure between the K sites and the
// query-answering coordinator.
type Topology int

const (
	// TopologyFlat is the paper's star: every site talks directly to the
	// coordinator. The zero value, and zero-cost — nothing changes on the
	// flat path.
	TopologyFlat Topology = iota
	// TopologyTree shards the K sites into ⌈K/Fanout⌉ groups, each run by
	// an aggregator that plays the coordinator-side protocol against its
	// group and the site-side protocol against the root, re-expressing the
	// absorbed reports as virtual arrivals. Queries are answered by the
	// root; each level runs at the split error budget (1+ε)^(1/2)−1, so the
	// compounded error stays within ε. The root's fan-in then scales with
	// the number of groups instead of K — the hierarchy that takes k from
	// dozens to thousands of sites. Requires Fanout >= 2 and K > Fanout,
	// and a tracker/algorithm whose summaries re-aggregate (the randomized
	// trackers, the sampling baseline, and the deterministic count
	// baseline; the deterministic frequency/rank baselines have no merge
	// path and are rejected).
	TopologyTree
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopologyFlat:
		return "flat"
	case TopologyTree:
		return "tree"
	default:
		return "unknown"
	}
}

// Options configures a tracker.
type Options struct {
	// K is the number of sites (required, >= 1).
	K int
	// Epsilon is the target relative error (required, in (0,1)).
	Epsilon float64
	// Algorithm selects the protocol; zero value is AlgorithmRandomized.
	Algorithm Algorithm
	// Seed makes randomized protocols reproducible; 0 is a valid seed.
	Seed uint64
	// Copies enables median boosting for the randomized algorithm of every
	// tracker (count, frequency, and rank): that many independent protocol
	// copies run side by side over one fabric and queries return the median
	// answer, upgrading the per-instant guarantee to all instants (Section
	// 1.2) at Copies times the communication and space. CountTracker's
	// ObserveBatch stays O(messages): the copies absorb their quiet gaps in
	// lockstep. 0 or 1 means no boosting. Ignored by the deterministic and
	// sampling algorithms, whose guarantees already hold at all instants.
	Copies int
	// Robust switches CountTracker to the adversarially robust variant of
	// the randomized protocol (internal/robust, after arXiv 2311.00346):
	// every communicated counter carries calibrated site-side noise and
	// answers are published through a sparse-vector-style released
	// estimate, so the ε guarantee survives an adaptive adversary that
	// chooses arrivals after observing answers (see RunAttack for the
	// attack this defends against). Communication stays within a constant
	// factor of the oblivious √k/ε·logN bound. Requires
	// AlgorithmRandomized and Copies <= 1; only CountTracker supports it.
	Robust bool
	// Rescale divides Epsilon inside randomized protocols to sharpen the
	// success probability at proportional communication cost; 0 means the
	// paper's constant (3). Set 1 for shape benchmarks where both
	// algorithm families should run at the same nominal ε.
	Rescale float64
	// Transport selects the message fabric; zero value is
	// TransportSequential.
	Transport Transport
	// Topology selects the coordination structure; zero value is
	// TopologyFlat (the paper's star). TopologyTree shards the sites under
	// ⌈K/Fanout⌉ aggregators and answers queries at the root of the
	// resulting two-level tree; every level runs on the transport selected
	// above. See Topology for the compatibility rules.
	Topology Topology
	// Fanout is the number of sites per aggregator group; required (>= 2,
	// < K) with TopologyTree and rejected otherwise.
	Fanout int
	// SpaceProbeEvery controls how often space is sampled at quiescent
	// instants (0 = default 1024 arrivals). One probe reads every site's
	// working space and the coordinator's running space ledger: O(K) site
	// reads plus an O(1) coordinator read, whatever state has accumulated.
	SpaceProbeEvery int
	// ConcurrentIngest makes the tracker safe for concurrent use: any
	// number of goroutines may call Observe/ObserveBatch and the query
	// methods simultaneously, on any transport. Producers stage arrivals
	// into per-site buffers that coalesce consecutive same-item arrivals
	// into runs; a single drainer goroutine feeds the transport through the
	// batch fast path, and queries run at quiescent instants between
	// cascades. Estimates keep the ε guarantees of a serial run (the
	// interleaving across sites follows the producers' schedule, exactly as
	// the paper's k independent streams would); call Flush for an
	// everything-staged-so-far barrier before a query. Close drains the
	// buffers before shutting the transport down.
	ConcurrentIngest bool
	// IngestBuffer bounds each site's staging buffer in coalesced runs
	// (0 = default 256). Only meaningful with ConcurrentIngest.
	IngestBuffer int
	// IngestPolicy selects what a full staging buffer does to a producer:
	// IngestBlock (default) applies backpressure, IngestDrop sheds load and
	// counts the discarded elements in Metrics.Dropped. Only meaningful
	// with ConcurrentIngest.
	IngestPolicy IngestPolicy
	// FaultPlan injects seeded, deterministic network faults — drops,
	// duplicates, reorders, delays, site kill/rejoin partitions — into the
	// transport's message layer (internal/runtime/faulty). It requires a
	// concurrent transport (TransportGoroutine or TransportTCP): the
	// sequential simulator has no message layer to perturb. See FaultPlan
	// for the fault model and its guarantees.
	FaultPlan *FaultPlan
	// Persist, when non-nil, makes the coordinator's state durable: every
	// coordinator-bound protocol message is appended to the store's
	// write-ahead log before the coordinator applies it, and the log is
	// periodically compacted into a snapshot of the coordinator's state —
	// so a crashed coordinator rebuilds bit-identical state by loading the
	// snapshot and replaying the log tail (all protocol randomness lives
	// site-side, making the coordinator a deterministic function of the
	// logged delivery sequence). Use NewMemStore for in-memory durability
	// drills or OpenDiskStore for a directory that survives process
	// crashes. The tracker wires the store but does not own it: Close
	// leaves it loadable; a write failure mid-run panics (continuing would
	// silently void the durability contract). Works on every transport.
	// When disabled (nil), the observation hot path is untouched.
	Persist PersistStore
	// SnapshotEvery is the snapshot cadence in logged coordinator-bound
	// frames (0 = the persistence layer's default, 4096). Smaller values
	// bound crash-recovery replay tighter at more serialization cost.
	// Requires Persist.
	SnapshotEvery int
}

// PersistStore is the pluggable durability backend for Options.Persist: an
// append-only write-ahead log of coordinator-bound frames plus an
// atomically installed coordinator-state snapshot (internal/persist.Store).
type PersistStore = persist.Store

// NewMemStore returns an in-memory PersistStore: durable across an
// in-process coordinator restart, gone with the process. Meant for tests
// and crash drills.
func NewMemStore() PersistStore { return persist.NewMem() }

// OpenDiskStore opens (creating it if needed) a directory-backed
// PersistStore whose contents survive process crashes: an append-only WAL
// file plus generation-numbered, atomically installed snapshot files. The
// error reports a missing, unusable, or unwritable directory.
func OpenDiskStore(dir string) (PersistStore, error) { return persist.OpenDisk(dir) }

// FaultPlan is a seeded, deterministic fault schedule for the transport's
// message layer. The model is a lossy, delaying network under a
// reliability sublayer (ARQ): drops and duplicates are masked exactly-once
// in-order and only cost communication (retransmissions and discarded
// copies are charged to Metrics); reorders perturb delivery within a
// cascade; delays hold frames across whole arrivals; kills partition a
// site for a window of the run, during which Metrics.LiveSites drops and
// queries cover only the live sites' data. Queries always observe a
// settled state: reading a tracker forces the reliability layer to deliver
// everything deliverable first.
type FaultPlan struct {
	// Seed makes the schedule reproducible; equal plans replay bit-for-bit.
	Seed uint64
	// Drop is the per-message loss probability (each loss is recovered by
	// a charged retransmission; in [0,1)).
	Drop float64
	// Duplicate is the per-message duplication probability (the extra copy
	// is charged and discarded by the receiver).
	Duplicate float64
	// Reorder is the per-message probability of holding a frame to the end
	// of its cascade, letting other links' traffic overtake it.
	Reorder float64
	// Delay is the per-message probability of holding a frame for
	// DelayArrivals whole arrivals.
	Delay float64
	// DelayArrivals is the delay length in arrivals (0 means 1).
	DelayArrivals int64
	// MaxHeld bounds each link's hold queue (0 means 8).
	MaxHeld int
	// Kills is the site crash/rejoin schedule.
	Kills []SiteKill
}

// SiteKill cuts one site off for a window of the run (see faulty.Kill).
type SiteKill struct {
	// Site is the site index to cut off.
	Site int
	// At is the global arrival count at which the site dies (> 0).
	At int64
	// RejoinAt is the global arrival count at which it rejoins (> At);
	// 0 means never.
	RejoinAt int64
}

// ParseFaultPlan parses cmd/tracksim's compact -faults spec, e.g.
//
//	drop=0.02,dup=0.01,reorder=0.05,delay=0.1@4,seed=7,kill=1@5000:+3000
//
// into a FaultPlan (see internal/runtime/faulty.ParsePlan for the full
// syntax).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p, err := faulty.ParsePlan(spec)
	if err != nil {
		return nil, err
	}
	fp := &FaultPlan{Seed: p.Seed, Drop: p.Drop, Duplicate: p.Duplicate,
		Reorder: p.Reorder, Delay: p.Delay, DelayArrivals: p.DelayArrivals,
		MaxHeld: p.MaxHeld}
	for _, kl := range p.Kills {
		fp.Kills = append(fp.Kills, SiteKill(kl))
	}
	return fp, nil
}

// plan converts the public form to the injector's.
func (fp *FaultPlan) plan() faulty.Plan {
	p := faulty.Plan{Seed: fp.Seed, Drop: fp.Drop, Duplicate: fp.Duplicate,
		Reorder: fp.Reorder, Delay: fp.Delay, DelayArrivals: fp.DelayArrivals,
		MaxHeld: fp.MaxHeld}
	for _, kl := range fp.Kills {
		p.Kills = append(p.Kills, faulty.Kill(kl))
	}
	return p
}

// FaultStats counts the fault events a tracker's FaultPlan injected so far
// (all zero without a plan).
type FaultStats struct {
	// Dropped frames, each recovered by a Retransmits entry.
	Dropped     int64
	Retransmits int64
	// Duplicated frames, charged and discarded.
	Duplicated int64
	// Reordered frames (held to the end of their cascade).
	Reordered int64
	// Delayed frames (held across arrivals).
	Delayed int64
	// Partitioned frames (trapped behind a killed site).
	Partitioned int64
}

// IngestPolicy selects the backpressure behavior of the concurrent
// ingestion frontend (Options.ConcurrentIngest) when a site's staging
// buffer is full.
type IngestPolicy int

const (
	// IngestBlock makes the producer wait until the drainer frees a slot:
	// lossless backpressure, the default.
	IngestBlock IngestPolicy = iota
	// IngestDrop discards the observation and counts it in
	// Metrics.Dropped: load shedding for callers that prefer latency over
	// completeness.
	IngestDrop
)

// String names the policy.
func (p IngestPolicy) String() string {
	switch p {
	case IngestBlock:
		return "block"
	case IngestDrop:
		return "drop"
	default:
		return "unknown"
	}
}

func (o Options) validate(spec registry.Spec) {
	if o.K <= 0 {
		panic("disttrack: Options.K must be >= 1")
	}
	// The negated form also rejects NaN, which every ordered comparison
	// excludes.
	if !(o.Epsilon > 0 && o.Epsilon < 1) {
		panic("disttrack: Options.Epsilon must be in (0,1)")
	}
	if o.Copies < 0 {
		panic("disttrack: negative Options.Copies")
	}
	if o.Rescale < 0 || math.IsNaN(o.Rescale) {
		panic("disttrack: Options.Rescale must be >= 0 (0 = paper default)")
	}
	if o.Transport < TransportSequential || o.Transport > TransportTCP {
		panic("disttrack: unknown Options.Transport")
	}
	if o.Topology < TopologyFlat || o.Topology > TopologyTree {
		panic("disttrack: unknown Options.Topology")
	}
	if o.Topology == TopologyFlat && o.Fanout != 0 {
		panic("disttrack: Options.Fanout requires Options.Topology == TopologyTree")
	}
	tree := o.Topology == TopologyTree
	if tree {
		if _, err := proto.NewTreeShape(o.K, o.Fanout, o.Epsilon); err != nil {
			panic("disttrack: " + err.Error())
		}
		if o.FaultPlan != nil {
			panic("disttrack: Options.FaultPlan is incompatible with TopologyTree (in-process fault injection addresses flat-star links; use cmd/tracksim's distributed chaos mode for tree faults)")
		}
	}
	// Which (problem, algorithm, Robust, Copies, topology) combinations
	// exist is the registry's knowledge.
	if err := spec.Check(tree); err != nil {
		panic("disttrack: " + err.Error())
	}
	if o.SpaceProbeEvery < 0 {
		panic("disttrack: negative Options.SpaceProbeEvery")
	}
	if o.IngestBuffer < 0 {
		panic("disttrack: negative Options.IngestBuffer")
	}
	if o.IngestPolicy < IngestBlock || o.IngestPolicy > IngestDrop {
		panic("disttrack: unknown Options.IngestPolicy")
	}
	// Probability ranges and kill windows are validated by the single
	// authority, faulty.New, when mount installs the plan — still at
	// tracker-construction time. Only the transport constraint is
	// facade-level knowledge.
	if o.FaultPlan != nil && o.Transport == TransportSequential {
		panic("disttrack: Options.FaultPlan requires TransportGoroutine or TransportTCP (the sequential simulator has no message layer to perturb)")
	}
	if o.SnapshotEvery < 0 {
		panic("disttrack: negative Options.SnapshotEvery")
	}
	if o.SnapshotEvery > 0 && o.Persist == nil {
		panic("disttrack: Options.SnapshotEvery requires Options.Persist")
	}
}

// Metrics reports a tracker's accumulated cost in the paper's units.
type Metrics struct {
	// Messages is the total number of messages exchanged (a broadcast
	// counts as K messages).
	Messages int64
	// Words is the total communication volume in words (any integer < N or
	// one element = one word).
	Words int64
	// MessagesUp and MessagesDown split Messages by direction: up is
	// site → coordinator report traffic, down the coordinator's round
	// announcements and broadcast legs back to the sites.
	MessagesUp, MessagesDown int64
	// WordsUp and WordsDown split Words the same way.
	WordsUp, WordsDown int64
	// Broadcasts counts coordinator broadcast operations.
	Broadcasts int64
	// Arrivals is the number of elements observed.
	Arrivals int64
	// MaxSiteSpace is the high-water mark of per-site working space in
	// words, sampled at quiescent instants on every transport (the
	// sequential transport probes every SpaceProbeEvery arrivals; the
	// concurrent transports probe on the same cadence after cascades
	// quiesce, and always when Metrics is read).
	MaxSiteSpace int
	// MaxCoordSpace is the coordinator's high-water space in words, sampled
	// by the same probes. Coordinators keep their word count as a running
	// ledger, so the read is O(1) (O(K) for the deterministic baselines)
	// however much history they hold.
	MaxCoordSpace int
	// Dropped is the number of elements discarded by the concurrent
	// ingestion frontend under IngestDrop (always 0 otherwise; after a
	// terminal transport failure it also counts the shed residue). Dropped
	// elements never reach the protocol, so they are not part of Arrivals.
	Dropped int64
	// LiveSites is the number of sites currently reachable: K on a healthy
	// run, fewer while an Options.FaultPlan has sites killed. Queries made
	// while LiveSites < K cover only the live sites' recent data (the
	// documented partial-coverage degradation); they recover once the
	// fault plan rejoins the site.
	LiveSites int
	// Snapshots is the number of coordinator-state snapshots written to
	// Options.Persist over the store's lifetime (0 without a store).
	Snapshots int64
	// ReplayedFrames is the number of write-ahead-log frames replayed by
	// the most recent coordinator recovery (0 when no recovery happened).
	ReplayedFrames int64
	// Resyncs counts the site resync replays served: rejoining sites
	// brought to the coordinator's current round by replayed state.
	Resyncs int64
	// Depth is the coordination tree depth: 0 for the flat star, 2 for
	// TopologyTree (sites → aggregators → root).
	Depth int
	// LevelMessages breaks Messages down per tree level with TopologyTree
	// (all zero on the flat star): index 0 is the leaf level (site ↔
	// aggregator traffic, summed over every group), index 1 the root level
	// (aggregator ↔ root traffic — the root's fan-in, the quantity the
	// hierarchy exists to shrink).
	LevelMessages [2]int64
	// LevelWords is the word-count breakdown matching LevelMessages.
	LevelWords [2]int64
}

// metricsFrom converts the runtime seam's ledger into the public form.
func metricsFrom(m runtime.Metrics) Metrics {
	return Metrics{
		Messages:       m.Messages(),
		Words:          m.Words(),
		MessagesUp:     m.MessagesUp,
		MessagesDown:   m.MessagesDown,
		WordsUp:        m.WordsUp,
		WordsDown:      m.WordsDown,
		Broadcasts:     m.Broadcasts,
		Arrivals:       m.Arrivals,
		MaxSiteSpace:   m.MaxSiteSpace,
		MaxCoordSpace:  m.MaxCoordSpace,
		LiveSites:      m.LiveSites,
		Snapshots:      m.Snapshots,
		ReplayedFrames: m.ReplayedFrames,
		Resyncs:        m.Resyncs,
	}
}

// fabric is what every flat transport offers beyond runtime.Transport: the
// durability layer's write-ahead hook, and ledger seeding for coordinator
// crash-restarts (concrete methods of each fabric, not part of the
// interface the trackers see).
type fabric interface {
	runtime.Transport
	SetCoordLog(func(from int, m proto.Message))
	SeedLedger(runtime.Metrics)
}

// start mounts p on the transport the options select. Every transport sits
// behind the same runtime seam (internal/runtime), so the trackers never see
// which fabric carries their messages. fab is the concurrent transports'
// message layer, nil on the sequential simulator.
func (o Options) start(p proto.Protocol) (t fabric, fab *runtime.Fabric, _ error) {
	switch o.Transport {
	case TransportGoroutine:
		c := netsim.Start(p)
		t, fab = c, c.Fabric
	case TransportTCP:
		c, err := tcp.StartLoopback(p)
		if err != nil {
			return nil, nil, err
		}
		t, fab = c, c.Fabric
	default:
		h := sim.New(p)
		if o.SpaceProbeEvery > 0 {
			h.SpaceProbeEvery = o.SpaceProbeEvery
		}
		return h, nil, nil
	}
	if o.SpaceProbeEvery > 0 {
		fab.SpaceProbeEvery = o.SpaceProbeEvery
	}
	return t, fab, nil
}

// persist hooks the write-ahead logger into a transport's
// coordinator-delivery path, before any message flows.
func (c *core) persist(coord proto.Coordinator, setLog func(func(from int, m proto.Message))) {
	if c.opt.Persist == nil {
		return
	}
	c.log = persist.NewLogger(c.opt.Persist, coord, int64(c.opt.SnapshotEvery), nil)
	setLog(func(from int, msg proto.Message) {
		if err := c.log.Log(from, msg); err != nil {
			panic(fmt.Errorf("disttrack: write-ahead log: %w", err))
		}
	})
}

// mount places a flat protocol on the selected transport, with the
// write-ahead logger and, for an Options.FaultPlan, the fault-injection
// middleware installed on the concurrent transport's fabric before any
// message flows. It returns the fabric for a crash-restart to seed.
func (c *core) mount(p proto.Protocol) fabric {
	t, fab, err := c.opt.start(p)
	if err != nil {
		panic(fmt.Sprintf("disttrack: mounting TCP transport: %v", err))
	}
	c.prot = p
	c.persist(p.Coord, t.SetCoordLog)
	if c.opt.FaultPlan != nil && fab != nil {
		c.inj = faulty.New(fab, c.opt.FaultPlan.plan())
		fab.SetMiddleware(c.inj)
	}
	c.eng = runtime.New(t)
	return t
}

// mountTree places a proto.Tree on per-level fabrics of the selected
// transport kind (runtime.NewTree). Persistence attaches to the root
// fabric: the root coordinator is a pure function of its delivered
// (from, msg) sequence whether the senders are real sites or aggregators,
// so the flat star's WAL/snapshot machinery carries over unchanged.
func (c *core) mountTree(tp proto.Tree) {
	tr, err := runtime.NewTree(tp, func(p proto.Protocol) (runtime.Transport, error) {
		t, _, err := c.opt.start(p)
		return t, err
	})
	if err != nil {
		panic(fmt.Sprintf("disttrack: mounting tree topology: %v", err))
	}
	c.persist(tp.Root.Coord, tr.SetCoordLog)
	c.eng = runtime.New(tr)
}

// build validates the options and assembles everything behind a tracker:
// the registry's protocol for (problem, Options.Algorithm) on the selected
// topology and transport, plus the ingestion frontend. It returns the
// coordinator's queries; each tracker keeps the ones its problem answers.
func (c *core) build(o Options, problem registry.Problem) (q registry.Queries) {
	c.opt = o
	c.spec = registry.Spec{Problem: problem, Algorithm: registry.Algorithm(o.Algorithm.String()),
		K: o.K, Eps: o.Epsilon, Rescale: o.Rescale, Robust: o.Robust, Copies: o.Copies, Seed: o.Seed}
	o.validate(c.spec)
	if o.Topology == TopologyTree {
		var tp proto.Tree
		tp, q = registry.Tree(c.spec, o.Fanout)
		c.mountTree(tp)
	} else {
		var p proto.Protocol
		p, q = registry.Protocol(c.spec)
		c.mount(p)
	}
	c.fe = frontend(o, c.eng)
	return q
}

// frontend starts the concurrent ingestion frontend over a mounted runtime
// when the options ask for one; nil means the tracker stays single-feeder.
func frontend(o Options, eng *runtime.Runtime) *ingest.Frontend {
	if !o.ConcurrentIngest {
		return nil
	}
	pol := ingest.Block
	if o.IngestPolicy == IngestDrop {
		pol = ingest.Drop
	}
	return ingest.New(eng, o.K, ingest.Options{BufferRuns: o.IngestBuffer, Policy: pol})
}

// core is the engine half shared by all three trackers: the mounted runtime
// plus the optional concurrent ingestion frontend (fe, non-nil iff
// Options.ConcurrentIngest), with the fe-guarded choreography — quiesced
// query snapshots, the Flush barrier, Dropped surfacing, drain-then-close —
// implemented once. The per-element Observe/ObserveBatch branches stay in
// each tracker to keep the serial hot path a straight-line call.
type core struct {
	eng *runtime.Runtime
	fe  *ingest.Frontend
	inj *faulty.Injector // non-nil iff Options.FaultPlan

	// Durability state (log and replayed zero without Options.Persist): the
	// write-ahead logger, the options, registry spec and protocol retained
	// so a coordinator crash-restart can rebuild and remount, and the
	// recovery counter surfaced through Metrics.
	log      *persist.Logger
	opt      Options
	spec     registry.Spec
	prot     proto.Protocol
	replayed int64
}

// restart simulates a coordinator crash and durable restart without losing
// the site machines (the in-process recovery drill, used by the chaos tests;
// cmd/tracksim's serve -resume is the cross-process equivalent): the
// transport is torn down, a freshly constructed coordinator — the
// registry's, exactly as at the start of the run — recovers from
// Options.Persist (snapshot restore plus write-ahead-log replay), and the
// protocol remounts over the same sites on a fresh transport of the same
// kind, carrying the live cost ledger across. The rebuilt coordinator is
// bit-identical to the crashed one at its last logged frame; arrival
// accounting is exact because the in-process drill quiesces before crashing
// (a real crash instead loses only the in-flight window, which replay bounds
// by SnapshotEvery). Incompatible with ConcurrentIngest and FaultPlan —
// their goroutines hold the transport. Returns the new coordinator's
// queries.
func (c *core) restart() (registry.Queries, error) {
	if c.opt.Persist == nil {
		return registry.Queries{}, fmt.Errorf("disttrack: coordinator crash-restart needs Options.Persist")
	}
	if c.fe != nil || c.inj != nil {
		return registry.Queries{}, fmt.Errorf("disttrack: coordinator crash-restart is incompatible with ConcurrentIngest and FaultPlan")
	}
	if c.opt.Topology == TopologyTree {
		return registry.Queries{}, fmt.Errorf("disttrack: in-process coordinator crash-restart supports the flat star only; for trees, restart the root as its own process (cmd/tracksim aggregate/serve -resume)")
	}
	ledger := c.eng.Metrics() // quiesces first: the drill crashes at a clean instant
	c.eng.Close()
	fresh, q := registry.Coordinator(c.spec)
	res, err := persist.Recover(c.opt.Persist, fresh, nil)
	if err != nil {
		return q, err
	}
	c.mount(proto.Protocol{Coord: fresh, Sites: c.prot.Sites}).SeedLedger(ledger)
	c.log.SeedSnapshots(res.Meta.Snapshots)
	c.replayed = res.ReplayedFrames
	return q, nil
}

// FaultStats returns the fault events injected so far by Options.FaultPlan
// (all zero without a plan). Safe to call anytime.
func (c *core) FaultStats() FaultStats {
	if c.inj == nil {
		return FaultStats{}
	}
	return FaultStats(c.inj.Stats())
}

// HealFaults force-opens every FaultPlan partition — including a kill that
// never rejoins — so trapped traffic drains on the next query. Use it to
// end a what-if window early or to recover full coverage before a final
// read. No-op without a plan.
func (c *core) HealFaults() {
	if c.inj != nil {
		c.inj.Heal()
	}
}

// query runs fn against a consistent protocol state: under the frontend's
// quiescent snapshot when concurrent ingestion is on, directly otherwise.
// With a FaultPlan installed it first settles the fault layer's
// deliverable backlog (delayed frames that have not come due), so a query
// always observes everything the faulted network could have delivered —
// only partition-trapped traffic stays out.
func (c *core) query(fn func()) {
	if c.fe != nil {
		c.fe.Query(func() { c.settleFaults(); fn() })
		return
	}
	c.settleFaults()
	fn()
}

// settleFaults forces the fault middleware to deliver everything
// deliverable (Transport.Quiesce's full barrier); no-op without a plan.
func (c *core) settleFaults() {
	if c.inj != nil {
		c.eng.Transport().Quiesce()
	}
}

// Flush blocks until every element staged by Observe/ObserveBatch calls
// that have returned is fully ingested and its message cascade has
// quiesced. Without Options.ConcurrentIngest ingestion is synchronous and
// Flush is a no-op. A non-nil error is terminal: the transport failed
// underneath the concurrent frontend (closed out from under it mid-run),
// staged elements were shed, and the tracker accepts no further
// observations.
func (c *core) Flush() error {
	if c.fe != nil {
		return c.fe.Flush()
	}
	return nil
}

// Metrics returns the accumulated communication and space costs.
func (c *core) Metrics() Metrics {
	var pm Metrics
	read := func() {
		pm = metricsFrom(c.eng.Metrics())
		// Per-level breakdown when the transport is a tree (the eng.Metrics
		// call above has already quiesced it, so the per-fabric reads are
		// consistent).
		if tt, ok := c.eng.Transport().(*runtime.Tree); ok {
			leaf, root := tt.LevelMetrics()
			pm.Depth = 2
			pm.LevelMessages = [2]int64{leaf.Messages(), root.Messages()}
			pm.LevelWords = [2]int64{leaf.Words(), root.Words()}
		}
		// The in-process transports don't track durability themselves; the
		// counter lives on the core's logger. Read it inside the quiescent
		// window so the snapshot count is coherent with the ledger it
		// describes (outside it, the drainer may be mid-snapshot and the
		// count would describe a different instant than the arrivals).
		if c.log != nil {
			pm.Snapshots = c.log.Snapshots()
		}
	}
	if c.fe != nil {
		c.fe.Query(read)
		pm.Dropped = c.fe.Dropped()
	} else {
		read()
	}
	pm.ReplayedFrames = c.replayed
	return pm
}

// Close drains the concurrent ingestion frontend (when enabled) and stops
// the transport's goroutines. Queries remain valid afterwards; Observe
// does not. The returned error is the concurrent frontend's terminal
// error, if the transport failed underneath it mid-run (always nil
// without Options.ConcurrentIngest).
func (c *core) Close() error {
	var err error
	if c.fe != nil {
		err = c.fe.Close()
	}
	c.eng.Close()
	if c.log != nil {
		// Seal the store: a final snapshot and sync make it a clean resume
		// point with nothing left to replay. The transport is down, so the
		// coordinator is quiescent and safe to serialize.
		serr := c.log.Snapshot()
		if serr == nil {
			serr = c.log.Sync()
		}
		if err == nil {
			err = serr
		}
	}
	return err
}

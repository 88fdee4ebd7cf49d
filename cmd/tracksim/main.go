// tracksim runs the paper's tracking protocols, in one process or as a
// genuinely distributed system.
//
// Single-process mode runs one protocol on one workload and reports
// accuracy and cost in the paper's units, on any of the three transports:
//
//	go run ./cmd/tracksim -problem count -alg randomized -k 16 -eps 0.05 -n 100000 -transport tcp
//
// Problems: count, freq, rank. Algorithms: randomized, deterministic,
// sampling. Workloads: roundrobin, single, uniform, zipf. Transports:
// sequential, goroutine, tcp.
//
// The -producers N flag turns the run into a multi-producer load test: the
// stream is fed from N concurrent goroutines through the tracker's
// concurrent ingestion frontend (Options.ConcurrentIngest) and the report
// includes aggregate throughput:
//
//	go run ./cmd/tracksim -problem count -k 16 -n 1000000 -producers 8
//
// Distributed mode splits the system across processes, exchanging
// wire-encoded frames over real TCP. Start the coordinator, then one
// process per site (in separate terminals or machines):
//
//	go run ./cmd/tracksim serve   -addr :7077 -problem count -k 2 -eps 0.05
//	go run ./cmd/tracksim connect -addr localhost:7077 -site 0 -k 2 -problem count -eps 0.05 -n 50000
//	go run ./cmd/tracksim connect -addr localhost:7077 -site 1 -k 2 -problem count -eps 0.05 -n 50000
//
// The server prints running estimates as site traffic lands and a final
// cost report once every site has finished.
//
// With -topology tree the deployment becomes a two-level coordinator tree:
// the root serves one slot per aggregator shard, each aggregate process
// runs the coordinator protocol over its shard's leaves and the site
// protocol toward the root, and leaves connect to their shard's aggregator
// (-site is the leaf's local index within the shard):
//
//	go run ./cmd/tracksim serve     -topology tree -fanout 2 -k 4 -addr :7077
//	go run ./cmd/tracksim aggregate -topology tree -fanout 2 -k 4 -shard 0 -addr :7177 -parent localhost:7077
//	go run ./cmd/tracksim aggregate -topology tree -fanout 2 -k 4 -shard 1 -addr :7178 -parent localhost:7077
//	go run ./cmd/tracksim connect   -topology tree -fanout 2 -k 4 -shard 0 -site 0 -addr localhost:7177 -n 50000
//	...
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"disttrack"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/registry"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/serve"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "connect":
			connectMain(os.Args[2:])
			return
		case "aggregate":
			aggregateMain(os.Args[2:])
			return
		case "chaos":
			chaosMain(os.Args[2:])
			return
		case "attack":
			attackMain(os.Args[2:])
			return
		case "loadgen":
			loadgenMain(os.Args[2:])
			return
		}
	}
	singleProcessMain()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func parseAlg(alg string) disttrack.Algorithm {
	switch alg {
	case "randomized":
		return disttrack.AlgorithmRandomized
	case "deterministic":
		return disttrack.AlgorithmDeterministic
	case "sampling":
		return disttrack.AlgorithmSampling
	}
	fatalf("unknown algorithm %q", alg)
	panic("unreachable")
}

func parseTransport(tr string) disttrack.Transport {
	switch tr {
	case "sequential":
		return disttrack.TransportSequential
	case "goroutine":
		return disttrack.TransportGoroutine
	case "tcp":
		return disttrack.TransportTCP
	}
	fatalf("unknown transport %q", tr)
	panic("unreachable")
}

func singleProcessMain() {
	problem := flag.String("problem", "count", "count | freq | rank")
	alg := flag.String("alg", "randomized", "randomized | deterministic | sampling")
	k := flag.Int("k", 16, "number of sites")
	eps := flag.Float64("eps", 0.05, "target relative error")
	n := flag.Int("n", 100000, "stream length")
	wl := flag.String("workload", "roundrobin", "roundrobin | single | uniform | zipf")
	seed := flag.Uint64("seed", 1, "RNG seed")
	rescale := flag.Float64("rescale", 0, "internal eps rescale (0 = paper default 3)")
	transport := flag.String("transport", "sequential", "sequential | goroutine | tcp")
	copies := flag.Int("copies", 0, "median-boost copies (randomized algorithms)")
	robustMode := flag.Bool("robust", false,
		"adversarially robust count tracking: noised reports + gated releases (count/randomized only)")
	producers := flag.Int("producers", 0,
		"feed the stream from N concurrent goroutines via the ingestion frontend (0 = serial)")
	ingestPolicy := flag.String("ingestpolicy", "block",
		"full-buffer policy with -producers: block | drop")
	faults := flag.String("faults", "",
		"fault-injection spec, e.g. drop=0.02,dup=0.01,reorder=0.1,delay=0.05@8,seed=7,kill=1@5000:+3000")
	topology := flag.String("topology", "flat", "flat | tree (two-level coordinator tree)")
	fanout := flag.Int("fanout", 16, "leaf sites per aggregator shard (with -topology tree)")
	flag.Parse()

	algorithm := parseAlg(*alg)
	tr := parseTransport(*transport)
	cfg := &distConfig{problem: *problem, alg: *alg, k: *k, eps: *eps, rescale: *rescale,
		robust: *robustMode, copies: *copies, topology: *topology, fanout: *fanout}
	cfg.check()

	var faultPlan *disttrack.FaultPlan
	if *faults != "" {
		var err error
		faultPlan, err = disttrack.ParseFaultPlan(*faults)
		if err != nil {
			fatalf("%v", err)
		}
		for _, kl := range faultPlan.Kills {
			// Range validation needs k, which the parser does not have; a
			// bad site must be a flag error here, not a panic mid-run.
			if kl.Site >= *k {
				fatalf("-faults: kill site %d out of range [0, %d)", kl.Site, *k)
			}
		}
		if tr == disttrack.TransportSequential {
			// The fault layer lives on the concurrent transports' message
			// fabric; the sequential simulator has none.
			fmt.Println("note: -faults needs a concurrent transport; switching to -transport goroutine")
			tr = disttrack.TransportGoroutine
		}
	}

	rng := stats.New(*seed ^ 0xabcdef)
	var placement workload.Placement
	switch *wl {
	case "roundrobin":
		placement = workload.RoundRobin(*k)
	case "single":
		placement = workload.SingleSite(0)
	case "uniform":
		placement = workload.UniformPlacement(*k, rng)
	case "zipf":
		placement = workload.ZipfPlacement(*k, 1.0, rng)
	default:
		fatalf("unknown workload %q", *wl)
	}

	opt := disttrack.Options{K: *k, Epsilon: *eps, Algorithm: algorithm, Seed: *seed,
		Rescale: *rescale, Transport: tr, Copies: *copies, Robust: *robustMode, FaultPlan: faultPlan}
	if cfg.tree() {
		if *faults != "" {
			fatalf("-faults is incompatible with -topology tree (use `tracksim chaos -topology tree` for tree faults)")
		}
		opt.Topology, opt.Fanout = disttrack.TopologyTree, *fanout
	}
	fmt.Printf("problem=%s alg=%s k=%d eps=%g n=%d workload=%s transport=%s copies=%d robust=%t\n",
		*problem, algorithm, *k, *eps, *n, *wl, tr, *copies, *robustMode)
	if opt.Topology == disttrack.TopologyTree {
		fmt.Printf("topology=tree fanout=%d (%d aggregator shards)\n", *fanout, cfg.shape.Groups)
	}
	if faultPlan != nil {
		fmt.Printf("faults: %q\n", *faults)
	}
	fmt.Println()

	if *producers > 0 {
		opt.ConcurrentIngest = true
		switch *ingestPolicy {
		case "block":
			opt.IngestPolicy = disttrack.IngestBlock
		case "drop":
			opt.IngestPolicy = disttrack.IngestDrop
		default:
			fatalf("unknown ingest policy %q", *ingestPolicy)
		}
		producerRun(opt, *problem, *n, *producers, placement, rng)
		return
	}

	checkEvery := *n / 200
	if checkEvery < 1 {
		checkEvery = 1
	}
	bad, checks := 0, 0
	var metrics disttrack.Metrics
	var faultStats disttrack.FaultStats

	switch *problem {
	case "count":
		tr := disttrack.NewCountTracker(opt)
		defer tr.Close()
		for i := 0; i < *n; i++ {
			tr.Observe(placement(i))
			if (i+1)%checkEvery == 0 {
				checks++
				if stats.RelErr(tr.Estimate(), float64(i+1)) > *eps {
					bad++
				}
			}
		}
		metrics, faultStats = tr.Metrics(), tr.FaultStats()
		fmt.Printf("final estimate: %.0f (truth %d)\n", tr.Estimate(), *n)
	case "freq":
		items := workload.ZipfItems(1000, 1.1, rng.Split())
		truth := map[int64]int64{}
		tr := disttrack.NewFrequencyTracker(opt)
		defer tr.Close()
		for i := 0; i < *n; i++ {
			j := items(i)
			truth[j]++
			tr.Observe(placement(i), j)
			if (i+1)%checkEvery == 0 {
				checks++
				if math.Abs(tr.Estimate(0)-float64(truth[0])) > *eps*float64(i+1) {
					bad++
				}
			}
		}
		metrics, faultStats = tr.Metrics(), tr.FaultStats()
		fmt.Printf("hottest item: estimate %.0f (truth %d)\n", tr.Estimate(0), truth[0])
	case "rank":
		values := workload.PermValues(*n, rng.Split())
		tr := disttrack.NewRankTracker(opt)
		defer tr.Close()
		var below float64
		q := float64(*n) / 2
		for i := 0; i < *n; i++ {
			v := values(i)
			if v < q {
				below++
			}
			tr.Observe(placement(i), v)
			if (i+1)%checkEvery == 0 {
				checks++
				if math.Abs(tr.Rank(q)-below) > *eps*float64(i+1) {
					bad++
				}
			}
		}
		metrics, faultStats = tr.Metrics(), tr.FaultStats()
		fmt.Printf("rank(median value): estimate %.0f (truth %.0f)\n", tr.Rank(q), below)
	}

	fmt.Printf("\naccuracy: %d/%d checkpoints outside the ε-band (%.1f%%)\n",
		bad, checks, 100*float64(bad)/float64(checks))
	fmt.Printf("messages:   %d\n", metrics.Messages)
	if metrics.Depth == 2 {
		fmt.Printf("per-level:  leaf %d msgs (%d words), root %d msgs (%d words)\n",
			metrics.LevelMessages[0], metrics.LevelWords[0],
			metrics.LevelMessages[1], metrics.LevelWords[1])
	}
	fmt.Printf("words:      %d\n", metrics.Words)
	fmt.Printf("broadcasts: %d\n", metrics.Broadcasts)
	fmt.Printf("site space: %d words (high-water)\n", metrics.MaxSiteSpace)
	if faultPlan != nil {
		fmt.Printf("live sites: %d of %d\n", metrics.LiveSites, *k)
		fmt.Printf("faults:     %d dropped (%d retransmits), %d duplicated, %d reordered, %d delayed, %d partition-trapped\n",
			faultStats.Dropped, faultStats.Retransmits, faultStats.Duplicated,
			faultStats.Reordered, faultStats.Delayed, faultStats.Partitioned)
	}
}

// producerRun is the multi-producer load-generator mode (-producers N):
// the stream is materialized up front, split striped across N goroutines
// that hammer the tracker's concurrent ingestion frontend, and the run
// reports aggregate throughput plus final accuracy. Mid-run ε checkpoints
// are a serial-feeder notion, so only the final estimate is checked.
func producerRun(opt disttrack.Options, problem string, n, producers int,
	placement workload.Placement, rng *stats.RNG) {
	sites := make([]int, n)
	for i := range sites {
		sites[i] = placement(i)
	}

	var tr tracker
	var observe func(i int)
	var report func(m disttrack.Metrics)

	switch problem {
	case "count":
		t := disttrack.NewCountTracker(opt)
		tr, observe = t, func(i int) { t.Observe(sites[i]) }
		report = func(m disttrack.Metrics) {
			// Under IngestDrop the tracker only saw m.Arrivals elements,
			// so that — not the offered n — is the count it tracks.
			truth := float64(m.Arrivals)
			fmt.Printf("final estimate: %.0f (ingested %.0f of %d offered, rel err %.4f)\n",
				t.Estimate(), truth, n, stats.RelErr(t.Estimate(), truth))
		}
	case "freq":
		itemFn := workload.ZipfItems(1000, 1.1, rng.Split())
		items := make([]int64, n)
		truth := map[int64]int64{}
		for i := range items {
			items[i] = itemFn(i)
			truth[items[i]]++
		}
		t := disttrack.NewFrequencyTracker(opt)
		tr, observe = t, func(i int) { t.Observe(sites[i], items[i]) }
		report = func(m disttrack.Metrics) {
			fmt.Printf("hottest item: estimate %.0f (full-stream truth %d)\n", t.Estimate(0), truth[0])
			if m.Dropped > 0 {
				fmt.Printf("NOTE: %d of %d elements were shed (IngestDrop); the estimate reflects\n"+
					"only ingested elements, so the full-stream truth overstates its error.\n",
					m.Dropped, n)
			}
		}
	case "rank":
		values := workload.PermValues(n, rng.Split())
		var below float64
		q := float64(n) / 2
		for i := 0; i < n; i++ {
			if values(i) < q {
				below++
			}
		}
		t := disttrack.NewRankTracker(opt)
		tr, observe = t, func(i int) { t.Observe(sites[i], values(i)) }
		report = func(m disttrack.Metrics) {
			fmt.Printf("rank(median value): estimate %.0f (full-stream truth %.0f)\n", t.Rank(q), below)
			if m.Dropped > 0 {
				fmt.Printf("NOTE: %d of %d elements were shed (IngestDrop); the estimate reflects\n"+
					"only ingested elements, so the full-stream truth overstates its error.\n",
					m.Dropped, n)
			}
		}
	}
	defer func() {
		// A terminal transport failure surfaces through Close too; a load
		// test must not report success over shed data.
		if err := tr.Close(); err != nil {
			fatalf("close: %v", err)
		}
	}()

	fmt.Printf("feeding %d elements from %d producer goroutines (policy %s)\n",
		n, producers, opt.IngestPolicy)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += producers {
				observe(i)
			}
		}(p)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		fatalf("flush: %v", err)
	}
	elapsed := time.Since(start)

	m := tr.Metrics()
	report(m)
	fmt.Printf("\nthroughput: %.2f Melem/s aggregate (%.0f ns/element, %v wall)\n",
		float64(m.Arrivals)/elapsed.Seconds()/1e6,
		float64(elapsed.Nanoseconds())/float64(max(m.Arrivals, 1)), elapsed.Round(time.Millisecond))
	fmt.Printf("arrivals:   %d\n", m.Arrivals)
	if m.Dropped > 0 {
		fmt.Printf("dropped:    %d (policy %s)\n", m.Dropped, opt.IngestPolicy)
	}
	fmt.Printf("messages:   %d\n", m.Messages)
	fmt.Printf("words:      %d\n", m.Words)
	fmt.Printf("broadcasts: %d\n", m.Broadcasts)
	fmt.Printf("site space: %d words (high-water)\n", m.MaxSiteSpace)
	if opt.FaultPlan != nil {
		fs := tr.FaultStats()
		fmt.Printf("live sites: %d of %d\n", m.LiveSites, opt.K)
		fmt.Printf("faults:     %d dropped (%d retransmits), %d duplicated, %d reordered, %d delayed, %d partition-trapped\n",
			fs.Dropped, fs.Retransmits, fs.Duplicated, fs.Reordered, fs.Delayed, fs.Partitioned)
	}
}

// attackMain runs the adaptive adversary side by side against the plain
// randomized count tracker and the robust mode, printing ε-violation rates
// and cost for both. With -check it exits non-zero unless the attack
// demonstrably breaks the plain tracker while the robust mode withstands
// it — the CI smoke for the adversarial-robustness contract.
//
//	go run ./cmd/tracksim attack -strategy boundary-camp -k 64 -n 20000
//	go run ./cmd/tracksim attack -strategy threshold-learn -trials 16 -check
func attackMain(args []string) {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	strategyName := fs.String("strategy", "boundary-camp", "boundary-camp | threshold-learn")
	k := fs.Int("k", 256, "number of sites")
	eps := fs.Float64("eps", 0.1, "target relative error")
	delta := fs.Float64("delta", 0.1, "target ε-violation probability")
	n := fs.Int("n", 20000, "adversarial stream length")
	trials := fs.Int("trials", 8, "independent trials per mode")
	seed := fs.Uint64("seed", 1, "base RNG seed (trial t runs with seed+t)")
	check := fs.Bool("check", false,
		"exit non-zero unless the attack breaks plain mode (violation rate >= 5δ) while robust mode stays within δ at <= 4x the words")
	fs.Parse(args)

	var strategy disttrack.AttackStrategy
	switch *strategyName {
	case "boundary-camp":
		strategy = disttrack.AttackBoundaryCamp
	case "threshold-learn":
		strategy = disttrack.AttackThresholdLearn
	default:
		fatalf("unknown strategy %q", *strategyName)
	}

	type tally struct {
		rate, worst float64
		words       int64
	}
	run := func(robustMode bool) tally {
		var t tally
		for i := 0; i < *trials; i++ {
			opt := disttrack.Options{K: *k, Epsilon: *eps, Seed: *seed + uint64(i), Robust: robustMode}
			out := disttrack.RunAttack(opt, strategy, *n, *seed+uint64(i)^0xa77ac)
			t.rate += out.ViolationRate()
			t.worst = math.Max(t.worst, out.WorstErr)
			t.words += out.Words
		}
		t.rate /= float64(*trials)
		t.words /= int64(*trials)
		return t
	}

	fmt.Printf("adaptive adversary: strategy=%s k=%d eps=%g delta=%g n=%d trials=%d\n\n",
		strategy, *k, *eps, *delta, *n, *trials)
	plain := run(false)
	robustT := run(true)
	ratio := float64(robustT.words) / float64(max(plain.words, 1))
	fmt.Printf("%8s  %16s  %18s  %10s\n", "mode", "ε-violation rate", "worst err (·ε·n)", "words/run")
	fmt.Printf("%8s  %16.3f  %18.2f  %10d\n", "plain", plain.rate, plain.worst, plain.words)
	fmt.Printf("%8s  %16.3f  %18.2f  %10d  (%.2f× plain)\n", "robust", robustT.rate, robustT.worst, robustT.words, ratio)

	if *check {
		ok := true
		if plain.rate < 5**delta {
			fmt.Printf("\nCHECK FAIL: attack did not break plain mode (rate %.3f < 5δ = %.3f)\n", plain.rate, 5**delta)
			ok = false
		}
		if robustT.rate > *delta {
			fmt.Printf("\nCHECK FAIL: robust mode violated ε more often than δ (rate %.3f > %.3f)\n", robustT.rate, *delta)
			ok = false
		}
		if ratio > 4 {
			fmt.Printf("\nCHECK FAIL: robust communication overhead %.2f× exceeds the 4× budget\n", ratio)
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Println("\nATTACK CHECK OK")
	}
}

// distConfig is the protocol shape shared by serve, aggregate, and connect.
type distConfig struct {
	problem  string
	alg      string
	k        int
	eps      float64
	rescale  float64
	robust   bool
	copies   int // single-process mode only
	topology string
	fanout   int

	// shape is the shard arithmetic of -topology tree, filled in by check.
	shape proto.TreeShape
}

func distFlags(fs *flag.FlagSet) *distConfig {
	c := &distConfig{}
	fs.StringVar(&c.problem, "problem", "count", "count | freq | rank")
	fs.StringVar(&c.alg, "alg", "randomized", "randomized | deterministic | sampling")
	fs.IntVar(&c.k, "k", 2, "number of site processes (with -topology tree: total leaf sites)")
	fs.Float64Var(&c.eps, "eps", 0.05, "target relative error")
	fs.Float64Var(&c.rescale, "rescale", 0, "internal eps rescale (0 = paper default 3)")
	fs.BoolVar(&c.robust, "robust", false,
		"adversarially robust count tracking: noised reports + gated releases (count/randomized only)")
	fs.StringVar(&c.topology, "topology", "flat", "flat | tree (two-level coordinator tree)")
	fs.IntVar(&c.fanout, "fanout", 16, "leaf sites per aggregator shard (with -topology tree)")
	return c
}

// tree reports whether the deployment is the two-level coordinator tree.
func (c *distConfig) tree() bool {
	switch c.topology {
	case "", "flat":
		return false
	case "tree":
		return true
	}
	fatalf("unknown topology %q", c.topology)
	panic("unreachable")
}

// spec maps the shared flags onto the registry's protocol spec. The zero
// Seed is fine for the coordinator role: the robust release-noise stream
// only has to be reproducible across a crash-restart of the same process,
// not secret from the sites.
func (c *distConfig) spec() registry.Spec {
	return registry.Spec{Problem: registry.Problem(c.problem), Algorithm: registry.Algorithm(c.alg),
		K: c.k, Eps: c.eps, Rescale: c.rescale, Robust: c.robust, Copies: c.copies}
}

// check is every entry point's gate, run before anything is built: the
// registry decides which problem/alg/robust/copies/topology combinations
// exist, proto.NewTreeShape which (k, fanout) pairs make a tree.
func (c *distConfig) check() {
	tree := c.tree()
	err := c.spec().Check(tree)
	if err == nil && tree {
		c.shape, err = proto.NewTreeShape(c.k, c.fanout, c.eps)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// groupSpec is the shape of shard g's child-facing protocol: the aggregator
// plays coordinator over the shard's leaves at the per-level ε.
func (c *distConfig) groupSpec(g int) registry.Spec {
	return c.spec().Level(c.shape, c.shape.Size(g))
}

// rootSpec is the shape of the top-level protocol: one site slot per
// aggregator shard.
func (c *distConfig) rootSpec() registry.Spec {
	return c.spec().Level(c.shape, c.shape.Groups)
}

// fingerprintAt extends the flat fingerprint with the tree link identity:
// level 1 is the aggregator→root link, level 0 shard g the leaf→aggregator
// links of shard g. Hashing the link identity means a leaf pointed at the
// wrong aggregator (or an aggregator claiming a mismatched shard) is
// rejected at the handshake instead of silently mis-tracking.
func (c *distConfig) fingerprintAt(level, shard int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%g/%g/%t/tree/%d/L%d/S%d",
		c.problem, c.alg, c.k, c.eps, c.rescale, c.robust, c.fanout, level, shard)
	return h.Sum64()
}

// reporter renders a machine's headline answer — the problem's own query at
// a fixed probe, plus the round when the machine has one — and is safe to
// run on the serving loop.
func reporter(label string, coord proto.Coordinator, q registry.Queries) func() {
	return func() {
		switch {
		case q.Count != nil:
			fmt.Printf("%sn̂ = %.0f", label, q.Count())
		case q.Freq != nil:
			fmt.Printf("%sf̂(0) = %.0f", label, q.Freq(0))
		case q.Rank != nil:
			fmt.Printf("%sn̂ = rank(∞) = %.0f", label, q.Rank(math.Inf(1)))
		}
		if rc, ok := coord.(interface{ Round() int }); ok {
			fmt.Printf(" (round %d)", rc.Round())
		}
		fmt.Println()
	}
}

// feedingCoord mounts a proto.Aggregator as a tcp.Server coordinator: each
// Receive on the serving loop is one delivered child frame, so its return
// is a quiescent instant — exactly when the Aggregator contract wants feed
// decisions evaluated. Whatever DrainFeed emits flows up the parent link
// as ordinary absolute-state arrivals.
type feedingCoord struct {
	agg  proto.Aggregator
	feed func(item int64, value float64, count int64)
}

func (f *feedingCoord) Receive(from int, m proto.Message,
	send func(to int, m proto.Message), broadcast func(proto.Message)) {
	f.agg.Receive(from, m, send, broadcast)
	f.agg.DrainFeed(f.feed)
}

func (f *feedingCoord) SpaceWords() int { return f.agg.SpaceWords() }

func (f *feedingCoord) Round() int {
	if rc, ok := f.agg.(interface{ Round() int }); ok {
		return rc.Round()
	}
	return 0
}

// resyncCoord additionally forwards the optional Resyncer capability. It is
// a distinct type built only when the inner aggregator actually has the
// capability: a blind delegation would make the serve loop's type assertion
// succeed on aggregators (count/deterministic) that cannot resync a
// rejoining leaf.
type resyncCoord struct {
	feedingCoord
	rs proto.Resyncer
}

func (f *resyncCoord) Resync(emit func(proto.Message)) { f.rs.Resync(emit) }

func newFeedingCoord(agg proto.Aggregator, feed func(item int64, value float64, count int64)) proto.Coordinator {
	fc := feedingCoord{agg: agg, feed: feed}
	if rs, ok := agg.(proto.Resyncer); ok {
		return &resyncCoord{feedingCoord: fc, rs: rs}
	}
	return &fc
}

// fingerprint hashes the protocol configuration; serve and connect must
// agree on it, so a mismatched deployment is rejected at the handshake
// instead of silently mis-tracking.
func (c *distConfig) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%g/%g/%t", c.problem, c.alg, c.k, c.eps, c.rescale, c.robust)
	return h.Sum64()
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := distFlags(fs)
	addr := fs.String("addr", ":7077", "listen address")
	reportEvery := fs.Int64("report", 200, "print an estimate every N protocol messages (0 = never)")
	rejoinWait := fs.Duration("rejoinwait", 10*time.Second,
		"how long a crashed site's slot stays open for a rejoin before it is declared lost (0 = immediate loss)")
	walDir := fs.String("wal", "",
		"directory for durable coordinator state (write-ahead log + snapshots); empty = no persistence")
	snapEvery := fs.Int64("snapevery", 0,
		"snapshot cadence in logged coordinator frames (0 = default 4096; needs -wal)")
	resume := fs.Bool("resume", false,
		"recover coordinator state from -wal (snapshot + log replay) before accepting sites")
	httpAddr := fs.String("http", "",
		"serve the HTTP/JSON query API + Prometheus /metrics on this address (e.g. :8080); empty = off")
	local := fs.Bool("local", false,
		"host the tracker in this process (no site processes): ingest and queries both run over -http")
	transport := fs.String("transport", "goroutine",
		"in-process transport with -local: sequential | goroutine | tcp")
	seed := fs.Uint64("seed", 1, "site RNG seed with -local")
	quantLo := fs.Float64("quantlo", 0,
		"lower bound of the /v1/quantile bisection domain (rank deployments)")
	quantHi := fs.Float64("quanthi", 1e12,
		"upper bound of the /v1/quantile bisection domain (rank deployments)")
	fs.Parse(args)
	if *resume && *walDir == "" {
		fatalf("-resume needs -wal")
	}
	if *snapEvery < 0 {
		fatalf("-snapevery must be >= 0 (got %d; 0 = default cadence)", *snapEvery)
	}
	if *snapEvery != 0 && *walDir == "" {
		fatalf("-snapevery needs -wal")
	}
	cfg.check()
	if *walDir != "" && cfg.tree() {
		// The root's WAL would capture aggregator estimate-deltas while a
		// crashed aggregator rejoins by replaying absolute state from zero —
		// a recovery would double-count every shard that outlived the crash.
		fatalf("-wal is incompatible with -topology tree: the subtree is the unit of recovery " +
			"(aggregators replay absolute state on rejoin; a root WAL would double-count it)")
	}
	if *local {
		if *resume {
			fatalf("-resume applies to distributed serve (-local builds a fresh tracker; point -wal at an empty directory)")
		}
		if *httpAddr == "" {
			fatalf("-local needs -http (the HTTP API is its only ingest and query surface)")
		}
		serveLocal(cfg, *httpAddr, *transport, *seed, *walDir, *snapEvery, *quantLo, *quantHi)
		return
	}

	// With -topology tree this process is the root: it serves one slot per
	// aggregator shard (each played by a tracksim aggregate process) at the
	// per-level ε, and cannot tell an aggregator from a busy site.
	spec, fingerprint := cfg.spec(), cfg.fingerprint()
	if cfg.tree() {
		spec, fingerprint = cfg.rootSpec(), cfg.fingerprintAt(1, 0)
	}
	coord, queries := registry.Coordinator(spec)
	report := reporter("", coord, queries)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	defer ln.Close()
	if cfg.tree() {
		fmt.Printf("root coordinator: problem=%s alg=%s k=%d fanout=%d eps=%g listening on %s for %d aggregator shards\n",
			cfg.problem, cfg.alg, cfg.k, cfg.fanout, cfg.eps, ln.Addr(), spec.K)
	} else {
		fmt.Printf("coordinator: problem=%s alg=%s k=%d eps=%g listening on %s\n",
			cfg.problem, cfg.alg, cfg.k, cfg.eps, ln.Addr())
	}

	srv := &tcp.Server{
		Coord:       coord,
		K:           spec.K,
		Config:      fingerprint,
		RejoinWait:  *rejoinWait,
		ReportEvery: *reportEvery,
		// Sites ship periodic Progress frames, so mid-run arrivals are live.
		Report: func(m runtime.Metrics) {
			fmt.Printf("[%d arrivals] ", m.Arrivals)
			report()
		},
	}
	if *walDir != "" {
		store, err := disttrack.OpenDiskStore(*walDir)
		if err != nil {
			fatalf("%v", err)
		}
		defer store.Close()
		srv.Persist, srv.SnapshotEvery, srv.Resume = store, *snapEvery, *resume
		if *resume {
			fmt.Printf("resuming coordinator state from %s\n", *walDir)
		}
	}

	// The serving surface: queries route onto the serve loop via Inspect,
	// so they read the coordinator at frame boundaries, concurrently with
	// live site ingestion.
	backend := &distBackend{srv: srv}
	if *httpAddr != "" {
		topo := "flat"
		if cfg.tree() {
			topo = "tree"
		}
		api := &serve.Server{
			Backend: distFuncs(queries, backend, *quantLo, *quantHi),
			Info: serve.Info{Problem: cfg.problem, Algorithm: cfg.alg, Transport: "tcp",
				Topology: topo, K: cfg.k, Epsilon: cfg.eps},
		}
		hsrv := &http.Server{Addr: *httpAddr, Handler: api.Handler()}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "http: %v\n", err)
			}
		}()
		defer hsrv.Close()
		fmt.Printf("HTTP query API + /metrics on %s\n", *httpAddr)
	}

	// SIGINT/SIGTERM shut down gracefully: the serve loop drains what it
	// already received, writes a final snapshot, and syncs the WAL, so a
	// later serve -resume picks up exactly where this one stopped.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\nreceived %v; shutting down gracefully\n", sig)
		if !srv.Shutdown() {
			os.Exit(1)
		}
	}()

	m, err := srv.Serve(ln)
	backend.finish(m) // the loop is gone; queries now read the final state directly
	switch {
	case err == tcp.ErrShutdown:
		fmt.Printf("\nshut down before all sites finished; coordinator state sealed")
		if *walDir != "" {
			fmt.Printf(" (restart with -resume to continue)")
		}
		fmt.Println()
	case err != nil:
		// A handshake failure is fatal; lost sites still leave a partial
		// final state worth printing alongside the warning.
		if m.Arrivals == 0 && m.MessagesUp == 0 {
			fatalf("serve: %v", err)
		}
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		fmt.Printf("\nrun ended with lost sites; partial final state:\n")
	default:
		if cfg.tree() {
			fmt.Printf("\nall %d aggregator shards finished; final state:\n", spec.K)
		} else {
			fmt.Printf("\nall %d sites finished; final state:\n", cfg.k)
		}
	}
	report()
	if cfg.tree() {
		// Aggregators feed re-expressed (virtual) arrivals, so for the
		// threshold protocols this is an ε-accurate image of the leaf total,
		// not an exact ledger.
		fmt.Printf("virtual arrivals (from shard Done frames): %d\n", m.Arrivals)
	} else {
		fmt.Printf("arrivals (from site Done frames): %d\n", m.Arrivals)
	}
	fmt.Printf("messages:   %d\n", m.Messages())
	fmt.Printf("words:      %d\n", m.Words())
	fmt.Printf("broadcasts: %d\n", m.Broadcasts)
	fmt.Printf("live sites: %d of %d\n", m.LiveSites, spec.K)
	if *walDir != "" {
		fmt.Printf("durability: %d snapshots, %d WAL frames replayed on start, %d resyncs served\n",
			m.Snapshots, m.ReplayedFrames, m.Resyncs)
	}
	if srv.Rejoins > 0 {
		fmt.Printf("recovered %d crashed-site connection(s) via rejoin\n", srv.Rejoins)
	}
	if srv.Rejects > 0 {
		fmt.Printf("rejected %d stray connection(s) during handshake (garbage or silent dials)\n",
			srv.Rejects)
	}
}

// streamOne feeds element i of a site's workload: count streams identity,
// freq a zipf item, rank globally distinct values interleaved across sites.
func streamOne(cfg *distConfig, sc *tcp.SiteConn, site, i int, items func(int) int64) {
	switch cfg.problem {
	case "count":
		sc.Arrive(0, 0)
	case "freq":
		sc.Arrive(items(i), 0)
	case "rank":
		sc.Arrive(0, float64(i*cfg.k+site))
	}
}

func connectMain(args []string) {
	fs := flag.NewFlagSet("connect", flag.ExitOnError)
	cfg := distFlags(fs)
	addr := fs.String("addr", "localhost:7077", "coordinator address (with -topology tree: this shard's aggregator)")
	site := fs.Int("site", 0, "this process's site index in [0, k) (with -topology tree: local leaf index in [0, shard size))")
	shard := fs.Int("shard", 0, "aggregator shard this leaf belongs to (with -topology tree)")
	n := fs.Int("n", 100000, "elements to stream from this site")
	seed := fs.Uint64("seed", 0, "site RNG seed (default: site index + 1)")
	reconnect := fs.Bool("reconnect", true,
		"transparently redial the coordinator (rejoin handshake) if the connection drops mid-run")
	redialWait := fs.Duration("redialwait", tcp.DefaultRedialWait,
		"delay between reconnection attempts (with -reconnect)")
	redialAttempts := fs.Int("redialattempts", tcp.DefaultRedialAttempts,
		"reconnection attempts before giving up (with -reconnect); raise to ride out a coordinator restart")
	fs.Parse(args)
	cfg.check()

	// The leaf's identity: who it dials, its slot there, the machine's shape,
	// and the globally distinct stream offset (rank values must not collide
	// across shards, so the stream is indexed by the global leaf number).
	spec, fingerprint, global := cfg.spec(), cfg.fingerprint(), *site
	if cfg.tree() {
		if *shard < 0 || *shard >= cfg.shape.Groups {
			fatalf("shard %d out of range [0, %d)", *shard, cfg.shape.Groups)
		}
		spec, fingerprint = cfg.groupSpec(*shard), cfg.fingerprintAt(0, *shard)
		global = *shard*cfg.fanout + *site
	}
	if *site < 0 || *site >= spec.K {
		fatalf("site %d out of range [0, %d)", *site, spec.K)
	}
	if *seed == 0 {
		*seed = uint64(global) + 1
	}

	machine := registry.Site(spec, stats.New(*seed))
	sc, err := tcp.DialSite(*addr, *site, spec.K, fingerprint, machine)
	if err != nil {
		fatalf("%v", err)
	}
	sc.AutoReconnect = *reconnect
	sc.RedialWait, sc.RedialAttempts = *redialWait, *redialAttempts
	if cfg.tree() {
		fmt.Printf("leaf %d (shard %d, slot %d): connected to %s, streaming %d elements\n",
			global, *shard, *site, *addr, *n)
	} else {
		fmt.Printf("site %d: connected to %s, streaming %d elements\n", *site, *addr, *n)
	}

	items := workload.ZipfItems(1000, 1.1, stats.New(*seed^0xfeed))
	for i := 0; i < *n; i++ {
		streamOne(cfg, sc, global, i, items)
	}
	if err := sc.Close(); err != nil {
		fatalf("site %d: %v", *site, err)
	}
	if r := sc.Rejoins(); r > 0 {
		fmt.Printf("site %d: survived %d connection drop(s) via rejoin\n", *site, r)
	}
	fmt.Printf("site %d: done, %d arrivals streamed\n", *site, sc.Arrivals())
}

// aggregateMain runs one interior tree node: the coordinator protocol over
// this shard's leaves (a child-facing tcp.Server) and the site protocol
// toward the root (a parent-facing tcp.SiteConn). Absorbed leaf reports are
// re-expressed at quiescent instants — after each delivered child frame —
// as ordinary absolute-state arrivals on the parent link, so the root
// cannot tell an aggregator from a busy site.
//
// A crashed aggregator is replaced by rerunning the same command with
// -rejoin: the replacement starts from fresh protocol state, reclaims the
// shard's root slot through the rejoin handshake, and its leaves redial and
// replay from 0. The protocols' absolute-state messages make the rebuilt
// subtree reconverge exactly at the root with no double counting — the
// subtree is the unit of recovery, which is also why aggregate has no -wal:
// an aggregator's state is cheaper to rebuild from its children than to
// persist.
//
//	go run ./cmd/tracksim aggregate -topology tree -fanout 2 -k 4 -shard 0 -addr :7177 -parent localhost:7077
func aggregateMain(args []string) {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	cfg := distFlags(fs)
	addr := fs.String("addr", ":7177", "listen address for this shard's leaves")
	parent := fs.String("parent", "localhost:7077", "root coordinator address")
	shard := fs.Int("shard", 0, "this aggregator's shard index in [0, ceil(k/fanout))")
	seed := fs.Uint64("seed", 0, "parent-facing site machine RNG seed (default: shard + 1)")
	reportEvery := fs.Int64("report", 200, "print a shard estimate every N child frames (0 = never)")
	rejoinWait := fs.Duration("rejoinwait", 10*time.Second,
		"how long a crashed leaf's slot stays open for a rejoin before it is declared lost (0 = immediate loss)")
	rejoin := fs.Bool("rejoin", false,
		"this process replaces a crashed aggregator: reclaim the shard's root slot via the rejoin handshake (the shard's leaves must redial and replay from 0)")
	reconnect := fs.Bool("reconnect", true,
		"transparently redial the root (rejoin handshake) if the parent link drops mid-run")
	redialWait := fs.Duration("redialwait", tcp.DefaultRedialWait,
		"delay between parent reconnection attempts (with -reconnect)")
	redialAttempts := fs.Int("redialattempts", tcp.DefaultRedialAttempts,
		"parent reconnection attempts before giving up (with -reconnect)")
	fs.Parse(args)
	cfg.topology = "tree" // aggregate is meaningless in a flat star
	cfg.check()
	groups := cfg.shape.Groups
	if *shard < 0 || *shard >= groups {
		fatalf("shard %d out of range [0, %d)", *shard, groups)
	}
	if *seed == 0 {
		*seed = uint64(*shard) + 1
	}
	size := cfg.shape.Size(*shard)
	agg, queries := registry.Aggregator(cfg.groupSpec(*shard))
	report := reporter("shard ", agg, queries)

	// Parent link first: the shard must hold (or reclaim) its root slot
	// before absorbing leaf traffic it would have nowhere to feed.
	parentSite := func() proto.Site { return registry.Site(cfg.rootSpec(), stats.New(*seed)) }
	var sc *tcp.SiteConn
	var err error
	if *rejoin {
		var acked int64
		sc, acked, err = rejoinLoop(*parent, *shard, groups, cfg.fingerprintAt(1, 0), parentSite, *rejoinWait)
		if err == nil {
			fmt.Printf("aggregator %d: reclaimed root slot (root had acknowledged %d virtual arrivals); leaves must replay from 0\n",
				*shard, acked)
		}
	} else {
		sc, err = tcp.DialSite(*parent, *shard, groups, cfg.fingerprintAt(1, 0), parentSite())
	}
	if err != nil {
		fatalf("aggregator %d: parent %s: %v", *shard, *parent, err)
	}
	sc.AutoReconnect = *reconnect
	sc.RedialWait, sc.RedialAttempts = *redialWait, *redialAttempts

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	defer ln.Close()
	fmt.Printf("aggregator: problem=%s alg=%s shard=%d of %d, listening on %s for %d leaves, feeding %s\n",
		cfg.problem, cfg.alg, *shard, groups, ln.Addr(), size, *parent)

	srv := &tcp.Server{
		Coord:       newFeedingCoord(agg, sc.ArriveBatch),
		K:           size,
		Config:      cfg.fingerprintAt(0, *shard),
		RejoinWait:  *rejoinWait,
		ReportEvery: *reportEvery,
		Report: func(m runtime.Metrics) {
			fmt.Printf("[%d leaf arrivals, %d fed up] ", m.Arrivals, sc.Arrivals())
			report()
		},
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if sig, ok := <-sigc; ok {
			fmt.Fprintf(os.Stderr, "\nreceived %v; shutting down gracefully\n", sig)
			if !srv.Shutdown() {
				os.Exit(1)
			}
		}
	}()

	m, err := srv.Serve(ln)
	switch {
	case err == tcp.ErrShutdown:
		// Drop the root slot without a Done frame so a replacement
		// `aggregate -rejoin` can reclaim it within the root's rejoin window.
		sc.Abort()
		fmt.Println("\nshut down before all leaves finished; root slot left open for an `aggregate -rejoin` replacement")
		return
	case err != nil:
		sc.Abort()
		fatalf("aggregator %d: %v", *shard, err)
	}
	// All leaves are done: seal the shard's contribution upward. Close sends
	// Done with the fed virtual-arrival total and waits for the root's ack.
	if cerr := sc.Close(); cerr != nil {
		fatalf("aggregator %d: parent link: %v", *shard, cerr)
	}
	fmt.Printf("\nall %d leaves finished; shard final state:\n", size)
	report()
	fmt.Printf("leaf arrivals (from Done frames): %d\n", m.Arrivals)
	fmt.Printf("fed upward: %d virtual arrivals\n", sc.Arrivals())
	fmt.Printf("child messages: %d, words: %d\n", m.Messages(), m.Words())
	if r := sc.Rejoins(); r > 0 {
		fmt.Printf("parent link survived %d drop(s) via rejoin\n", r)
	}
	if srv.Rejoins > 0 {
		fmt.Printf("recovered %d crashed-leaf connection(s) via rejoin\n", srv.Rejoins)
	}
	if srv.Rejects > 0 {
		fmt.Printf("rejected %d stray connection(s) during handshake\n", srv.Rejects)
	}
}

// rejoinLoop retries the rejoin handshake until the parent accepts it or
// the window closes: a replacement dialing the instant after the crash can
// race the parent noticing the dead connection. Each attempt gets a fresh
// machine (a failed handshake may have partially resynced the previous
// one). Returns the parent's last acknowledged arrival count for the slot.
func rejoinLoop(addr string, slot, k int, config uint64, machine func() proto.Site,
	window time.Duration) (*tcp.SiteConn, int64, error) {
	deadline := time.Now().Add(window)
	for {
		sc, rsy, err := tcp.RejoinSite(addr, slot, k, config, 0, machine())
		if err == nil {
			return sc, rsy.Arrivals, nil
		}
		if time.Now().After(deadline) {
			return nil, 0, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosMain is the crash/rejoin soak: a full distributed deployment —
// coordinator plus k sites over real TCP on the loopback — driven by a
// seeded kill schedule. Killed sites crash mid-stream (no Done frame, site
// machine lost), rejoin through the recovery handshake, and replay their
// stream from 0; the protocols' absolute-state messages make the replay
// reconverge exactly, so the run must finish with every arrival accounted
// and (for families that answer a count query) the ε guarantee intact — see
// gateCount. Exits non-zero otherwise.
//
// With -coordkill the coordinator itself also crashes mid-run — abruptly,
// no final snapshot — and a replacement recovers its state from the durable
// store (snapshot + write-ahead-log replay) while every site rides the
// outage through its reconnection loop.
//
// With -topology tree the kill schedule targets aggregators instead of
// leaves, and the unit of recovery is the whole subtree (see chaosTree).
//
//	go run ./cmd/tracksim chaos -k 4 -n 50000 -kills 2 -seed 7
//	go run ./cmd/tracksim chaos -k 4 -n 50000 -kills 1 -coordkill
//	go run ./cmd/tracksim chaos -topology tree -fanout 4 -k 16 -n 20000 -kills 1
func chaosMain(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	cfg := distFlags(fs)
	n := fs.Int("n", 50000, "elements per site")
	kills := fs.Int("kills", 1, "how many sites crash and rejoin (at seeded points mid-stream)")
	seed := fs.Uint64("seed", 1, "chaos schedule seed")
	rejoinWait := fs.Duration("rejoinwait", 30*time.Second, "server-side rejoin window")
	coordKill := fs.Bool("coordkill", false,
		"also crash the coordinator mid-run (abrupt, no final snapshot) and resume it from its durable store")
	snapEvery := fs.Int64("snapevery", 32, "snapshot cadence in logged frames for the -coordkill store")
	fs.Parse(args)
	cfg.check()
	if cfg.tree() {
		if *coordKill {
			fatalf("-coordkill is a flat-star drill (it exercises the durable store); the tree drill kills aggregators")
		}
		if *kills < 0 || *kills > cfg.shape.Groups {
			fatalf("-kills %d out of range [0, %d] (tree kills target aggregator shards)", *kills, cfg.shape.Groups)
		}
		chaosTree(cfg, *n, *kills, *seed, *rejoinWait)
		return
	}
	if *kills < 0 || *kills > cfg.k {
		fatalf("-kills %d out of range [0, %d]", *kills, cfg.k)
	}

	spec := cfg.spec()
	coord, queries := registry.Coordinator(spec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	defer ln.Close()
	srv := &tcp.Server{Coord: coord, K: cfg.k, Config: cfg.fingerprint(), RejoinWait: *rejoinWait}
	truth := int64(cfg.k) * int64(*n)
	var store persist.Store
	if *coordKill {
		// The serve loop trips its own kill once a quarter of the stream
		// has landed (Report runs on the loop; Kill just posts an event).
		store = persist.NewMem()
		srv.Persist, srv.SnapshotEvery = store, *snapEvery
		tripped := false
		srv.ReportEvery = 64
		srv.Report = func(m runtime.Metrics) {
			if !tripped && m.Arrivals >= truth/4 {
				tripped = true
				srv.Kill()
			}
		}
	}
	type served struct {
		m   runtime.Metrics
		err error
	}
	res := make(chan served, 1)
	go func() {
		m, err := srv.Serve(ln)
		res <- served{m, err}
	}()
	addr := ln.Addr().String()

	// The seeded schedule: sites 1..kills crash once, at a point in the
	// middle half of their stream.
	chaosRNG := stats.New(*seed ^ 0xc4405)
	killAt := make([]int, cfg.k) // 0 = never
	for s := 1; s <= *kills; s++ {
		killAt[s%cfg.k] = *n/4 + chaosRNG.Intn(*n/2)
	}

	fmt.Printf("chaos: problem=%s alg=%s k=%d eps=%g n=%d/site kills=%d seed=%d\n",
		cfg.problem, cfg.alg, cfg.k, cfg.eps, *n, *kills, *seed)
	start := time.Now()
	// harden tunes a site connection for the drill: tight progress frames,
	// and with -coordkill a redial budget wide enough to ride out the
	// coordinator's death and resumed restart.
	harden := func(sc *tcp.SiteConn) {
		sc.ProgressEvery = 1024
		if *coordKill {
			sc.AutoReconnect = true
			// ~45s of outage budget under the capped exponential backoff
			// (50ms doubling to the 500ms cap, ±25% jitter).
			sc.RedialAttempts = 100
		}
	}
	var wg sync.WaitGroup
	for site := 0; site < cfg.k; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			siteSeed := uint64(site) + 1
			items := workload.ZipfItems(1000, 1.1, stats.New(siteSeed^0xfeed))
			fresh := func() proto.Site { return registry.Site(spec, stats.New(siteSeed)) }
			sc, err := tcp.DialSite(addr, site, cfg.k, cfg.fingerprint(), fresh())
			if err != nil {
				fatalf("site %d: %v", site, err)
			}
			harden(sc)
			// With -coordkill the sites pace themselves slightly so the
			// coordinator's serve loop keeps up — the kill must land while
			// they are still mid-stream, or the drill degenerates into a
			// resume of an already-finished run.
			throttle := func(i int) {
				if *coordKill && i%256 == 255 {
					time.Sleep(time.Millisecond)
				}
			}
			if killAt[site] > 0 {
				for i := 0; i < killAt[site]; i++ {
					streamOne(cfg, sc, site, i, items)
					throttle(i)
				}
				sc.Abort() // crash: no Done, machine state lost
				fmt.Printf("chaos: site %d crashed at %d/%d arrivals\n", site, killAt[site], *n)
				// The replacement process: fresh machine, same seed, full
				// replay (the stream source is replayable).
				sc, _, err = rejoinLoop(addr, site, cfg.k, cfg.fingerprint(), fresh, *rejoinWait)
				if err != nil {
					fatalf("site %d: rejoin never accepted: %v", site, err)
				}
				harden(sc)
				fmt.Printf("chaos: site %d rejoined (coordinator had acknowledged %d arrivals), replaying\n",
					site, sc.LastResync().Arrivals)
				items = workload.ZipfItems(1000, 1.1, stats.New(siteSeed^0xfeed))
			}
			for i := 0; i < *n; i++ {
				streamOne(cfg, sc, site, i, items)
				throttle(i)
			}
			if err := sc.Close(); err != nil {
				fatalf("site %d: %v", site, err)
			}
		}(site)
	}
	var priorRejoins int64
	if *coordKill {
		// The first Serve returns at the kill, while the sites are still
		// streaming (their sends stall in the redial loop). Restart on the
		// same address with a fresh coordinator machine recovered from the
		// store; every site rejoins through the assembly-time resync.
		sr := <-res
		if sr.err != tcp.ErrKilled {
			fatalf("chaos: expected the coordinator kill, got: %v", sr.err)
		}
		priorRejoins = srv.Rejoins
		fmt.Printf("chaos: coordinator killed at %d arrivals (%d snapshots taken); restarting with resume\n",
			sr.m.Arrivals, sr.m.Snapshots)
		ln.Close() // the old accept loop dies with the listener
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			fatalf("chaos: re-listen %s: %v", addr, err)
		}
		defer ln2.Close()
		coord, queries = registry.Coordinator(spec) // fresh machine; recovery fills it from the store
		srv = &tcp.Server{Coord: coord, K: cfg.k, Config: cfg.fingerprint(),
			RejoinWait: *rejoinWait, Persist: store, SnapshotEvery: *snapEvery, Resume: true}
		go func() {
			m, err := srv.Serve(ln2)
			res <- served{m, err}
		}()
	}
	wg.Wait()
	sr := <-res
	if sr.err != nil {
		fatalf("chaos: serve: %v", sr.err)
	}

	totalRejoins := priorRejoins + srv.Rejoins
	fmt.Printf("\nchaos: run completed in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("arrivals:   %d (truth %d)\n", sr.m.Arrivals, truth)
	fmt.Printf("messages:   %d, words: %d\n", sr.m.Messages(), sr.m.Words())
	fmt.Printf("live sites: %d of %d, rejoins: %d\n", sr.m.LiveSites, cfg.k, totalRejoins)
	if *coordKill {
		fmt.Printf("durability: %d snapshots, %d WAL frames replayed on resume, %d resyncs served\n",
			sr.m.Snapshots, sr.m.ReplayedFrames, sr.m.Resyncs)
		if cfg.alg != "deterministic" && sr.m.Snapshots < 1 {
			fatalf("chaos: no snapshot was ever written")
		}
	}
	if sr.m.Arrivals != truth {
		fatalf("chaos: arrival accounting broken: %d != %d", sr.m.Arrivals, truth)
	}
	if sr.m.LiveSites != cfg.k {
		fatalf("chaos: %d sites still dark at run end", cfg.k-sr.m.LiveSites)
	}
	if totalRejoins < int64(*kills) {
		fatalf("chaos: only %d rejoins recorded for %d kills", totalRejoins, *kills)
	}
	gateCount(spec, queries, truth, cfg.eps, "recovery")
	fmt.Println("CHAOS OK")
}

// gateCount is the chaos drills' accuracy gate for every family that answers
// a count query: the final estimate is printed against the leaf truth and,
// outside the ε band, fails the drill. The sampling baseline only warns: one
// instant of it leaves the band with probability ≈ 1/3 by construction (1/2
// through a tree — the δ budgets of guarantee_test.go), kills or no kills, so
// a single run cannot tell a recovery bug from its variance.
func gateCount(spec registry.Spec, q registry.Queries, truth int64, eps float64, after string) {
	if q.Count == nil {
		return
	}
	est := q.Count()
	rel := stats.RelErr(est, float64(truth))
	fmt.Printf("estimate:   %.0f (rel err %.4f, ε %g)\n", est, rel, eps)
	switch {
	case rel <= eps:
	case spec.Algorithm == registry.Sampling:
		fmt.Printf("warning: estimate outside the ε band after %s (sampling holds it with constant probability only)\n", after)
	default:
		fatalf("chaos: estimate left the ε band after %s", after)
	}
}

// chaosTree is the tree variant of the chaos drill: a full two-level
// deployment over loopback TCP — root, one aggregator server per shard,
// fanout leaves each — where the seeded kill schedule targets aggregators.
// A killed aggregator dies abruptly (its leaves' links collapse mid-stream)
// and abandons its root slot without a Done; the replacement starts from
// fresh protocol state, reclaims the slot through the rejoin handshake, and
// the shard's leaves redial it and replay from 0. The protocols'
// absolute-state messages make the rebuilt subtree reconverge exactly at
// the root — the subtree is the unit of recovery — so the run must end with
// every shard live, every kill recovered, and (gateCount) the ε guarantee
// intact. Exits non-zero otherwise.
//
// The root's arrival ledger is NOT checked against the leaf truth: shards
// feed re-expressed virtual arrivals, which for the threshold protocols are
// an ε-accurate image of the leaf total, not an exact count.
func chaosTree(cfg *distConfig, n, kills int, seed uint64, rejoinWait time.Duration) {
	groups := cfg.shape.Groups
	rootSpec := cfg.rootSpec()
	fpRoot := cfg.fingerprintAt(1, 0)
	truth := int64(cfg.k) * int64(n)

	coord, queries := registry.Coordinator(rootSpec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	defer ln.Close()
	root := &tcp.Server{Coord: coord, K: groups, Config: fpRoot, RejoinWait: rejoinWait}
	type served struct {
		m   runtime.Metrics
		err error
	}
	rres := make(chan served, 1)
	go func() {
		m, err := root.Serve(ln)
		rres <- served{m, err}
	}()
	rootAddr := ln.Addr().String()

	// The seeded schedule: shards 1..kills crash once, when their total leaf
	// arrivals cross a point in the middle half of the shard's stream.
	chaosRNG := stats.New(seed ^ 0x7ee)
	killAt := make([]int64, groups) // 0 = never
	for s := 1; s <= kills; s++ {
		g := s % groups
		killAt[g] = int64(cfg.shape.Size(g)) * int64(n/4+chaosRNG.Intn(n/2))
	}

	fmt.Printf("chaos: problem=%s alg=%s k=%d fanout=%d (%d shards) eps=%g n=%d/leaf kills=%d seed=%d\n",
		cfg.problem, cfg.alg, cfg.k, cfg.fanout, groups, cfg.eps, n, kills, seed)
	start := time.Now()

	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := cfg.shape.Size(g)
			fpShard := cfg.fingerprintAt(0, g)
			leafSpec := cfg.groupSpec(g)
			for attempt := 1; ; attempt++ {
				agg, _ := registry.Aggregator(leafSpec)

				// Parent link first: dial on the first life, reclaim the
				// abandoned slot on a rebuild.
				var sc *tcp.SiteConn
				var err error
				freshSite := func() proto.Site { return registry.Site(rootSpec, stats.New(uint64(g)+1)) }
				if attempt == 1 {
					sc, err = tcp.DialSite(rootAddr, g, groups, fpRoot, freshSite())
				} else {
					sc, _, err = rejoinLoop(rootAddr, g, groups, fpRoot, freshSite, rejoinWait)
				}
				if err != nil {
					fatalf("chaos: aggregator %d: parent link: %v", g, err)
				}
				sc.ProgressEvery = 256

				aln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					fatalf("chaos: aggregator %d: listen: %v", g, err)
				}
				asrv := &tcp.Server{
					Coord:      newFeedingCoord(agg, sc.ArriveBatch),
					K:          size,
					Config:     fpShard,
					RejoinWait: rejoinWait,
				}
				if killAt[g] > 0 && attempt == 1 {
					// The serve loop trips its own kill once the shard's leaf
					// arrivals cross the threshold (Report runs on the loop;
					// Kill just posts an event).
					trip, tripped := killAt[g], false
					asrv.ReportEvery = 1
					asrv.Report = func(m runtime.Metrics) {
						if !tripped && m.Arrivals >= trip {
							tripped = true
							asrv.Kill()
						}
					}
				}
				sres := make(chan served, 1)
				go func() {
					m, err := asrv.Serve(aln)
					sres <- served{m, err}
				}()
				aggAddr := aln.Addr().String()

				// dead flags this aggregator life as over; streaming leaves
				// abort so the whole subtree can restart together.
				dead := make(chan struct{})
				var lwg sync.WaitGroup
				for l := 0; l < size; l++ {
					lwg.Add(1)
					go func(l int) {
						defer lwg.Done()
						global := g*cfg.fanout + l
						leafSeed := uint64(global) + 1
						items := workload.ZipfItems(1000, 1.1, stats.New(leafSeed^0xfeed))
						lc, err := tcp.DialSite(aggAddr, l, size, fpShard, registry.Site(leafSpec, stats.New(leafSeed)))
						if err != nil {
							// The aggregator died during assembly; the rebuild
							// respawns this leaf.
							return
						}
						lc.ProgressEvery = 256
						for i := 0; i < n; i++ {
							select {
							case <-dead:
								lc.Abort()
								return
							default:
							}
							streamOne(cfg, lc, global, i, items)
							// Pace slightly so the aggregator's serve loop
							// keeps up — the kill trips from a Report on that
							// loop, and an unbounded frame backlog would push
							// the kill event past the end of the run (the
							// same reason the -coordkill drill throttles).
							if i%256 == 255 {
								time.Sleep(time.Millisecond)
							}
						}
						if err := lc.Close(); err != nil {
							// The aggregator died under us mid-close; the
							// rebuild replays this leaf from 0.
							lc.Abort()
						}
					}(l)
				}

				sr := <-sres
				close(dead)
				lwg.Wait()
				aln.Close()
				if sr.err == tcp.ErrKilled {
					// Crash: abandon the root slot without a Done so the
					// replacement can reclaim it, then rebuild the subtree
					// from scratch.
					sc.Abort()
					fmt.Printf("chaos: aggregator %d killed at %d leaf arrivals (life %d); rebuilding subtree\n",
						g, sr.m.Arrivals, attempt)
					continue
				}
				if sr.err != nil {
					fatalf("chaos: aggregator %d: serve: %v", g, sr.err)
				}
				// All leaves done: seal the shard upward.
				if err := sc.Close(); err != nil {
					fatalf("chaos: aggregator %d: parent link: %v", g, err)
				}
				return
			}
		}(g)
	}
	wg.Wait()
	sr := <-rres
	if sr.err != nil {
		fatalf("chaos: root serve: %v", sr.err)
	}

	fmt.Printf("\nchaos: run completed in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("virtual arrivals at root: %d (leaf truth %d)\n", sr.m.Arrivals, truth)
	fmt.Printf("root messages: %d, words: %d\n", sr.m.Messages(), sr.m.Words())
	fmt.Printf("live shards: %d of %d, aggregator rejoins: %d\n", sr.m.LiveSites, groups, root.Rejoins)
	if sr.m.LiveSites != groups {
		fatalf("chaos: %d shards still dark at run end", groups-sr.m.LiveSites)
	}
	if root.Rejoins < int64(kills) {
		fatalf("chaos: only %d aggregator rejoins recorded for %d kills", root.Rejoins, kills)
	}
	gateCount(rootSpec, queries, truth, cfg.eps, "subtree recovery")
	fmt.Println("CHAOS OK")
}

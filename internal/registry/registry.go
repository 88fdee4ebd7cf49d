// Package registry is the one place that knows which concrete package
// implements a tracker family, what that family can answer, and what it
// composes with. It is keyed by (problem, algorithm, robust) the way
// internal/wire keys codecs by tag: adding a tracker family is one entry in
// families plus its wire codecs, and the facade, internal/experiments,
// cmd/tracksim and the integration suites pick it up from here.
//
// Delegation rule: the in-process assemblies (Protocol, Tree) call the
// implementing package's own NewProtocol / NewTreeProtocol — and, for a
// median-boosted family whose package has one, its boosted assembly
// (count.NewMedianProtocol) — rather than looping over Site. Those
// constructors own the seed → per-site RNG split order, and with it every
// message a seeded run sends; assembling the same machines here would be a
// second copy of that order waiting to drift. Every Copies > 1 family runs
// on the one booster, internal/boost, whichever side owns the seeds.
// Coordinator, Site and Aggregator build the single machines a distributed
// deployment (tracksim serve / connect / aggregate) places in separate
// processes; Site takes the caller's RNG because each process seeds its own.
//
// Queries convention: a Queries field is the bound method of the coordinator
// just built (coord.Estimate, coord.Rank, ...) wherever the coordinator has
// one, so the facade's query path is the same call it always was; only the
// sampler's Quantile (rank.Bisect over its Rank) and the boosted medians
// (median, over the copies' own bound methods) are closures. A nil field
// means the family's problem does not answer that query.
package registry

import (
	"errors"
	"fmt"

	"disttrack/internal/boost"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/robust"
	"disttrack/internal/sample"
	"disttrack/internal/stats"
)

// Problem identifies a tracking problem.
type Problem string

// Algorithm identifies an algorithm family.
type Algorithm string

// The paper's Table 1 grid.
const (
	Count Problem = "count"
	Freq  Problem = "freq"
	Rank  Problem = "rank"

	Randomized    Algorithm = "randomized"
	Deterministic Algorithm = "deterministic"
	Sampling      Algorithm = "sampling"
)

// Spec selects a family and parameterizes its machines.
type Spec struct {
	Problem   Problem
	Algorithm Algorithm
	K         int
	Eps       float64
	// Rescale divides Eps inside the randomized protocols (0 = the paper's
	// constant 3); the other families ignore it.
	Rescale float64
	// Robust selects the adversarially robust count tracker
	// (internal/robust).
	Robust bool
	// Copies > 1 median-boosts a randomized family; the deterministic and
	// sampling families, whose guarantees already hold at all instants,
	// ignore it.
	Copies int
	// Seed roots the site RNGs of Protocol and Tree, and the robust
	// coordinator's release-noise stream.
	Seed uint64
}

// Queries is what a coordinator answers.
type Queries struct {
	Count    func() float64
	Freq     func(item int64) float64
	Rank     func(x float64) float64
	Quantile func(q, lo, hi float64) float64
}

// family is one table entry: what selects it, what it composes with, and
// its constructors. The constructors meet on proto.Coordinator — queries and
// agg assert it back to the family's own coordinator type — so that an entry
// is a plain struct literal; the table test exercises every one of them.
type family struct {
	problem   Problem
	algorithm Algorithm
	robust    bool
	// fullLevelEps marks a family whose tree runs every level at the full ε
	// instead of the split budget.
	fullLevelEps bool
	// noMerge names the summaries that keep the family out of a tree; set
	// exactly when tree and agg are nil.
	noMerge string
	// wrap marks a family that Copies > 1 median-boosts: s.Copies
	// independent copies fused by internal/boost and answered by median.
	// Families without it ignore Copies. wrapped, when set, is the
	// implementing package's own boosted assembly, returning the fused star
	// and the copies' coordinators; it owns the copies' seed layout (the
	// delegation rule). Without it copy i takes the i-th draw of
	// stats.New(s.Seed) as its seed.
	wrap    bool
	wrapped func(Spec) (proto.Protocol, []proto.Coordinator)

	queries func(proto.Coordinator) Queries
	coord   func(Spec) proto.Coordinator
	site    func(Spec, *stats.RNG) proto.Site
	flat    func(Spec) proto.Protocol
	tree    func(Spec, int) proto.Tree
	agg     func(proto.Coordinator) proto.Aggregator
}

// first drops a package constructor's second result, the concrete
// coordinator: the assembly carries it (Protocol.Coord, Tree.Root.Coord).
func first[A, B any](a A, _ B) A { return a }

func (s Spec) count() count.Config   { return count.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) freq() freq.Config     { return freq.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) rank() rank.Config     { return rank.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale} }
func (s Spec) sample() sample.Config { return sample.Config{K: s.K, Eps: s.Eps} }
func (s Spec) robust() robust.Config {
	return robust.Config{K: s.K, Eps: s.Eps, Rescale: s.Rescale, Seed: s.Seed}
}

// families is the table: one entry per tracker family, the paper's own
// randomized protocols first (lookup scans in order).
var families = []family{
	{problem: Count, algorithm: Randomized, wrap: true,
		wrapped: func(s Spec) (proto.Protocol, []proto.Coordinator) {
			p, cs := count.NewMedianProtocol(s.count(), s.Copies, s.Seed)
			coords := make([]proto.Coordinator, len(cs))
			for i, c := range cs {
				coords[i] = c
			}
			return p, coords
		},
		queries: func(c proto.Coordinator) Queries { return Queries{Count: c.(*count.Coordinator).Estimate} },
		coord:   func(s Spec) proto.Coordinator { return count.NewCoordinator(s.count()) },
		site:    func(s Spec, rng *stats.RNG) proto.Site { return count.NewSite(s.count(), rng) },
		flat:    func(s Spec) proto.Protocol { return first(count.NewProtocol(s.count(), s.Seed)) },
		tree:    func(s Spec, f int) proto.Tree { return first(count.NewTreeProtocol(s.count(), f, s.Seed)) },
		agg:     func(c proto.Coordinator) proto.Aggregator { return count.NewAgg(c.(*count.Coordinator)) },
	},
	{problem: Freq, algorithm: Randomized, wrap: true,
		queries: func(c proto.Coordinator) Queries { return Queries{Freq: c.(*freq.Coordinator).Estimate} },
		coord:   func(s Spec) proto.Coordinator { return freq.NewCoordinator(s.freq()) },
		site:    func(s Spec, rng *stats.RNG) proto.Site { return freq.NewSite(s.freq(), rng) },
		flat:    func(s Spec) proto.Protocol { return first(freq.NewProtocol(s.freq(), s.Seed)) },
		tree:    func(s Spec, f int) proto.Tree { return first(freq.NewTreeProtocol(s.freq(), f, s.Seed)) },
		agg:     func(c proto.Coordinator) proto.Aggregator { return freq.NewAgg(c.(*freq.Coordinator)) },
	},
	{problem: Rank, algorithm: Randomized, wrap: true,
		queries: func(c proto.Coordinator) Queries {
			rc := c.(*rank.Coordinator)
			return Queries{Rank: rc.Rank, Quantile: rc.Quantile}
		},
		coord: func(s Spec) proto.Coordinator { return rank.NewCoordinator(s.rank()) },
		site:  func(s Spec, rng *stats.RNG) proto.Site { return rank.NewSite(s.rank(), rng) },
		flat:  func(s Spec) proto.Protocol { return first(rank.NewProtocol(s.rank(), s.Seed)) },
		tree:  func(s Spec, f int) proto.Tree { return first(rank.NewTreeProtocol(s.rank(), f, s.Seed)) },
		agg:   func(c proto.Coordinator) proto.Aggregator { return rank.NewAgg(c.(*rank.Coordinator)) },
	},
	// The robust site draws its report noise from a stream split off its
	// sampling RNG.
	{problem: Count, algorithm: Randomized, robust: true,
		queries: func(c proto.Coordinator) Queries { return Queries{Count: c.(*robust.Coordinator).Estimate} },
		coord:   func(s Spec) proto.Coordinator { return robust.NewCoordinator(s.robust()) },
		site:    func(s Spec, rng *stats.RNG) proto.Site { return robust.NewSite(s.robust(), rng, rng.Split()) },
		flat:    func(s Spec) proto.Protocol { return first(robust.NewProtocol(s.robust())) },
	},
	// The deterministic count reports merge by summation, so this baseline
	// keeps its δ = 0 guarantee through re-aggregation.
	{problem: Count, algorithm: Deterministic,
		queries: func(c proto.Coordinator) Queries { return Queries{Count: c.(*count.DetCoordinator).Estimate} },
		coord:   func(s Spec) proto.Coordinator { return count.NewDetCoordinator(s.K, s.Eps) },
		site:    func(s Spec, _ *stats.RNG) proto.Site { return count.NewDetSite(s.Eps) },
		flat:    func(s Spec) proto.Protocol { return first(count.NewDetProtocol(s.K, s.Eps)) },
		tree:    func(s Spec, f int) proto.Tree { return first(count.NewDetTreeProtocol(s.K, s.Eps, f)) },
		agg:     func(c proto.Coordinator) proto.Aggregator { return count.NewDetAgg(c.(*count.DetCoordinator)) },
	},
	{problem: Freq, algorithm: Deterministic, noMerge: "SpaceSaving summaries",
		queries: func(c proto.Coordinator) Queries { return Queries{Freq: c.(*freq.DetCoordinator).Estimate} },
		coord:   func(s Spec) proto.Coordinator { return freq.NewDetCoordinator(s.K) },
		site:    func(s Spec, _ *stats.RNG) proto.Site { return freq.NewDetSite(s.K, s.Eps) },
		flat:    func(s Spec) proto.Protocol { return first(freq.NewDetProtocol(s.K, s.Eps)) },
	},
	{problem: Rank, algorithm: Deterministic, noMerge: "Greenwald-Khanna snapshots",
		queries: func(c proto.Coordinator) Queries {
			rc := c.(*rank.DetCoordinator)
			return Queries{Rank: rc.Rank, Quantile: rc.Quantile}
		},
		coord: func(s Spec) proto.Coordinator { return rank.NewDetCoordinator(s.K) },
		site:  func(s Spec, _ *stats.RNG) proto.Site { return rank.NewDetSite(s.K, s.Eps) },
		flat:  func(s Spec) proto.Protocol { return first(rank.NewDetProtocol(s.K, s.Eps)) },
	},
	sampling(Count, func(c proto.Coordinator) Queries { return Queries{Count: c.(*sample.Coordinator).Count} }),
	sampling(Freq, func(c proto.Coordinator) Queries { return Queries{Freq: c.(*sample.Coordinator).Freq} }),
	sampling(Rank, func(c proto.Coordinator) Queries {
		sc := c.(*sample.Coordinator)
		return Queries{Rank: sc.Rank, Quantile: rank.Bisect(sc.Rank)}
	}),
}

// sampling is the continuous-sampling baseline: one protocol whose retained
// sample answers all three problems, entered once per problem with that
// problem's queries. Its error is set by the retained-sample size, not a
// per-level ε, so its tree keeps the full ε at both levels.
func sampling(p Problem, queries func(proto.Coordinator) Queries) family {
	return family{problem: p, algorithm: Sampling, fullLevelEps: true,
		queries: queries,
		coord:   func(s Spec) proto.Coordinator { return sample.NewCoordinator(s.sample()) },
		site:    func(_ Spec, rng *stats.RNG) proto.Site { return sample.NewSite(rng) },
		flat:    func(s Spec) proto.Protocol { return first(sample.NewProtocol(s.sample(), s.Seed)) },
		tree:    func(s Spec, f int) proto.Tree { return first(sample.NewTreeProtocol(s.sample(), f, s.Seed)) },
		agg:     func(c proto.Coordinator) proto.Aggregator { return sample.NewAgg(c.(*sample.Coordinator)) },
	}
}

// copies builds s.Copies independent machines with one, copy i taking the
// i-th draw of stats.New(s.Seed) as its seed, fuses them, and answers every
// query with the median of the copies' answers.
func copies[M any](s Spec, one func(Spec) (M, Queries), fuse func([]M) M) (M, Queries) {
	root := stats.New(s.Seed)
	ms, qs := make([]M, s.Copies), make([]Queries, s.Copies)
	for i := range ms {
		s.Seed = root.Uint64()
		ms[i], qs[i] = one(s)
	}
	return fuse(ms), median(qs)
}

// median answers each query the copies answer with the median over them.
func median(qs []Queries) Queries {
	over := func(ask func(Queries) float64) float64 {
		ests := make([]float64, len(qs))
		for i, q := range qs {
			ests[i] = ask(q)
		}
		return stats.Median(ests)
	}
	var m Queries
	if qs[0].Count != nil {
		m.Count = func() float64 {
			return over(func(q Queries) float64 { return q.Count() })
		}
	}
	if qs[0].Freq != nil {
		m.Freq = func(item int64) float64 {
			return over(func(q Queries) float64 { return q.Freq(item) })
		}
	}
	if qs[0].Rank != nil {
		m.Rank = func(x float64) float64 {
			return over(func(q Queries) float64 { return q.Rank(x) })
		}
		m.Quantile = rank.Bisect(m.Rank)
	}
	return m
}

// Families lists the table for table-driven tests: one Spec per entry with
// only Problem, Algorithm and Robust set (Check(true) tells whether the
// family has a tree assembly).
func Families() []Spec {
	out := make([]Spec, len(families))
	for i, f := range families {
		out[i] = Spec{Problem: f.problem, Algorithm: f.algorithm, Robust: f.robust}
	}
	return out
}

// lookup returns the table entry s selects, or nil.
func (s Spec) lookup() *family {
	for i := range families {
		f := &families[i]
		if f.problem == s.Problem && f.algorithm == s.Algorithm && f.robust == s.Robust {
			return f
		}
	}
	return nil
}

// tracking spells a problem out for the rejection messages.
var tracking = map[Problem]string{Count: "count", Freq: "frequency", Rank: "rank"}

// Check is the single authority on which combinations exist: it reports why
// s — mounted on a tree topology when tree is set — cannot be built, in the
// facade's vocabulary (Options.Robust is tracksim's -robust, TopologyTree its
// -topology tree), because the facade panics with these errors and tracksim
// prints them. The builders below assume a Spec that passed.
func (s Spec) Check(tree bool) error {
	plain := s
	plain.Robust = false
	f := plain.lookup()
	if f == nil {
		return fmt.Errorf("unknown problem/algorithm %s/%s", s.Problem, s.Algorithm)
	}
	if s.Robust {
		switch {
		case tree:
			return errors.New("Options.Robust is incompatible with TopologyTree (the robust release calibrates noise against direct site reports; aggregated virtual arrivals would double-count it)")
		case s.Algorithm != Randomized:
			return errors.New("Options.Robust requires AlgorithmRandomized (the deterministic and sampling baselines have no site-side sampling randomness for the robust mode to protect)")
		case s.Problem != Count:
			return fmt.Errorf("Options.Robust is only supported by CountTracker (robust %s tracking is not implemented)", tracking[s.Problem])
		case s.Copies > 1:
			return errors.New("Options.Robust is incompatible with Options.Copies > 1 (the robust tracker answers through its own noised release, not a median of copies)")
		}
	}
	if tree && s.Copies > 1 {
		return errors.New("Options.Copies > 1 is incompatible with TopologyTree (median boosting multiplexes one flat fabric; run boosted copies as separate trackers)")
	}
	if tree && f.tree == nil {
		return fmt.Errorf("TopologyTree is incompatible with AlgorithmDeterministic %s tracking (its %s have no merge path for re-aggregation); use AlgorithmRandomized, AlgorithmSampling, or TopologyFlat", tracking[s.Problem], f.noMerge)
	}
	return nil
}

// family resolves s to the entry that builds it.
func (s Spec) family() *family {
	f := s.lookup()
	if f == nil {
		panic("registry: " + s.Check(false).Error())
	}
	return f
}

// oneCoord and oneFlat build a single (unwrapped) coordinator or flat star.
func (f *family) oneCoord(s Spec) (proto.Coordinator, Queries) {
	c := f.coord(s)
	return c, f.queries(c)
}

func (f *family) oneFlat(s Spec) (proto.Protocol, Queries) {
	p := f.flat(s)
	return p, f.queries(p.Coord)
}

// Coordinator builds a fresh coordinator machine and its queries.
func Coordinator(s Spec) (proto.Coordinator, Queries) {
	f := s.family()
	if s.Copies > 1 && f.wrap {
		return copies(s, f.oneCoord, boost.WrapCoordinators)
	}
	return f.oneCoord(s)
}

// Site builds one site machine drawing from rng. A boosted family's sites
// exist only inside Protocol, which seeds its copies.
func Site(s Spec, rng *stats.RNG) proto.Site {
	if s.Copies > 1 {
		panic("registry: no separately built site with Copies > 1")
	}
	return s.family().site(s, rng)
}

// Protocol assembles the flat star: a coordinator and K sites seeded from
// Spec.Seed.
func Protocol(s Spec) (proto.Protocol, Queries) {
	f := s.family()
	switch {
	case s.Copies <= 1 || !f.wrap:
		return f.oneFlat(s)
	case f.wrapped != nil:
		p, cs := f.wrapped(s)
		qs := make([]Queries, len(cs))
		for i, c := range cs {
			qs[i] = f.queries(c)
		}
		return p, median(qs)
	}
	return copies(s, f.oneFlat, boost.Wrap)
}

// Tree assembles the two-level tree over K leaves, fanout per aggregator;
// the queries are the root coordinator's. Requires s.Check(true) == nil and
// a fanout proto.NewTreeShape accepts.
func Tree(s Spec, fanout int) (proto.Tree, Queries) {
	f := s.family()
	t := f.tree(s, fanout)
	return t, f.queries(t.Root.Coord)
}

// Level returns the spec one level of s's tree runs at: k machines — a
// group's size, or the group count at the root — at the family's per-level ε.
// Coordinator, Site and Aggregator of that spec are the pieces a
// multi-process tree deploys.
func (s Spec) Level(shape proto.TreeShape, k int) Spec {
	s.K = k
	if !s.family().fullLevelEps {
		s.Eps = shape.LevelEps
	}
	return s
}

// Aggregator builds an interior tree node's child-facing machine from its
// group's Level spec, with the queries of the coordinator inside it.
func Aggregator(s Spec) (proto.Aggregator, Queries) {
	f := s.family()
	c := f.coord(s)
	return f.agg(c), f.queries(c)
}

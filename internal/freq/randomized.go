// Package freq implements the frequency-tracking (heavy hitters) protocols
// of Section 3 of the paper: the randomized O(√k/ε·logN)-communication,
// O(1/(ε√k))-space algorithm, and the deterministic Θ(k/ε·logN) baseline
// of [29] realized with SpaceSaving counters and rounded reports.
//
// # Point queries are one map read
//
// The paper's estimate f̂(j) (equation (4)) is a sum with one term per
// (round, virtual-site incarnation): c̄ − 2 + 2/p where the incarnation has
// reported a counter for j, else −d/p for its d independent samples of j.
// Coordinator does not walk that sum per query. It keeps est[j], the current
// value of the sum, and the two functions that write incarnation state —
// counter and sample, shared by Receive and RestoreState — move est[j] by
// exactly the amount the write changes j's term: count − old for an
// overwritten counter; (count − 2 + 2/p) + d/p for a first counter, which
// replaces the incarnation's −d/p term; −n/p for n samples while no counter
// exists, nothing once one does. Resets and round changes add only empty
// incarnations and touch nothing. Invariant: after every message, est[j]
// equals the sum of the terms the stored cbar/d entries define.
// DetCoordinator keeps the analogous per-item sum of its mirrored slots.
//
// est is int64, not float64, and that is what makes the answer independent
// of message order. rounds.P only returns p = 1/2^j, so 1/p and with it
// every term is an integer, and integer addition is associative: a
// coordinator rebuilt by RestoreState (counters first, then sample counts —
// not the order they arrived in) holds bit for bit the est of the live one.
// A float64 accumulator rounds once magnitudes pass 2^53, and what it rounds
// to depends on the order of the additions.
//
// Estimate(j) = float64(est[j]) equals the replaced float64 walk exactly
// under one precondition: Σ|terms| < 2^53, so that every partial sum of the
// walk was an exactly representable integer. On a real stream of n elements
// a round's terms for j total about its arrivals of j plus 2/p per incarnation,
// O(n̄ + k/p) with k/p = ε√k·n̄, over O(log n) rounds: Σ|terms| =
// O((1 + ε√k)·n·log n), far below 2^53 ≈ 9·10^15 for any stream this code
// will see. Only synthetic message sequences (the random-message test, which
// doubles n̄ every few messages) leave that range, and there est remains the
// exact integer sum while the walk rounds. The walk survives as the test
// oracle (walkEstimates in freq_test.go).
//
// The index is derived state: never snapshotted (restore rebuilds it from the
// same records), and not charged to SpaceWords.
package freq

import (
	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/stats"
	"disttrack/internal/summary/sticky"
)

// CounterMsg reports a sticky counter's current value (2 words: item and
// count). The round and virtual-site incarnation are implicit: the
// coordinator attributes the message to the sender's current incarnation.
type CounterMsg struct {
	Item  int64
	Count int64
}

// Words implements proto.Message.
func (CounterMsg) Words() int { return 2 }

// SampleMsg forwards one independently sampled element (1 word).
type SampleMsg struct {
	Item int64
}

// Words implements proto.Message.
func (SampleMsg) Words() int { return 1 }

// ResetMsg notifies the coordinator that the site exceeded its per-round
// space budget and continues as a fresh virtual site (1 word).
type ResetMsg struct{}

// Words implements proto.Message.
func (ResetMsg) Words() int { return 1 }

// Config carries the shared protocol parameters.
type Config struct {
	K   int
	Eps float64
	// Rescale divides Eps internally (the paper's constant rescaling step
	// that turns Chebyshev's constant success probability into 0.9).
	// Zero means 3.
	Rescale float64
	// DisableVirtualSites turns off the space-bounding reset (ablation: the
	// paper's variance analysis still holds, but per-site space may grow to
	// O(√k/ε) when one site receives everything).
	DisableVirtualSites bool
	// BiasedEstimator switches the coordinator to the paper's equation (2)
	// (ablation: demonstrates the Θ(εn/√k)-per-site bias the unbiased
	// estimator (4) exists to remove).
	BiasedEstimator bool
}

func (c Config) effEps() float64 {
	r := c.Rescale
	if r == 0 {
		r = 3
	}
	return c.Eps / r
}

func (c Config) validate() {
	if c.K <= 0 {
		panic("freq: K must be positive")
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		panic("freq: Eps out of (0,1)")
	}
	if c.Rescale < 0 {
		panic("freq: negative Rescale")
	}
}

// Site is the per-site state machine of the randomized frequency tracker.
//
// Each arrival consumes two independent Bernoulli(p) coins: the copy coin
// (insert a new counter, or report an incremented one) and the sampling coin
// (forward the element to maintain d_ij). Both streams are skip-sampled: the
// site draws the geometric gap to each stream's next heads once per heads
// and decrements counters in between, so RNG work is O(messages). The
// arrivals a per-coin implementation would mark heads form exactly this
// renewal process, so the protocol's output distribution is unchanged.
type Site struct {
	cfg Config
	rs  *rounds.Site
	rng *stats.RNG

	p             float64
	list          *sticky.List
	roundArrivals int64 // arrivals charged to the current virtual site
	skipCopy      int64 // tails remaining before the copy coin's next heads
	skipSample    int64 // tails remaining before the sampling coin's next heads
}

// NewSite returns a fresh site.
func NewSite(cfg Config, rng *stats.RNG) *Site {
	cfg.validate()
	return &Site{
		cfg:  cfg,
		rs:   rounds.NewSite(),
		rng:  rng,
		p:    1,
		list: sticky.New(1, rng.Split()),
	}
}

// Arrive implements proto.Site. Protocol messages are emitted before the
// round-machinery doubling report so that in-flight counters are attributed
// to the round they were generated in.
func (s *Site) Arrive(item int64, value float64, out func(proto.Message)) {
	// Virtual-site split when the per-round space budget n̄/k is exhausted.
	if !s.cfg.DisableVirtualSites {
		if limit := s.budget(); limit > 0 && s.roundArrivals >= limit {
			out(ResetMsg{})
			s.list.Reset()
			s.roundArrivals = 0
		}
	}
	s.roundArrivals++

	// One p-coin per copy: it inserts (and reports) a new counter, or
	// reports the incremented counter of an existing one. This single-coin
	// structure is what makes the forward/backward first-success variables
	// X1, X2 of the paper's Lemma 3.1 well defined.
	count := s.list.Bump(item)
	if s.skipCopy == 0 {
		s.skipCopy = s.rng.SkipGeometric(s.p)
		if count > 0 {
			out(CounterMsg{Item: item, Count: count})
		} else {
			s.list.Insert(item)
			out(CounterMsg{Item: item, Count: 1})
		}
	} else {
		s.skipCopy--
	}

	// Independent sampling at rate p (maintains d_ij at the coordinator).
	if s.skipSample == 0 {
		s.skipSample = s.rng.SkipGeometric(s.p)
		out(SampleMsg{Item: item})
	} else {
		s.skipSample--
	}

	s.rs.Arrive(out)
}

// ArriveBatch implements proto.BatchSite: during a run of the same item,
// the next interesting arrival — next heads on either coin stream, next
// doubling report, or virtual-site budget exhaustion — is known in closed
// form, and everything before it is a counter bump.
func (s *Site) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	quiet := s.skipCopy
	if s.skipSample < quiet {
		quiet = s.skipSample
	}
	if g := s.rs.Gap(); g < quiet {
		quiet = g
	}
	if !s.cfg.DisableVirtualSites {
		if limit := s.budget(); limit > 0 {
			if g := limit - s.roundArrivals; g < quiet {
				quiet = g
				if quiet < 0 {
					quiet = 0
				}
			}
		}
	}
	if quiet > count {
		quiet = count
	}
	if quiet > 0 {
		s.roundArrivals += quiet
		s.list.BumpRun(item, quiet)
		s.rs.Skip(quiet)
		s.skipCopy -= quiet
		s.skipSample -= quiet
	}
	if quiet == count {
		return count
	}
	s.Arrive(item, value, out)
	return quiet + 1
}

// budget returns the virtual-site arrival budget n̄/k (0 = no limit yet).
func (s *Site) budget() int64 {
	nBar := s.rs.NBar()
	if nBar == 0 {
		return 0
	}
	b := nBar / int64(s.cfg.K)
	if b < 1 {
		b = 1
	}
	return b
}

// Receive implements proto.Site: on a round broadcast the site clears its
// memory and restarts with the new p (paper Section 3.1, "Dealing with a
// decreasing p").
func (s *Site) Receive(m proto.Message, out func(proto.Message)) {
	if !s.rs.Deliver(m) {
		return
	}
	s.p = rounds.P(s.rs.NBar(), s.cfg.K, s.cfg.effEps())
	s.list = sticky.New(s.p, s.rng.Split())
	s.roundArrivals = 0
	// Both coin streams restart at the new p (i.i.d. coins are memoryless,
	// so discarding the residual gaps preserves the distribution).
	s.skipCopy = s.rng.SkipGeometric(s.p)
	s.skipSample = s.rng.SkipGeometric(s.p)
}

// SpaceWords implements proto.Site.
func (s *Site) SpaceWords() int {
	return s.rs.SpaceWords() + s.list.SpaceWords() + 3
}

// P exposes the current sampling probability (tests).
func (s *Site) P() float64 { return s.p }

// vsite is the coordinator's record of one virtual-site incarnation. Both
// maps are allocated on first write (Coordinator.counter / sample): most
// incarnations a ResetMsg opens never receive a sample, and some never a
// counter. Reads of a nil map are legal and find nothing.
type vsite struct {
	owner int             // physical site the incarnation belongs to
	inv   int64           // 1/p of its round, exact: rounds.P only returns 1/2^j
	cbar  map[int64]int64 // last reported counter per item
	d     map[int64]int64 // independent-sample counts per item
}

// roundState is the coordinator's record of one round.
type roundState struct {
	p   float64
	cur []*vsite // current incarnation per physical site
	all []*vsite // every incarnation opened during the round
}

func newRoundState(k int, p float64) *roundState {
	return &roundState{p: p, cur: make([]*vsite, k)}
}

// Coordinator accumulates per-round, per-incarnation counters and samples
// and answers point frequency queries.
type Coordinator struct {
	cfg  Config
	rc   *rounds.Coordinator
	rnds []*roundState

	// est is the per-item running estimate: est[j] is the sum, over every
	// (round, incarnation), of the equation-(4) term the stored cbar/d
	// entries for j contribute. counter and sample — the only writers of
	// cbar and d — move it by each write's change to that sum, so Estimate
	// is one map read. Derived state: never snapshotted, not charged to
	// SpaceWords.
	est map[int64]int64

	// words is the running space charge: one word per incarnation and two
	// per stored counter or sample count, adjusted wherever one is created.
	words int

	// Restore cursors, live only while RestoreState streams snapshot
	// records: snapV is the incarnation the next counter/sample records
	// belong to, and snapFresh marks that the constructed round list has
	// been replaced by restored rounds.
	snapV     *vsite
	snapFresh bool
}

// NewCoordinator returns the coordinator for the randomized tracker.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.validate()
	c := &Coordinator{cfg: cfg, rc: rounds.NewCoordinator(cfg.K), est: make(map[int64]int64)}
	c.openRound(1)
	return c
}

// openRound starts a round with one fresh incarnation per site.
func (c *Coordinator) openRound(p float64) {
	r := newRoundState(c.cfg.K, p)
	c.rnds = append(c.rnds, r)
	for i := range r.cur {
		c.openVsite(r, i)
	}
}

// counter stores v.cbar[item] = count and moves est[item] by the change in
// v's term: count − old when v already held a counter for the item; else
// the new term count − 2 + 2/p, plus — unbiased estimator only — v.d[item]/p
// to cancel the −d/p term v was contributing until now. A new entry is
// charged two words.
func (c *Coordinator) counter(v *vsite, item, count int64) {
	if old, ok := v.cbar[item]; ok {
		c.est[item] += count - old
	} else {
		if v.cbar == nil {
			v.cbar = make(map[int64]int64)
		}
		delta := count - 2 + 2*v.inv
		if !c.cfg.BiasedEstimator {
			delta += v.d[item] * v.inv
		}
		c.est[item] += delta
		c.words += 2
	}
	v.cbar[item] = count
}

// sample adds n independent samples of item to v.d, charging two words if
// the entry is new. The −d/p term only counts while v holds no counter for
// the item (and never under BiasedEstimator), so only then does est move.
func (c *Coordinator) sample(v *vsite, item, n int64) {
	if v.d == nil {
		v.d = make(map[int64]int64)
	}
	held := len(v.d)
	v.d[item] += n
	c.words += 2 * (len(v.d) - held)
	if _, ok := v.cbar[item]; !ok && !c.cfg.BiasedEstimator {
		c.est[item] -= n * v.inv
	}
}

// Receive implements proto.Coordinator.
func (c *Coordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		c.openRound(rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps()))
		return
	}
	cur := c.rnds[len(c.rnds)-1]
	switch msg := m.(type) {
	case CounterMsg:
		c.counter(cur.cur[from], msg.Item, msg.Count)
	case SampleMsg:
		c.sample(cur.cur[from], msg.Item, 1)
	case ResetMsg:
		c.openVsite(cur, from)
	}
}

// openVsite starts a fresh incarnation of a site in round r (one word).
func (c *Coordinator) openVsite(r *roundState, owner int) *vsite {
	v := &vsite{owner: owner, inv: int64(1 / r.p)}
	r.cur[owner] = v
	r.all = append(r.all, v)
	c.words++
	return v
}

// Estimate returns the tracker's estimate of item j's global frequency: the
// sum of the per-(round, incarnation) unbiased estimators of equation (4) —
// c̄ − 2 + 2/p when a counter exists, else −d/p. With
// Config.BiasedEstimator it applies equation (2) instead (0 when no counter
// exists) to expose its bias. O(1): one read of the running estimate.
func (c *Coordinator) Estimate(j int64) float64 { return float64(c.est[j]) }

// Round returns the number of completed round transitions.
func (c *Coordinator) Round() int { return c.rc.Round() }

// Resync implements proto.Resyncer: a rejoining site learns the current
// round (and with it its sampling probability) from the replayed round
// broadcast; it starts a fresh virtual-site incarnation on its first
// counter activity, exactly as a space reset would.
func (c *Coordinator) Resync(emit func(proto.Message)) { c.rc.Resync(emit) }

// Snapshot-record keys (the range 1..9 belongs to the embedded rounds
// component; see rounds.Coordinator.SnapshotState).
const (
	stateRound  = 10 // F = the round's sampling probability p
	stateVsite  = 11 // from = owning site: opens one incarnation
	stateDCount = 12 // A = item, B = its independent-sample count
)

// SnapshotState implements proto.Snapshotter: the round component's
// records, then every round in order — its p, then every incarnation in
// creation order with its counters (the protocol's own CounterMsg) and
// sample counts. Replaying incarnations in creation order makes the
// current-incarnation pointers come out right by last-wins, exactly as the
// live ResetMsg path built them.
func (c *Coordinator) SnapshotState(emit func(from int, m proto.Message)) {
	c.rc.SnapshotState(emit)
	for _, r := range c.rnds {
		emit(-1, proto.StateMsg{Key: stateRound, F: r.p})
		for _, v := range r.all {
			emit(v.owner, proto.StateMsg{Key: stateVsite})
			for item, cnt := range v.cbar {
				emit(v.owner, CounterMsg{Item: item, Count: cnt})
			}
			for item, cnt := range v.d {
				emit(v.owner, proto.StateMsg{Key: stateDCount, A: item, B: cnt})
			}
		}
	}
}

// RestoreState implements proto.Snapshotter. Unlike Receive, restored
// records never open rounds via the round machinery — the first round
// record replaces the constructed round 0 wholesale.
func (c *Coordinator) RestoreState(from int, m proto.Message) {
	if c.rc.RestoreState(from, m) {
		return
	}
	switch msg := m.(type) {
	case proto.StateMsg:
		switch msg.Key {
		case stateRound:
			if !c.snapFresh {
				c.rnds, c.words, c.snapFresh = nil, 0, true
				clear(c.est)
			}
			c.rnds = append(c.rnds, newRoundState(c.cfg.K, msg.F))
		case stateVsite:
			if from < 0 || from >= c.cfg.K || len(c.rnds) == 0 {
				return
			}
			c.snapV = c.openVsite(c.rnds[len(c.rnds)-1], from)
		case stateDCount:
			if c.snapV != nil {
				c.sample(c.snapV, msg.A, msg.B)
			}
		}
	case CounterMsg:
		if c.snapV != nil {
			c.counter(c.snapV, msg.Item, msg.Count)
		}
	}
}

// P returns the current round's sampling probability.
func (c *Coordinator) P() float64 { return c.rnds[len(c.rnds)-1].p }

// SpaceWords implements proto.Coordinator (the coordinator's state is
// allowed to grow; the model only bounds site space). It is an O(1) read of
// the ledger kept by Receive and RestoreState. The per-item estimate index
// is not charged: it is a query accelerator derived from the counted state,
// not protocol state, so MaxCoordSpace reads the same with or without it.
func (c *Coordinator) SpaceWords() int { return c.rc.SpaceWords() + c.words }

// NewProtocol assembles the randomized frequency tracker.
func NewProtocol(cfg Config, seed uint64) (proto.Protocol, *Coordinator) {
	cfg.validate()
	root := stats.New(seed)
	coord := NewCoordinator(cfg)
	sites := make([]proto.Site, cfg.K)
	for i := range sites {
		sites[i] = NewSite(cfg, root.Split())
	}
	return proto.Protocol{Coord: coord, Sites: sites}, coord
}

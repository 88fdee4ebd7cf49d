package count

import (
	"disttrack/internal/boost"
	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/stats"
)

// UpdateMsg is a randomized counter report carrying the site's current n_i
// (1 word).
type UpdateMsg struct {
	N int64
}

// Words implements proto.Message.
func (UpdateMsg) Words() int { return 1 }

// AdjustMsg carries a site's re-randomized n̄_i after p halved at a round
// boundary (1 word). Zero means "treat as if no update was ever sent".
type AdjustMsg struct {
	NBar int64
}

// Words implements proto.Message.
func (AdjustMsg) Words() int { return 1 }

// Config carries the protocol parameters shared by site and coordinator.
type Config struct {
	K   int     // number of sites
	Eps float64 // target relative error
	// Rescale divides Eps internally so that Chebyshev at the smaller error
	// parameter yields P[error > Eps·n] <= 1/Rescale². The paper's "rescale
	// ε and p by a constant" step; 3 gives the 0.9 guarantee. Zero means 3.
	Rescale float64
	// DisableAdjustment is an ablation switch: skip the paper's
	// re-randomization of n̄_i when p halves. The estimator then uses the
	// new 1/p against reports generated at the old p, biasing it upward by
	// up to k·(1/p_new − 1/p_old) right after each round boundary.
	DisableAdjustment bool
}

// effEps returns the internal (rescaled) error parameter.
func (c Config) effEps() float64 {
	r := c.Rescale
	if r == 0 {
		r = 3
	}
	return c.Eps / r
}

func (c Config) validate() {
	if c.K <= 0 {
		panic("count: K must be positive")
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		panic("count: Eps out of (0,1)")
	}
	if c.Rescale < 0 {
		panic("count: negative Rescale")
	}
}

// Site is the per-site state machine of the randomized count-tracking
// protocol (Theorem 2.1). O(1) words of state.
//
// The per-arrival Bernoulli(p) coin of the paper is realized by
// skip-sampling: the site draws the geometric gap to its next sampled
// report once per report (stats.RNG.SkipGeometric) and counts plain
// arrivals down in between. The sequence of reporting arrivals has exactly
// the same distribution — the gaps between successes of i.i.d. Bernoulli(p)
// coins are Geometric(p) — but the RNG work is O(messages), not O(n).
type Site struct {
	cfg      Config
	rs       *rounds.Site
	rng      *stats.RNG
	p        float64
	skip     int64 // silent arrivals remaining before the next sampled report
	lastSent int64 // the site's copy of the coordinator's n̄_i (0 = none)
}

// NewSite returns site index i's state machine.
func NewSite(cfg Config, rng *stats.RNG) *Site {
	cfg.validate()
	return &Site{cfg: cfg, rs: rounds.NewSite(), rng: rng, p: 1}
}

// Arrive implements proto.Site.
func (s *Site) Arrive(item int64, value float64, out func(proto.Message)) {
	s.rs.Arrive(out)
	if s.skip > 0 {
		s.skip--
		return
	}
	s.lastSent = s.rs.N()
	out(UpdateMsg{N: s.lastSent})
	s.skip = s.rng.SkipGeometric(s.p)
}

// QuietGap returns how many further arrivals are guaranteed not to emit a
// message: the minimum of the skip-sampling gap and the doubling-report gap.
func (s *Site) QuietGap() int64 {
	g := s.skip
	if r := s.rs.Gap(); r < g {
		g = r
	}
	return g
}

// SkipQuiet absorbs count silent arrivals in O(1); count must not exceed
// QuietGap().
func (s *Site) SkipQuiet(count int64) {
	s.rs.Skip(count)
	s.skip -= count
}

// ArriveBatch implements proto.BatchSite: the gap to the next sampled
// report and the gap to the next doubling report are both known in closed
// form, so the arrivals in between are absorbed with two integer updates.
func (s *Site) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	quiet := s.QuietGap()
	if quiet >= count {
		s.SkipQuiet(count)
		return count
	}
	s.SkipQuiet(quiet)
	s.Arrive(item, value, out)
	return quiet + 1
}

// Receive implements proto.Site. On a round broadcast the site recomputes p
// and, for every halving step, re-randomizes its n̄_i so the system is
// distributed exactly as if it had always run at the new p: the previous
// report survives thinning with probability 1/2; otherwise the site walks
// backward from n̄_i − 1 flipping coins at the new p (one geometric draw)
// until a success or zero, then informs the coordinator.
func (s *Site) Receive(m proto.Message, out func(proto.Message)) {
	if !s.rs.Deliver(m) {
		return
	}
	pNew := rounds.P(s.rs.NBar(), s.cfg.K, s.cfg.effEps())
	if !s.cfg.DisableAdjustment {
		steps := rounds.HalvingSteps(s.p, pNew)
		for step := 0; step < steps; step++ {
			s.p /= 2
			s.adjust(out)
		}
	}
	if pNew < 1 {
		// The residual skip was drawn at the old p; future coins are i.i.d.
		// at the new p, so the memoryless gap is redrawn fresh.
		s.skip = s.rng.SkipGeometric(pNew)
	}
	s.p = pNew // exact, in case of float drift
}

// adjust performs one halving-step re-randomization at the current
// (already-halved) s.p.
func (s *Site) adjust(out func(proto.Message)) {
	if s.lastSent == 0 {
		return // no update exists; nothing to re-randomize
	}
	if s.rng.Bernoulli(0.5) {
		return // previous success survives thinning; nothing changes
	}
	// Fresh coins at the new p for positions lastSent-1, lastSent-2, ..., 1.
	g := int64(s.rng.Geometric(s.p)) // failures before first success
	newVal := s.lastSent - 1 - g
	if newVal < 0 {
		newVal = 0
	}
	s.lastSent = newVal
	out(AdjustMsg{NBar: newVal})
}

// SpaceWords implements proto.Site: O(1) words.
func (s *Site) SpaceWords() int { return s.rs.SpaceWords() + 2 }

// P exposes the site's current sampling probability (tests, ablations).
func (s *Site) P() float64 { return s.p }

// LocalN returns the site's true local count (test oracle).
func (s *Site) LocalN() int64 { return s.rs.N() }

// Coordinator is the central state machine; it maintains the last reported
// n̄_i per site and answers Estimate() at any quiescent instant in O(1).
//
// The estimator n̂ = Σ_{n̄_i>0} (n̄_i − 1 + 1/p) is kept as two running
// integers, sum = Σ_{n̄_i>0} n̄_i and live = #{i : n̄_i > 0}, maintained by
// set, the one writer of nBar. Because 1/p is a power of two (rounds.P),
// every term and partial sum of the O(k) walk is an integer, so as long as
// they stay below 2^53 the walk is exact in float64 and
// float64(sum−live) + float64(live)·(1/p) is bit-identical to it.
type Coordinator struct {
	cfg  Config
	rc   *rounds.Coordinator
	nBar []int64 // last reported value per site (0 = none)
	sum  int64   // Σ n̄_i over n̄_i > 0
	live int64   // #{i : n̄_i > 0}
	p    float64
}

// NewCoordinator returns the coordinator state machine.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.validate()
	return &Coordinator{
		cfg:  cfg,
		rc:   rounds.NewCoordinator(cfg.K),
		nBar: make([]int64, cfg.K),
		p:    1,
	}
}

// Receive implements proto.Coordinator.
func (c *Coordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		c.p = rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps())
		return
	}
	switch msg := m.(type) {
	case UpdateMsg:
		c.set(from, msg.N)
	case AdjustMsg:
		c.set(from, msg.NBar)
	}
}

// set records site i's n̄_i and keeps sum and live in step. A non-positive
// record (no report, or a restored or corrupt negative one) counts in
// neither, as the estimator skips it.
func (c *Coordinator) set(i int, v int64) {
	if old := c.nBar[i]; old > 0 {
		c.sum -= old
		c.live--
	}
	if v > 0 {
		c.sum += v
		c.live++
	}
	c.nBar[i] = v
}

// Estimate returns n̂ = Σ_i n̂_i with n̂_i = n̄_i − 1 + 1/p (0 when n̄_i does
// not exist). Unbiased with variance at most k/p² <= (ε_eff·n)².
func (c *Coordinator) Estimate() float64 {
	return float64(c.sum-c.live) + float64(c.live)*(1/c.p)
}

// P exposes the coordinator's current sampling probability.
func (c *Coordinator) P() float64 { return c.p }

// Round returns the current round number.
func (c *Coordinator) Round() int { return c.rc.Round() }

// Resync implements proto.Resyncer: a rejoining site is brought straight to
// the current round (and sampling probability) by replaying the round
// broadcast.
func (c *Coordinator) Resync(emit func(proto.Message)) { c.rc.Resync(emit) }

// SnapshotState implements proto.Snapshotter: the round component's
// records, then each site's last report as the protocol's own UpdateMsg
// (absolute state, so no AdjustMsg distinction survives — none is needed).
func (c *Coordinator) SnapshotState(emit func(from int, m proto.Message)) {
	c.rc.SnapshotState(emit)
	for i, nb := range c.nBar {
		if nb != 0 {
			emit(i, UpdateMsg{N: nb})
		}
	}
}

// RestoreState implements proto.Snapshotter. Unlike Receive, a restored
// round record triggers no broadcast; p is recomputed from the restored n̄.
func (c *Coordinator) RestoreState(from int, m proto.Message) {
	if c.rc.RestoreState(from, m) {
		c.p = rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps())
		return
	}
	if msg, ok := m.(UpdateMsg); ok && from >= 0 && from < len(c.nBar) {
		c.set(from, msg.N)
	}
}

// SpaceWords implements proto.Coordinator: O(k) words.
func (c *Coordinator) SpaceWords() int { return c.rc.SpaceWords() + len(c.nBar) + 1 }

// NewProtocol assembles the full randomized protocol with per-site RNGs
// split from seed.
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

// NewMedianProtocol assembles the median-boosted tracker (paper Section
// 1.2): c independent copies fused by boost.Wrap, plus the copies'
// coordinators, whose median estimate is correct at all instants with
// probability 1−δ when c = O(log(logN/(δε))). Site i's RNG is the i-th split
// of seed, and its copy j draws that RNG's j-th split.
func NewMedianProtocol(cfg Config, c int, seed uint64) (proto.Protocol, []*Coordinator) {
	cfg.validate()
	ps, coords := make([]proto.Protocol, c), make([]*Coordinator, c)
	for j := range ps {
		coords[j] = NewCoordinator(cfg)
		ps[j] = proto.Protocol{Coord: coords[j], Sites: make([]proto.Site, cfg.K)}
	}
	root := stats.New(seed)
	for i := 0; i < cfg.K; i++ {
		rng := root.Split()
		for _, p := range ps {
			p.Sites[i] = NewSite(cfg, rng.Split())
		}
	}
	return boost.Wrap(ps), coords
}

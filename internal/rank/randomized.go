// Package rank implements the rank/quantile-tracking protocols of Section 4
// of the paper: the randomized algorithm built from per-chunk dyadic trees
// of unbiased rank summaries ("algorithm C" over "algorithm A") with
// residual sampling, and the deterministic baseline of Cormode et al. [6]
// (periodic Greenwald–Khanna snapshots).
//
// # Query index: live and sealed chunks
//
// Rank(x) sums, over every chunk the coordinator has heard of, the weights of
// the stored values below x. Each site has one live chunk, the one its latest
// message addressed, with a private (value, cumulative weight) index rebuilt
// after a message. When the site addresses another chunk id the previous one
// is sealed — links are FIFO, so it will not change again — and its index
// moves onto a coordinator-wide stack of sorted runs merged by the
// logarithmic method. A query is one binary search per run, O(log N) of
// them, plus one per live chunk, at most K, however many chunks were ever
// opened. The stack is a cache, neither persisted nor charged as space; a
// message that does reach a sealed chunk (a rejoined site restarts its ids
// at 0) marks it stale, and the next query rebuilds it from the records.
//
// Merging re-associates a floating-point sum, yet answers stay bit-identical
// to a chunk-by-chunk walk: every weight is an integer (a merge-summary
// buffer weight, or 1/p with p = 1/2^j from rounds.P) and all of them sum to
// about the number of arrivals, far below 2^53, so every partial sum in any
// order, and every difference of two cumulative sums, is exact.
package rank

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/stats"
	"disttrack/internal/summary/merge"
)

// SummaryMsg ships the summary of a full tree node. Its payload is the
// snapshot plus level and node-position tags.
type SummaryMsg struct {
	Chunk int64 // per-site chunk sequence number
	Level int
	Pos   int // node index within its level
	Snap  merge.Snapshot
}

// Words implements proto.Message.
func (m SummaryMsg) Words() int { return m.Snap.Words() + 3 }

// SampleMsg forwards one sampled element with its index within the chunk
// (value + index + chunk tag).
type SampleMsg struct {
	Chunk int64
	Index int64 // 1-based position within the chunk
	Value float64
}

// Words implements proto.Message.
func (SampleMsg) Words() int { return 3 }

// Config carries the shared parameters of the randomized rank tracker.
type Config struct {
	K   int
	Eps float64
	// Rescale divides Eps internally; zero means 3 (constant-factor
	// rescaling for the 0.9 success probability).
	Rescale float64
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
		panic("rank: K must be positive")
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		panic("rank: Eps out of (0,1)")
	}
	if c.Rescale < 0 {
		panic("rank: negative Rescale")
	}
}

// chunk is a site's in-progress instance of algorithm C.
type chunk struct {
	id      int64
	cap     int64 // maximum number of elements (n̄/k at creation)
	b       int64 // block size εn̄/√k
	h       int   // tree height: levels 0..h
	arrived int64
	active  []*merge.Summary // one active node per level (nil = none)
}

// Site is the per-site state machine of the randomized rank tracker. The
// residual sampling coin is skip-sampled (one geometric gap draw per
// forwarded sample instead of one Bernoulli draw per arrival), tree nodes
// draw their memory from a per-site merge.Pool, and ArriveBatch ingests runs
// of identical values through merge.InsertRun, jumping in closed form to the
// next summary-emission, residual-sample, or doubling-report boundary.
type Site struct {
	cfg  Config
	rs   *rounds.Site
	rng  *stats.RNG
	pool *merge.Pool

	p      float64
	skip   int64 // silent arrivals remaining before the next residual sample
	nextID int64
	cur    *chunk
}

// NewSite returns a fresh site.
func NewSite(cfg Config, rng *stats.RNG) *Site {
	cfg.validate()
	return &Site{cfg: cfg, rs: rounds.NewSite(), rng: rng, pool: merge.NewPool(), p: 1}
}

// newChunk starts a fresh instance of algorithm C sized by the current n̄,
// releasing the previous chunk's still-active nodes back to the pool (their
// partial blocks stay covered by the already-forwarded residual samples).
func (s *Site) newChunk() *chunk {
	s.releaseChunk()
	nBar := s.rs.NBar()
	capacity := nBar / int64(s.cfg.K)
	if capacity < 1 {
		capacity = 1
	}
	b := int64(s.cfg.effEps() * float64(nBar) / math.Sqrt(float64(s.cfg.K)))
	if b < 1 {
		b = 1
	}
	numBlocks := (capacity + b - 1) / b
	h := 0
	for (int64(1) << uint(h)) < numBlocks {
		h++
	}
	c := &chunk{
		id:     s.nextID,
		cap:    capacity,
		b:      b,
		h:      h,
		active: make([]*merge.Summary, h+1),
	}
	s.nextID++
	return c
}

// releaseChunk returns the current chunk's active summaries to the pool.
func (s *Site) releaseChunk() {
	if s.cur == nil {
		return
	}
	for i, a := range s.cur.active {
		if a != nil {
			a.Release()
			s.cur.active[i] = nil
		}
	}
	s.cur = nil
}

// bufSize returns the buffer size for a level-ℓ node: ⌈2^ℓ·√h⌉, which gives
// the node's rank estimator a standard deviation of at most b/(2√h) over its
// 2^ℓ·b elements (the paper's per-level error parameter 2^−ℓ/√h).
func (c *chunk) bufSize(level int) int {
	h := float64(c.h)
	if h < 1 {
		h = 1
	}
	s := int(math.Ceil(float64(int64(1)<<uint(level)) * math.Sqrt(h)))
	if s < 1 {
		s = 1
	}
	return s
}

// Arrive implements proto.Site.
func (s *Site) Arrive(item int64, value float64, out func(proto.Message)) {
	if s.cur == nil || s.cur.arrived >= s.cur.cap {
		s.cur = s.newChunk()
	}
	c := s.cur
	c.arrived++

	// Feed every active node on the path (one per level), creating nodes
	// lazily, and ship summaries of nodes that just became full.
	for level := 0; level <= c.h; level++ {
		if c.active[level] == nil {
			c.active[level] = s.pool.NewSummary(c.bufSize(level), s.rng)
		}
		c.active[level].Insert(value)
		span := c.b << uint(level) // elements covered by a level-ℓ node
		if c.arrived%span == 0 {
			pos := int((c.arrived - 1) / span)
			out(SummaryMsg{Chunk: c.id, Level: level, Pos: pos, Snap: c.active[level].Snapshot()})
			c.active[level].Release()
			c.active[level] = nil
		}
	}

	// Residual sampling at rate p, skip-sampled.
	if s.skip > 0 {
		s.skip--
	} else {
		out(SampleMsg{Chunk: c.id, Index: c.arrived, Value: value})
		s.skip = s.rng.SkipGeometric(s.p)
	}

	s.rs.Arrive(out)
}

// ArriveBatch implements proto.BatchSite. A run of identical values is
// ingested in two strides per iteration: the arrivals strictly before the
// next possible message — the next summary emission (multiples of the block
// size b), the next residual sample (s.skip), and the next doubling report
// (rounds gap), all known in closed form — enter the active tree nodes as
// one InsertRun per level, then the boundary arrival takes the full serial
// path so any message lands exactly where element-at-a-time delivery would
// put it. The result is bit-identical to count Arrive calls: InsertRun
// matches Insert's buffer contents and RNG draws, nodes are created in the
// same level order, and the site RNG is consulted at the same arrivals.
func (s *Site) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	var done int64
	emitted := false
	wrap := func(m proto.Message) { emitted = true; out(m) }
	for done < count && !emitted {
		if s.cur == nil || s.cur.arrived >= s.cur.cap {
			s.cur = s.newChunk()
		}
		c := s.cur
		// quiet = arrivals guaranteed message-free, keeping one arrival in
		// reserve for the boundary element below.
		quiet := count - done - 1
		if g := c.b - 1 - c.arrived%c.b; g < quiet {
			quiet = g // next summary emission (all levels emit at multiples of b)
		}
		if g := c.cap - 1 - c.arrived; g < quiet {
			quiet = g // stay inside this chunk; Arrive handles the rollover
		}
		if s.skip < quiet {
			quiet = s.skip // next residual sample
		}
		if g := s.rs.Gap(); g < quiet {
			quiet = g // next doubling report
		}
		if quiet > 0 {
			for level := 0; level <= c.h; level++ {
				if c.active[level] == nil {
					c.active[level] = s.pool.NewSummary(c.bufSize(level), s.rng)
				}
				c.active[level].InsertRun(value, quiet)
			}
			c.arrived += quiet
			s.skip -= quiet
			s.rs.Skip(quiet)
			done += quiet
		}
		s.Arrive(item, value, wrap)
		done++
	}
	return done
}

// Receive implements proto.Site: a round broadcast abandons the current
// chunk (its residual stays covered by the already-forwarded samples) and
// updates p.
func (s *Site) Receive(m proto.Message, out func(proto.Message)) {
	if !s.rs.Deliver(m) {
		return
	}
	s.p = rounds.P(s.rs.NBar(), s.cfg.K, s.cfg.effEps())
	// Fresh geometric gap at the new p (memoryless, distribution-preserving).
	if s.p < 1 {
		s.skip = s.rng.SkipGeometric(s.p)
	}
	s.releaseChunk()
}

// SpaceWords implements proto.Site.
func (s *Site) SpaceWords() int {
	w := s.rs.SpaceWords() + 3
	if s.cur != nil {
		for _, a := range s.cur.active {
			if a != nil {
				w += a.SpaceWords()
			}
		}
		w += 5
	}
	return w
}

// P exposes the site's sampling probability (tests).
func (s *Site) P() float64 { return s.p }

// chunkView is the coordinator's record of one chunk: node summaries
// indexed by [level][pos] and samples tail-partitioned around the covered
// prefix. A live chunk also caches its query index.
type chunkView struct {
	p       float64
	b       int64
	leaves  int                // number of completed blocks (level-0 summaries seen)
	levels  [][]merge.Snapshot // levels[l][pos]; a zero-N snapshot marks absence
	samples []sample           // in index order (sites send them in order)
	tail    int                // samples[tail:] have index > leaves*b (the residual)

	dirty bool // a message arrived since idx was built
	idx   run  // live chunks only; sealing moves it onto the run stack
}

// run is a query index: every (value, weight) pair of one or more chunks'
// covered-prefix binary decompositions plus their residual samples at weight
// 1/p, sorted by value with cumulative weights. rank(x) is one binary search.
type run struct {
	values []float64
	cum    []float64 // cum[i] = Σ weights of values[:i]; len = len(values)+1
}

func (r run) rank(x float64) float64 { return r.cum[sort.SearchFloat64s(r.values, x)] }

// mergeRuns merges two runs. Weights are recovered as differences of the
// cumulative sums, which is exact (see the package comment).
func mergeRuns(a, b run) run {
	n := len(a.values) + len(b.values)
	out := run{values: make([]float64, 0, n), cum: make([]float64, 1, n+1)}
	total := 0.0
	i, j := 0, 0
	for i < len(a.values) || j < len(b.values) {
		if j == len(b.values) || (i < len(a.values) && a.values[i] <= b.values[j]) {
			out.values = append(out.values, a.values[i])
			total += a.cum[i+1] - a.cum[i]
			i++
		} else {
			out.values = append(out.values, b.values[j])
			total += b.cum[j+1] - b.cum[j]
			j++
		}
		out.cum = append(out.cum, total)
	}
	return out
}

type indexEntry struct {
	value  float64
	weight float64
}

type sample struct {
	index int64
	value float64
}

// nodeWords is a stored node's charge in the space ledger (absent = 0).
func nodeWords(sn merge.Snapshot) int {
	if sn.N > 0 {
		return sn.Words()
	}
	return 0
}

// node returns the snapshot at (level, pos) and whether it is present.
func (v *chunkView) node(level, pos int) (merge.Snapshot, bool) {
	if level >= len(v.levels) || pos >= len(v.levels[level]) {
		return merge.Snapshot{}, false
	}
	sn := v.levels[level][pos]
	return sn, sn.N > 0
}

// setNode stores a snapshot, growing the level-indexed slices as needed, and
// returns the change in the chunk's space charge.
func (v *chunkView) setNode(level, pos int, sn merge.Snapshot) int {
	for level >= len(v.levels) {
		v.levels = append(v.levels, nil)
	}
	for pos >= len(v.levels[level]) {
		v.levels[level] = append(v.levels[level], merge.Snapshot{})
	}
	delta := nodeWords(sn) - nodeWords(v.levels[level][pos])
	v.levels[level][pos] = sn
	return delta
}

// advanceTail moves the sample partition point up to the covered prefix.
func (v *chunkView) advanceTail() {
	covered := int64(v.leaves) * v.b
	for v.tail < len(v.samples) && v.samples[v.tail].index <= covered {
		v.tail++
	}
}

// index returns v's query index, rebuilding it from the chunk's current
// decomposition and residual samples if a message arrived since the last.
func (c *Coordinator) index(v *chunkView) run {
	if !v.dirty {
		return v.idx
	}
	entries := c.scratch[:0]
	// Binary decomposition of the q = v.leaves completed blocks.
	q := v.leaves
	start := 0
	for level := 62; level >= 0; level-- {
		bit := 1 << uint(level)
		if q&bit == 0 {
			continue
		}
		if sn, ok := v.node(level, start>>uint(level)); ok {
			for _, b := range sn.Buffers {
				w := float64(b.Weight)
				for _, val := range b.Values {
					entries = append(entries, indexEntry{value: val, weight: w})
				}
			}
		}
		start += bit
	}
	// Residual: samples with index beyond the covered prefix, at weight 1/p.
	w := 1 / v.p
	for _, sm := range v.samples[v.tail:] {
		entries = append(entries, indexEntry{value: sm.value, weight: w})
	}
	slices.SortFunc(entries, func(a, b indexEntry) int { return cmp.Compare(a.value, b.value) })
	v.idx.values = v.idx.values[:0]
	v.idx.cum = append(v.idx.cum[:0], 0)
	total := 0.0
	for _, e := range entries {
		v.idx.values = append(v.idx.values, e.value)
		total += e.weight
		v.idx.cum = append(v.idx.cum, total)
	}
	c.scratch, v.dirty = entries, false
	return v.idx
}

// Coordinator accumulates chunk summaries and samples and answers rank
// queries at any quiescent instant. Chunk records are indexed by site and
// sequential chunk id; see the package comment for live and sealed chunks.
type Coordinator struct {
	cfg    Config
	rc     *rounds.Coordinator
	p      float64
	chunks [][]*chunkView // per site, indexed by chunk id
	live   []*chunkView   // per site: the live chunk, nil before the first
	words  int            // running space charge of every chunk record

	// runs is the stack of the sealed chunks' merged indexes: each run is
	// more than twice the one above it. stale means a message reached a
	// sealed chunk and the stack must be rebuilt before the next query.
	runs    []run
	stale   bool
	scratch []indexEntry
}

// NewCoordinator returns the coordinator for the randomized rank tracker.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.validate()
	return &Coordinator{
		cfg:    cfg,
		rc:     rounds.NewCoordinator(cfg.K),
		p:      1,
		chunks: make([][]*chunkView, cfg.K),
		live:   make([]*chunkView, cfg.K),
	}
}

// seal moves a chunk's index onto the run stack and merges the top two runs
// while the lower is at most twice the upper.
func (c *Coordinator) seal(v *chunkView) {
	r := c.index(v)
	v.idx, v.dirty = run{}, true
	if len(r.values) == 0 {
		return
	}
	c.runs = append(c.runs, r)
	for n := len(c.runs); n >= 2 && len(c.runs[n-2].values) <= 2*len(c.runs[n-1].values); n-- {
		c.runs[n-2] = mergeRuns(c.runs[n-2], c.runs[n-1])
		c.runs = c.runs[:n-1]
	}
}

// reindex rebuilds the run stack from the chunk records.
func (c *Coordinator) reindex() {
	c.runs = c.runs[:0]
	for site, siteChunks := range c.chunks {
		for _, v := range siteChunks {
			if v != nil && v != c.live[site] {
				c.seal(v)
			}
		}
	}
	c.stale = false
}

// view returns (creating if needed) the record for a site's chunk and makes
// it the site's live chunk, sealing the previous one. If the record exists
// and is not live it was sealed earlier and its old index sits merged inside
// a run, so the stack goes stale instead.
func (c *Coordinator) view(site int, id int64) *chunkView {
	for id >= int64(len(c.chunks[site])) {
		c.chunks[site] = append(c.chunks[site], nil)
	}
	v, prev := c.chunks[site][id], c.live[site]
	if v != nil && v == prev {
		return v
	}
	if v == nil {
		nBar := c.rc.NBar()
		b := int64(c.cfg.effEps() * float64(nBar) / math.Sqrt(float64(c.cfg.K)))
		if b < 1 {
			b = 1
		}
		v = &chunkView{p: c.p, b: b, dirty: true}
		c.chunks[site][id] = v
		c.words += 3
	} else {
		c.stale = true
	}
	if prev != nil && !c.stale {
		c.seal(prev)
	}
	c.live[site] = v
	return v
}

// addSummary stores a node summary in v and advances the covered prefix.
func (c *Coordinator) addSummary(v *chunkView, msg SummaryMsg) {
	c.words += v.setNode(msg.Level, msg.Pos, msg.Snap)
	if msg.Level == 0 && msg.Pos+1 > v.leaves {
		v.leaves = msg.Pos + 1
		v.advanceTail()
	}
	v.dirty = true
}

// addSample appends a residual sample to v. Samples arrive in increasing
// index order; one landing inside the covered prefix belongs to the head
// partition.
func (c *Coordinator) addSample(v *chunkView, msg SampleMsg) {
	v.samples = append(v.samples, sample{index: msg.Index, value: msg.Value})
	c.words += 2
	if msg.Index <= int64(v.leaves)*v.b {
		v.tail = len(v.samples)
	}
	v.dirty = true
}

// Receive implements proto.Coordinator.
func (c *Coordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		c.p = rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps())
		return
	}
	switch msg := m.(type) {
	case SummaryMsg:
		c.addSummary(c.view(from, msg.Chunk), msg)
	case SampleMsg:
		c.addSample(c.view(from, msg.Chunk), msg)
	}
}

// Rank returns the estimate of |{elements < x}| over everything received so
// far: for each chunk, the binary decomposition of its completed-block
// prefix and the residual samples at rate p. Sealed chunks answer through
// the run stack (one binary search per run), live chunks through their own
// index (one per site).
func (c *Coordinator) Rank(x float64) float64 {
	if c.stale {
		c.reindex()
	}
	est := 0.0
	for _, r := range c.runs {
		est += r.rank(x)
	}
	for _, v := range c.live {
		if v != nil {
			est += c.index(v).rank(x)
		}
	}
	return est
}

// Quantile returns a value whose estimated rank is closest to q·n̂ (n̂ =
// Rank(+inf)), located by bisection over [lo, hi] (see Bisect).
func (c *Coordinator) Quantile(q float64, lo, hi float64) float64 {
	return Bisect(c.Rank)(q, lo, hi)
}

// Bisect turns a rank function into a quantile function: it locates, by up
// to 64 bisection steps over [lo, hi], a value whose estimated rank is q·n̂
// (n̂ = rankFn(+inf)). On an empty tracker (n̂ = 0) there is no value of any
// rank — bisecting towards rank 0 would silently converge to lo — so it
// returns NaN.
func Bisect(rankFn func(float64) float64) func(q, lo, hi float64) float64 {
	return func(q, lo, hi float64) float64 {
		total := rankFn(math.Inf(1))
		if total == 0 {
			return math.NaN()
		}
		target := q * total
		for i := 0; i < 64 && hi-lo > 1e-9*(1+math.Abs(hi)); i++ {
			mid := (lo + hi) / 2
			if rankFn(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
}

// Round returns the number of round transitions so far.
func (c *Coordinator) Round() int { return c.rc.Round() }

// Resync implements proto.Resyncer: a rejoining site is brought straight
// to the current round (chunk size and sampling probability) by replaying
// the round broadcast.
func (c *Coordinator) Resync(emit func(proto.Message)) { c.rc.Resync(emit) }

// stateChunk opens one chunk record in a snapshot (the range 1..9 belongs
// to the embedded rounds component): from = site, A = chunk id, B = the
// block size b the chunk was created with, F = its sampling probability.
// b and p are captured at chunk creation from the then-current round, so
// they must be persisted — they are not derivable from the restored round
// state.
const stateChunk = 20

// SnapshotState implements proto.Snapshotter: the round component's
// records, then every chunk — its creation-time parameters, its node
// summaries, and its samples in index order (the protocol's own message
// types carry them).
func (c *Coordinator) SnapshotState(emit func(from int, m proto.Message)) {
	c.rc.SnapshotState(emit)
	for site, siteChunks := range c.chunks {
		for id, v := range siteChunks {
			if v == nil {
				continue
			}
			emit(site, proto.StateMsg{Key: stateChunk, A: int64(id), B: v.b, F: v.p})
			for level, lvl := range v.levels {
				for pos, sn := range lvl {
					if sn.N > 0 {
						emit(site, SummaryMsg{Chunk: int64(id), Level: level, Pos: pos, Snap: sn})
					}
				}
			}
			for _, sm := range v.samples {
				emit(site, SampleMsg{Chunk: int64(id), Index: sm.index, Value: sm.value})
			}
		}
	}
}

// RestoreState implements proto.Snapshotter. A chunk record creates the
// view with its captured b and p (never through view(), which would use
// the current round's); the summary and sample records that follow replay
// through the same partition logic as Receive, which converges to the
// identical leaves/tail state because summaries precede samples. The run
// stack is not persisted: restored chunks are indexed by the first query.
func (c *Coordinator) RestoreState(from int, m proto.Message) {
	if c.rc.RestoreState(from, m) {
		c.p = rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps())
		return
	}
	if from < 0 || from >= len(c.chunks) {
		return
	}
	restored := func(id int64) *chunkView {
		if id < 0 || id >= int64(len(c.chunks[from])) {
			return nil
		}
		return c.chunks[from][id]
	}
	c.stale = true
	switch msg := m.(type) {
	case proto.StateMsg:
		if msg.Key != stateChunk || msg.A < 0 {
			return
		}
		for msg.A >= int64(len(c.chunks[from])) {
			c.chunks[from] = append(c.chunks[from], nil)
		}
		if c.chunks[from][msg.A] == nil {
			c.chunks[from][msg.A] = &chunkView{p: msg.F, b: msg.B, dirty: true}
			c.words += 3
		}
		c.live[from] = c.chunks[from][msg.A]
	case SummaryMsg:
		if v := restored(msg.Chunk); v != nil && msg.Level >= 0 && msg.Pos >= 0 {
			c.addSummary(v, msg)
		}
	case SampleMsg:
		if v := restored(msg.Chunk); v != nil {
			c.addSample(v, msg)
		}
	}
}

// P returns the current sampling probability.
func (c *Coordinator) P() float64 { return c.p }

// SpaceWords implements proto.Coordinator: an O(1) read of the ledger that
// Receive and RestoreState keep. The query indexes are a cache of the
// protocol state, not part of it, so they are not charged.
func (c *Coordinator) SpaceWords() int { return c.rc.SpaceWords() + 1 + c.words }

// NewProtocol assembles the randomized rank tracker.
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

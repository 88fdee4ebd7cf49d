// Package rank implements the rank/quantile-tracking protocols of Section 4
// of the paper: the randomized algorithm built from per-chunk dyadic trees
// of unbiased rank summaries ("algorithm C" over "algorithm A") with
// residual sampling, and the deterministic baseline of Cormode et al. [6]
// (periodic Greenwald–Khanna snapshots).
//
// # Which nodes exist
//
// The paper runs one summary per node of a binary tree over a chunk's blocks
// and ships every node when it fills, which serves any interval of blocks.
// This coordinator only ever decomposes a prefix [0, q) of a chunk, q the
// number of completed blocks, into one node per set bit of q: the node for
// bit ℓ starts where the higher bits end, at a multiple of 2^(ℓ+1) blocks,
// so its position within level ℓ is even. A node at an odd position is never
// read (its parent fills on the same arrival and covers it), and neither is
// one that cannot fill before the chunk's capacity runs out — the root,
// whenever the block count is not a power of two. A level-ℓ node at pos is
// therefore readable iff pos is even and (pos+1)·2^ℓ·b ≤ cap, and sites
// create, feed and ship readable nodes only (chunk.readable is the one place
// that rule lives). Exactly one readable node ends with each block — level
// t, for a completed-block count of 2^t·odd — so a chunk sends one summary
// per block, and the coordinator advances its completed-block count from a
// summary of any level: a node at (ℓ, pos) ends with block (pos+1)·2^ℓ.
//
// Dropping nodes must not move any random draw, or answers would change from
// bit-identical to merely equal in distribution. Creating a node splits the
// site's RNG once, so a node that is skipped still spends that one draw, at
// the arrival and in the level order at which it would have been created:
// every surviving node's seed, every merge offset inside it and every
// residual-sample gap stays the draw it was when all nodes were built. The
// asymptotics are the paper's; the constant is smaller (about half the
// summary messages and half the per-arrival summary inserts).
//
// # Query index: live and sealed chunks
//
// Rank(x) sums, over every chunk the coordinator has heard of, the weights of
// the stored values below x. Each site has one live chunk, the one its latest
// message addressed. It answers from a private (value, cumulative weight)
// index of its covered prefix, rebuilt after a summary arrives, plus a scan
// of its residual samples — the few with an index beyond the prefix — at
// weight 1/p. When the site addresses another chunk id the previous one
// is sealed — links are FIFO, so it will not change again — and prefix and
// residual are indexed together and pushed onto a coordinator-wide stack of
// sorted runs merged by the logarithmic method. A query is one binary search
// per run, O(log N) of them, plus one per live chunk, at most K, however many
// chunks were ever opened. The stack is a cache, neither persisted nor
// charged as space; a message that does reach a sealed chunk (a rejoined site
// restarts its ids at 0) marks it stale, and the next query rebuilds it from
// the records.
//
// Merging re-associates a floating-point sum, yet answers stay bit-identical
// to a chunk-by-chunk walk: every weight is an integer (a merge-summary
// buffer weight, or 1/p with p = 1/2^j from rounds.P) and all of them sum to
// about the number of arrivals, far below 2^53, so every partial sum in any
// order, and every difference of two cumulative sums, is exact.
package rank

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"disttrack/internal/proto"
	"disttrack/internal/rounds"
	"disttrack/internal/stats"
	"disttrack/internal/summary/merge"
)

// SummaryMsg ships the summary of a full, readable tree node (see "Which
// nodes exist" in the package comment): one per completed block. Its payload
// is the snapshot plus level and node-position tags.
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

// maxBlocks bounds the completed-block count (Pos+1)<<Level a summary can
// announce. A chunk holds cap/b blocks with cap = ⌊n̄/k⌋ and b = ⌊ε'n̄/√k⌋,
// both at least 1, and ⌊y⌋ > y/2 for y ≥ 1, so cap/b < 2/(ε'√k) whenever it
// exceeds 1.
func (c Config) maxBlocks() int {
	return int(2/(c.effEps()*math.Sqrt(float64(c.K)))) + 1
}

// maxChunks bounds a chunk id. A round ends once the reported counts sum to
// 2n̄, which a single site's doubling reports reach within 4n̄ arrivals — at
// most 8K+1 chunks of ⌊n̄/k⌋ > n̄/2k elements — and there are at most 63
// rounds: under 2^9·(K+1) ids. The flat 2^20 on top is for a site running
// ahead of a delayed broadcast while n̄ < K, where every arrival opens a
// chunk.
func (c Config) maxChunks() int64 { return 1<<20 + 512*(int64(c.K)+1) }

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
	blocks  int              // completed blocks
	inBlock int64            // arrivals into the current block; 0 = the next one opens it
	active  []*merge.Summary // the readable node in progress at each level (nil = none)
	feed    []*merge.Summary // active's non-nil entries, fixed for the current block
}

// readable reports whether a prefix decomposition can ever read the level-ℓ
// node at pos: only even positions appear in one, and the node must complete
// inside the chunk (see "Which nodes exist" in the package comment).
func (c *chunk) readable(level, pos int) bool {
	return pos&1 == 0 && (int64(pos)+1)*(c.b<<uint(level)) <= c.cap
}

// Site is the per-site state machine of the randomized rank tracker. The
// residual sampling coin is skip-sampled (one geometric gap draw per
// forwarded sample instead of one Bernoulli draw per arrival), only the tree
// nodes a prefix decomposition can read are built (chunk.readable), they
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

// openBlock runs at a block's first arrival: it creates the readable nodes
// that start with the block, lowest level first, and fixes the block's feed
// list. A node that starts here but is not readable still spends the one
// draw pool.NewSummary's RNG split would have taken from the site RNG, so
// every later draw — node seeds, merge offsets, residual-sample gaps — is
// the one it would be if every node were built.
func (s *Site) openBlock(c *chunk) {
	c.feed = c.feed[:0]
	for level := 0; level <= c.h; level++ {
		if c.blocks&(1<<uint(level)-1) == 0 { // a level-ℓ node starts at this block
			if c.readable(level, c.blocks>>uint(level)) {
				c.active[level] = s.pool.NewSummary(c.bufSize(level), s.rng)
			} else {
				s.rng.Uint64()
			}
		}
		if a := c.active[level]; a != nil {
			c.feed = append(c.feed, a)
		}
	}
}

// closeBlock runs at a block's last arrival and ships the node that ends
// with it. Writing the completed-block count as 2^t·odd, the nodes ending
// here are those of levels 0..t, and only the level-t one sits at an even
// position: one summary per block. It is readable, having just completed
// inside the chunk, and t ≤ h because a chunk holds at most 2^h blocks.
func (s *Site) closeBlock(c *chunk, out func(proto.Message)) {
	c.blocks++
	c.inBlock = 0
	t := bits.TrailingZeros(uint(c.blocks))
	out(SummaryMsg{Chunk: c.id, Level: t, Pos: c.blocks>>uint(t) - 1, Snap: c.active[t].Snapshot()})
	c.active[t].Release()
	c.active[t] = nil
}

// Arrive implements proto.Site.
func (s *Site) Arrive(item int64, value float64, out func(proto.Message)) {
	if s.cur == nil || s.cur.arrived >= s.cur.cap {
		s.cur = s.newChunk()
	}
	c := s.cur
	if c.inBlock == 0 {
		s.openBlock(c)
	}
	c.arrived++
	c.inBlock++
	for _, a := range c.feed {
		a.Insert(value)
	}
	if c.inBlock == c.b {
		s.closeBlock(c, out)
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
// next possible message — the next summary emission (a block's last
// arrival), the next residual sample (s.skip), and the next doubling report
// (rounds gap), all known in closed form — enter the block's feed list as
// one InsertRun per node, then the boundary arrival takes the full serial
// path so any message lands exactly where element-at-a-time delivery would
// put it. The result is bit-identical to count Arrive calls: InsertRun
// matches Insert's buffer contents and RNG draws, a block is opened at the
// same arrival, and the site RNG is consulted at the same arrivals.
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
		if g := c.b - 1 - c.inBlock; g < quiet {
			quiet = g // next summary emission (the block's last arrival)
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
			if c.inBlock == 0 {
				s.openBlock(c)
			}
			for _, a := range c.feed {
				a.InsertRun(value, quiet)
			}
			c.arrived += quiet
			c.inBlock += quiet
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
// prefix. A live chunk also caches the index of its covered prefix.
type chunkView struct {
	p       float64
	b       int64
	leaves  int                // completed blocks: the largest (Pos+1)<<Level seen
	levels  [][]merge.Snapshot // levels[l][pos]; a zero-N snapshot marks absence
	samples []sample           // in index order (sites send them in order)
	tail    int                // samples[tail:] have index > leaves*b (the residual)

	dirty  bool // a summary arrived since prefix was built
	prefix run  // live chunks only: the decomposition of the covered prefix
}

// run is a query index: (value, weight) pairs — one or more chunks'
// covered-prefix binary decompositions, and for sealed chunks their residual
// samples at weight 1/p — sorted by value with cumulative weights. rank(x)
// is one binary search.
type run struct {
	values []float64
	cum    []float64 // cum[i] = Σ weights of values[:i]; len = len(values)+1
}

// indexRun indexes entries, already sorted by value, into dst's storage.
func indexRun(dst run, entries []indexEntry) run {
	dst.values = slices.Grow(dst.values[:0], len(entries))
	dst.cum = append(slices.Grow(dst.cum[:0], len(entries)+1), 0)
	total := 0.0
	for _, e := range entries {
		dst.values = append(dst.values, e.value)
		total += e.weight
		dst.cum = append(dst.cum, total)
	}
	return dst
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

// segments is the scratch area an index is built in: sorted segments of
// entries — a node summary's buffers arrive sorted — merged pairwise, bottom
// up, which is O(n log #segments) moves against the O(n log n) comparator
// calls of sorting their concatenation.
type segments struct {
	entries, spare []indexEntry
	ends           []int // ends[i] = where segment i stops in entries
}

func (s *segments) reset() { s.entries, s.ends = s.entries[:0], s.ends[:0] }

// add appends one segment: values, sorted, at a common weight.
func (s *segments) add(weight float64, values ...float64) {
	for _, v := range values {
		s.entries = append(s.entries, indexEntry{value: v, weight: weight})
	}
	s.ends = append(s.ends, len(s.entries))
}

// merged returns every entry added since reset, sorted by value. The slice
// is valid until the next add.
func (s *segments) merged() []indexEntry {
	src, dst, ends := s.entries, s.spare, s.ends
	for len(ends) > 1 {
		dst = dst[:0]
		n, start := 0, 0
		for i := 0; i < len(ends); i += 2 {
			mid, end := ends[i], ends[i]
			if i+1 < len(ends) {
				end = ends[i+1]
			}
			a, b := src[start:mid], src[mid:end]
			for len(a) > 0 && len(b) > 0 {
				if a[0].value <= b[0].value {
					dst, a = append(dst, a[0]), a[1:]
				} else {
					dst, b = append(dst, b[0]), b[1:]
				}
			}
			dst = append(append(dst, a...), b...)
			ends[n], start = len(dst), end
			n++
		}
		ends = ends[:n]
		src, dst = dst, src
	}
	s.entries, s.spare = src, dst
	return src
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

// decomposition adds to seg the buffers of the binary decomposition of v's
// q = v.leaves completed blocks. Every node it names sits at an even
// position inside the covered prefix, so an honest site has shipped it
// (TestDecompositionNeverMissesANode).
func (v *chunkView) decomposition(seg *segments) {
	start := 0
	for level := 62; level >= 0; level-- {
		bit := 1 << uint(level)
		if v.leaves&bit == 0 {
			continue
		}
		if sn, ok := v.node(level, start>>uint(level)); ok {
			for _, b := range sn.Buffers {
				seg.add(float64(b.Weight), b.Values...)
			}
		}
		start += bit
	}
}

// liveRank answers for a live chunk: the cached index of its covered
// prefix, rebuilt only if a summary arrived since the last query, plus a
// scan of the few residual samples at weight 1/p.
func (c *Coordinator) liveRank(v *chunkView, x float64) float64 {
	if v.dirty {
		c.seg.reset()
		v.decomposition(&c.seg)
		v.prefix, v.dirty = indexRun(v.prefix, c.seg.merged()), false
	}
	below := 0
	for _, sm := range v.samples[v.tail:] {
		if sm.value < x {
			below++
		}
	}
	return v.prefix.rank(x) + float64(below)/v.p
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
	runs  []run
	stale bool
	seg   segments
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

// seal indexes a chunk for good — covered prefix and residual samples in
// one run — pushes it onto the run stack, and merges the top two runs while
// the lower is at most twice the upper.
func (c *Coordinator) seal(v *chunkView) {
	c.seg.reset()
	v.decomposition(&c.seg)
	w := 1 / v.p
	for _, sm := range v.samples[v.tail:] {
		c.seg.add(w, sm.value)
	}
	v.prefix, v.dirty = run{}, true
	entries := c.seg.merged()
	if len(entries) == 0 {
		return
	}
	c.runs = append(c.runs, indexRun(run{}, entries))
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

// admits reports whether m addresses a chunk and, for a summary, a node that
// an honest site of this configuration can name (Config.maxChunks,
// Config.maxBlocks). Everything a message indexes with or shifts by is
// checked here, in front of Receive and RestoreState alike, so a corrupt
// frame is dropped instead of panicking on a negative index, overflowing
// (Pos+1)<<Level, or growing the records to a forged id.
func (c *Coordinator) admits(m proto.Message) bool {
	chunkOK := func(id int64) bool { return id >= 0 && id < c.cfg.maxChunks() }
	switch msg := m.(type) {
	case SummaryMsg:
		return chunkOK(msg.Chunk) && msg.Level >= 0 && msg.Level <= 62 &&
			msg.Pos >= 0 && msg.Pos < c.cfg.maxBlocks()>>uint(msg.Level)
	case SampleMsg:
		return chunkOK(msg.Chunk)
	case proto.StateMsg:
		return msg.Key == stateChunk && chunkOK(msg.A) && msg.B >= 1 && msg.F > 0 && msg.F <= 1
	}
	return false
}

// grow extends a site's chunk table to hold id.
func (c *Coordinator) grow(site int, id int64) {
	if n := int(id) + 1 - len(c.chunks[site]); n > 0 {
		c.chunks[site] = append(c.chunks[site], make([]*chunkView, n)...)
	}
}

// view returns (creating if needed) the record for a site's chunk and makes
// it the site's live chunk, sealing the previous one. If the record exists
// and is not live it was sealed earlier and its old index sits merged inside
// a run, so the stack goes stale instead.
func (c *Coordinator) view(site int, id int64) *chunkView {
	c.grow(site, id)
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

// addSummary stores a node summary in v and advances the covered prefix: a
// node of any level ends with block (Pos+1)<<Level. The prefix index goes
// stale even when leaves stays put — a rejoined site overwrites nodes in
// place.
func (c *Coordinator) addSummary(v *chunkView, msg SummaryMsg) {
	c.words += v.setNode(msg.Level, msg.Pos, msg.Snap)
	if ends := (msg.Pos + 1) << uint(msg.Level); ends > v.leaves {
		v.leaves = ends
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
}

// Receive implements proto.Coordinator.
func (c *Coordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	if c.rc.Deliver(from, m, broadcast) {
		c.p = rounds.P(c.rc.NBar(), c.cfg.K, c.cfg.effEps())
		return
	}
	if !c.admits(m) {
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
			est += c.liveRank(v, x)
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
	if from < 0 || from >= len(c.chunks) || !c.admits(m) {
		return
	}
	restored := func(id int64) *chunkView {
		if id >= int64(len(c.chunks[from])) {
			return nil
		}
		return c.chunks[from][id]
	}
	c.stale = true
	switch msg := m.(type) {
	case proto.StateMsg:
		c.grow(from, msg.A)
		if c.chunks[from][msg.A] == nil {
			c.chunks[from][msg.A] = &chunkView{p: msg.F, b: msg.B, dirty: true}
			c.words += 3
		}
		c.live[from] = c.chunks[from][msg.A]
	case SummaryMsg:
		if v := restored(msg.Chunk); v != nil {
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

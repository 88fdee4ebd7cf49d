// Package boost provides generic probability amplification for tracking
// protocols: it multiplexes c independent copies of a protocol into a single
// protocol, so a caller can take the median of the copies' estimates.
//
// This is the paper's Section 1.2 boosting argument in reusable form: each
// copy is correct at any one instant with constant probability, so the
// median of 2t+1 copies is correct except with probability exp(−Ω(t)), and
// O(log(logN/(δε))) copies make the tracker correct at ALL of the
// O(1/ε·logN) effective time instants with probability 1−δ.
//
// The copy index on each message is routing information (a port number);
// Words charges only the inner message, matching the paper's accounting of
// boosting as a multiplicative factor on communication.
package boost

import "disttrack/internal/proto"

// Msg wraps an inner protocol message with its copy index.
type Msg struct {
	Copy  int
	Inner proto.Message
}

// Words implements proto.Message.
func (m Msg) Words() int { return m.Inner.Words() }

// quietSkipper is what a copy needs for site.ArriveBatch's lockstep: how
// many further arrivals it is guaranteed to absorb without a message, and
// an O(1) way to absorb them (count.Site has both).
type quietSkipper interface {
	QuietGap() int64
	SkipQuiet(count int64)
}

// site multiplexes one site of every copy. The per-copy wrappers are built
// once (writing through cur) so the hot path allocates no closures.
type site struct {
	copies []proto.Site
	quiet  []quietSkipper // the copies again, or nil unless every copy is one
	outs   []func(proto.Message)
	cur    func(proto.Message)
}

func newSite(copies []proto.Site) *site {
	s := &site{copies: copies, outs: make([]func(proto.Message), len(copies))}
	var quiet []quietSkipper
	for i, cp := range copies {
		s.outs[i] = func(m proto.Message) { s.cur(Msg{Copy: i, Inner: m}) }
		if q, ok := cp.(quietSkipper); ok {
			quiet = append(quiet, q)
		}
	}
	if len(quiet) == len(copies) {
		s.quiet = quiet
	}
	return s
}

// Arrive implements proto.Site.
func (s *site) Arrive(item int64, value float64, out func(proto.Message)) {
	s.cur = out
	for i, cp := range s.copies {
		cp.Arrive(item, value, s.outs[i])
	}
	s.cur = nil
}

// ArriveBatch implements proto.BatchSite. When every copy is a
// quietSkipper the copies move in lockstep: the batch absorbs the minimum
// quiet gap across copies in O(copies), then feeds one element the normal
// way, so a run costs O(messages). Otherwise it feeds one element.
func (s *site) ArriveBatch(item int64, value float64, count int64, out func(proto.Message)) int64 {
	if s.quiet == nil {
		s.Arrive(item, value, out)
		return 1
	}
	quiet := count
	for _, q := range s.quiet {
		if g := q.QuietGap(); g < quiet {
			quiet = g
		}
	}
	for _, q := range s.quiet {
		q.SkipQuiet(quiet)
	}
	if quiet == count {
		return count
	}
	s.Arrive(item, value, out)
	return quiet + 1
}

// Receive implements proto.Site. A copy index outside the configured range
// (possible only on a wire transport fed corrupt frames) is dropped like
// any other unexpected message.
func (s *site) Receive(m proto.Message, out func(proto.Message)) {
	bm, ok := m.(Msg)
	if !ok || bm.Copy < 0 || bm.Copy >= len(s.copies) {
		return
	}
	s.cur = out
	s.copies[bm.Copy].Receive(bm.Inner, s.outs[bm.Copy])
	s.cur = nil
}

// SpaceWords implements proto.Site.
func (s *site) SpaceWords() int {
	w := 0
	for _, cp := range s.copies {
		w += cp.SpaceWords()
	}
	return w
}

// coordinator multiplexes the copies' coordinators. Like site's outs, the
// per-copy send and broadcast wrappers are built once, writing through
// send and cast.
type coordinator struct {
	copies []proto.Coordinator
	sends  []func(int, proto.Message)
	casts  []func(proto.Message)
	send   func(int, proto.Message)
	cast   func(proto.Message)
}

func newCoordinator(copies []proto.Coordinator) *coordinator {
	c := &coordinator{copies: copies, sends: make([]func(int, proto.Message), len(copies)),
		casts: make([]func(proto.Message), len(copies))}
	for i := range copies {
		c.sends[i] = func(to int, m proto.Message) { c.send(to, Msg{Copy: i, Inner: m}) }
		c.casts[i] = func(m proto.Message) { c.cast(Msg{Copy: i, Inner: m}) }
	}
	return c
}

// Receive implements proto.Coordinator. Out-of-range copy indices are
// dropped (see site.Receive).
func (c *coordinator) Receive(from int, m proto.Message, send func(int, proto.Message), broadcast func(proto.Message)) {
	bm, ok := m.(Msg)
	if !ok || bm.Copy < 0 || bm.Copy >= len(c.copies) {
		return
	}
	c.send, c.cast = send, broadcast
	c.copies[bm.Copy].Receive(from, bm.Inner, c.sends[bm.Copy], c.casts[bm.Copy])
	c.send, c.cast = nil, nil
}

// Resync implements proto.Resyncer: each copy's resync messages are
// replayed under its copy index, so a rejoining site's copies each land in
// their coordinator's current round.
func (c *coordinator) Resync(emit func(proto.Message)) {
	for idx, cp := range c.copies {
		if rs, ok := cp.(proto.Resyncer); ok {
			rs.Resync(func(inner proto.Message) { emit(Msg{Copy: idx, Inner: inner}) })
		}
	}
}

// SnapshotState implements proto.Snapshotter: each copy's records, wrapped
// with its copy index exactly like live traffic. Copies that cannot
// snapshot contribute nothing — in practice every boosted coordinator
// implements proto.Snapshotter, so nothing is lost.
func (c *coordinator) SnapshotState(emit func(from int, m proto.Message)) {
	for idx, cp := range c.copies {
		if sn, ok := cp.(proto.Snapshotter); ok {
			sn.SnapshotState(func(from int, inner proto.Message) {
				emit(from, Msg{Copy: idx, Inner: inner})
			})
		}
	}
}

// RestoreState implements proto.Snapshotter.
func (c *coordinator) RestoreState(from int, m proto.Message) {
	bm, ok := m.(Msg)
	if !ok || bm.Copy < 0 || bm.Copy >= len(c.copies) {
		return
	}
	if sn, ok := c.copies[bm.Copy].(proto.Snapshotter); ok {
		sn.RestoreState(from, bm.Inner)
	}
}

// SpaceWords implements proto.Coordinator.
func (c *coordinator) SpaceWords() int {
	w := 0
	for _, cp := range c.copies {
		w += cp.SpaceWords()
	}
	return w
}

// Wrap fuses c >= 1 protocol copies (same k) into one protocol. The caller
// keeps the copies' concrete coordinators to combine their estimates
// (typically via stats.Median).
func Wrap(copies []proto.Protocol) proto.Protocol {
	if len(copies) == 0 {
		panic("boost: need at least one copy")
	}
	k := copies[0].K()
	for _, p := range copies {
		if p.K() != k {
			panic("boost: copies disagree on k")
		}
	}
	sites := make([]proto.Site, k)
	for i := 0; i < k; i++ {
		cs := make([]proto.Site, len(copies))
		for ci, p := range copies {
			cs[ci] = p.Sites[i]
		}
		sites[i] = newSite(cs)
	}
	coords := make([]proto.Coordinator, len(copies))
	for ci, p := range copies {
		coords[ci] = p.Coord
	}
	return proto.Protocol{Coord: newCoordinator(coords), Sites: sites}
}

// WrapCoordinators fuses just the copies' coordinators — the coordinator
// half of Wrap, for rebuilding a crashed boosted coordinator over the
// surviving site machines (durable crash-restart recovery).
func WrapCoordinators(coords []proto.Coordinator) proto.Coordinator {
	if len(coords) == 0 {
		panic("boost: need at least one copy")
	}
	return newCoordinator(coords)
}

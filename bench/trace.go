package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one epoch or one
// HTTP request share a Group. Parent is the id of the span that caused this
// one, or -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Group  int32  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, group int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span from two instants already taken, for call
// sites that time the interval anyway.
func (t *tracer) add(name string, parent, group int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// adoptOrphans gives every parentless span named child the tightest
// enclosing span named parent. The HTTP backend closures cannot see the
// request that called them, so their spans find their handler by
// containment: a handler runs its backend call synchronously, and with two
// client connections at most two handler spans overlap.
func adoptOrphans(spans []span, child, parent string) {
	var ps []int
	for i, s := range spans {
		if s.Name == parent {
			ps = append(ps, i)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return spans[ps[a]].Start < spans[ps[b]].Start })
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent >= 0 {
			continue
		}
		// candidates start at or before the child; walk back while they
		// could still contain it
		hi := sort.Search(len(ps), func(j int) bool { return spans[ps[j]].Start > c.Start })
		best := -1
		for j := hi - 1; j >= 0 && j >= hi-8; j-- {
			p := spans[ps[j]]
			if p.End >= c.End && (best < 0 || p.End-p.Start < spans[best].End-spans[best].Start) {
				best = ps[j]
			}
		}
		if best >= 0 {
			c.Parent, c.Group = spans[best].ID, spans[best].Group
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// traceFile is what a traced run leaves behind for inspection.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Ladder   []ladderRow        `json:"ladder"`
	Spans    []span             `json:"spans"`
}

// ladderRow is one rung of the latency-budget table: the same epoch stream
// replayed one layer further up the stack, with the delta the rung added.
type ladderRow struct {
	Rung      string  `json:"rung"`
	NsPerElem float64 `json:"ns_per_elem"`
	DeltaNs   float64 `json:"delta_ns"`
	Note      string  `json:"note,omitempty"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

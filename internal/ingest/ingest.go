// Package ingest is the concurrent multi-producer frontend of the tracking
// runtime: it makes one mounted protocol safe to feed from any number of
// goroutines, on every transport.
//
// Every transport behind the runtime seam (internal/runtime) mandates a
// single feeding goroutine — Arrive enforces the paper's
// instant-communication model by running each cascade to quiescence before
// the next element is injected, and that choreography is inherently serial.
// A server ingesting events from many connection-handling goroutines would
// have to funnel everything through one thread and serialize on it.
//
// The Frontend keeps the serial transport contract intact and moves the
// concurrency one layer up, where the paper's protocols are naturally
// batch-friendly:
//
//   - producers stage arrivals into per-site sharded buffers (one lock and
//     one ring per site, padded apart so producers on different sites never
//     share a cache line). Consecutive same-(item, value) arrivals coalesce
//     into runs, so a hot flow occupies one slot no matter how long it gets;
//   - a single drainer goroutine sweeps the shards round-robin and feeds
//     each staged run through Transport.ArriveBatch — the proven closed-form
//     batch fast path, which skip-samples to the next protocol message
//     instead of paying per element;
//   - the buffers are bounded (Options.BufferRuns staged runs per site).
//     When a shard is full the Policy decides: Block applies backpressure to
//     the producer, Drop discards the observation and counts it;
//   - queries run through Query, which excludes the drainer between batch
//     feeds. ArriveBatch returns only after its cascade has quiesced, so a
//     query always sees a consistent post-cascade protocol state — never a
//     half-delivered message sequence.
//
// Per-site arrival order is preserved (each producer's observations at a
// given site are fed FIFO); the interleaving *across* sites depends on the
// producers' schedule, exactly as it would if the producers were the paper's
// k independent streams. Estimates therefore carry the same ε guarantees as
// a serial run, but are not bit-identical to one — the root package's
// equivalence test pins the ε-accuracy and the per-element communication
// profile instead.
package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Policy selects what a full staging buffer does to a producer.
type Policy int

const (
	// Block makes the producer wait until the drainer frees a slot
	// (lossless backpressure; the default).
	Block Policy = iota
	// Drop discards the observation and increments the dropped counter
	// (load shedding; Dropped reports the total).
	Drop
)

// Options configures a Frontend.
type Options struct {
	// BufferRuns is the per-site staging capacity in runs (coalesced
	// same-(item,value) stretches, not elements). 0 means the default 256.
	BufferRuns int
	// Policy selects Block (default) or Drop when a site's buffer is full.
	Policy Policy
}

// DefaultBufferRuns is the per-site staging capacity used when
// Options.BufferRuns is zero.
const DefaultBufferRuns = 256

// Feeder is the serial ingestion seam the Frontend drives — satisfied by
// *runtime.Runtime and by runtime.Transport. Calls are made from the single
// drainer goroutine only, preserving the transports' contract.
type Feeder interface {
	ArriveBatch(site int, item int64, value float64, count int64)
}

// run is one coalesced stretch of identical arrivals.
type run struct {
	item  int64
	value float64
	count int64
}

// shard is one site's staging buffer. The trailing pad keeps neighboring
// shards on separate cache-line pairs, so producers feeding different sites
// do not false-share (x86 prefetches lines in pairs; 128 covers that and
// every common line size).
type shard struct {
	mu       sync.Mutex
	space    sync.Cond // signaled by the drainer when slots free up (Block)
	runs     []run     // ring buffer of staged runs
	head     int       // oldest staged run
	n        int       // staged runs
	enqueued int64     // elements accepted into this shard, ever
	_        [128]byte
}

// Frontend makes one mounted protocol safe for concurrent ingestion and
// querying. Create with New, feed with Observe/ObserveBatch from any number
// of goroutines, synchronize with Flush, read protocol state inside Query,
// and Close when every producer has stopped.
type Frontend struct {
	feed   Feeder
	shards []shard
	policy Policy

	// feedMu excludes queries and batch feeds: the drainer holds it for
	// exactly one ArriveBatch call at a time, so a Query always runs at a
	// quiescent instant between cascades.
	feedMu sync.Mutex

	// ingested counts elements the drainer has fed through (cascade fully
	// quiesced); each shard counts its own accepted elements (enqueued) so
	// producers on different sites share no counter cache line. dropped
	// counts elements discarded under Policy Drop (cold path, so a global
	// atomic is fine).
	ingested int64
	dropped  int64

	progMu   sync.Mutex
	progCond sync.Cond

	// err is the drainer's terminal error (guarded by progMu): the
	// transport failed underneath it — closed out from under the frontend
	// mid-run, most commonly. failed is its lock-free mirror for the
	// producers' hot path. Once terminal, staged and newly observed
	// elements are discarded (counted in dropped, best effort), blocked
	// producers and flushers wake, and Flush/Close return the error
	// instead of waiting for ingestion that can never happen.
	err    error
	failed atomic.Bool

	wake        chan struct{}
	quit        chan struct{}
	drainerDone chan struct{}
	closed      atomic.Bool
}

// New starts a frontend over feed for k sites, launching the drainer
// goroutine. feed must not be used by anyone else until Close returns.
func New(feed Feeder, k int, opt Options) *Frontend {
	if k < 1 {
		panic("ingest: need at least one site")
	}
	if opt.BufferRuns < 0 {
		panic("ingest: negative Options.BufferRuns")
	}
	buf := opt.BufferRuns
	if buf == 0 {
		buf = DefaultBufferRuns
	}
	if opt.Policy != Block && opt.Policy != Drop {
		panic("ingest: unknown Options.Policy")
	}
	f := &Frontend{
		feed:        feed,
		shards:      make([]shard, k),
		policy:      opt.Policy,
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		drainerDone: make(chan struct{}),
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.runs = make([]run, buf)
		sh.space.L = &sh.mu
	}
	f.progCond.L = &f.progMu
	go f.drain()
	return f
}

// Observe stages one element arriving at site. Safe for concurrent use with
// every other Frontend method except Close.
func (f *Frontend) Observe(site int, item int64, value float64) {
	f.put(site, item, value, 1)
}

// ObserveBatch stages count identical elements arriving at site. The whole
// batch occupies one staged run (or extends the newest one), regardless of
// count.
func (f *Frontend) ObserveBatch(site int, item int64, value float64, count int64) {
	f.put(site, item, value, count)
}

func (f *Frontend) put(site int, item int64, value float64, count int64) {
	if count <= 0 {
		return
	}
	if f.closed.Load() {
		panic("ingest: Observe after Close")
	}
	if f.failed.Load() {
		// The transport is gone; nothing staged can ever be fed.
		atomic.AddInt64(&f.dropped, count)
		return
	}
	sh := &f.shards[site]
	sh.mu.Lock()
	// wake is decided at insert time, not entry: a producer that slept in
	// space.Wait can resume to find the drainer took everything and went
	// back to sleep, so its insert is an empty -> non-empty transition even
	// though the shard was full when the producer arrived.
	wake := false
	for {
		if sh.n > 0 {
			tail := &sh.runs[(sh.head+sh.n-1)%len(sh.runs)]
			if tail.item == item && tail.value == value {
				tail.count += count
				break
			}
		}
		if sh.n < len(sh.runs) {
			wake = sh.n == 0
			sh.runs[(sh.head+sh.n)%len(sh.runs)] = run{item: item, value: value, count: count}
			sh.n++
			break
		}
		if f.policy == Drop {
			sh.mu.Unlock()
			atomic.AddInt64(&f.dropped, count)
			return
		}
		sh.space.Wait()
		if f.failed.Load() {
			// fail woke every blocked producer: backpressure would now
			// block forever, so the observation is shed instead.
			sh.mu.Unlock()
			atomic.AddInt64(&f.dropped, count)
			return
		}
	}
	sh.enqueued += count
	sh.mu.Unlock()
	// Nudge the drainer only on the empty -> non-empty transition: staging
	// into a non-empty shard extends work the drainer is guaranteed to see,
	// because it re-sweeps every shard after any sweep that fed something
	// and only sleeps after a sweep that found all shards empty.
	if wake {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}

// take empties site's shard into dst, freeing every slot for producers.
func (f *Frontend) take(site int, dst []run) []run {
	sh := &f.shards[site]
	sh.mu.Lock()
	for ; sh.n > 0; sh.n-- {
		dst = append(dst, sh.runs[sh.head])
		sh.head = (sh.head + 1) % len(sh.runs)
	}
	sh.head = 0
	sh.space.Broadcast()
	sh.mu.Unlock()
	return dst
}

// fail records the drainer's terminal error and wakes everyone who could
// otherwise wait forever: flushers (progCond) and producers blocked on
// backpressure (every shard's space cond).
func (f *Frontend) fail(err error) {
	f.progMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.progMu.Unlock()
	f.failed.Store(true)
	f.progCond.Broadcast()
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.space.Broadcast()
		sh.mu.Unlock()
	}
}

// feedOne feeds one staged run through the transport, converting a
// transport panic — Arrive on a transport that was closed out from under
// the frontend mid-run, or the coordinator failure a fabric raises — into
// the terminal error (wrapping the panic value when it is an error)
// instead of crashing the process from a background goroutine (or, before
// the runtime grew its use-after-close guard, deadlocking on in-flight
// accounting no loop would ever retire).
func (f *Frontend) feedOne(site int, r run) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			err, ok := p.(error)
			if !ok {
				err = fmt.Errorf("%v", p)
			}
			f.fail(fmt.Errorf("ingest: transport failed underneath the drainer: %w", err))
		}
	}()
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	f.feed.ArriveBatch(site, r.item, r.value, r.count)
	return true
}

// drain is the single feeding goroutine: it sweeps the shards round-robin,
// feeding staged runs through the transport's batch fast path, and sleeps
// when a full sweep finds nothing. A terminal transport failure discards
// the staged residue (counted in dropped) and exits; Flush and Close
// surface the error.
func (f *Frontend) drain() {
	defer close(f.drainerDone)
	scratch := make([]run, 0, 64)
	sweep := func() (fed, ok bool) {
		for site := range f.shards {
			scratch = f.take(site, scratch[:0])
			for j, r := range scratch {
				if !f.feedOne(site, r) {
					// The failed run and everything behind it in scratch
					// were already removed from the shards, so discard()
					// cannot see them: shed them here, keeping the
					// produced == Arrivals + Dropped reconciliation exact.
					for _, rest := range scratch[j:] {
						atomic.AddInt64(&f.dropped, rest.count)
					}
					return fed, false
				}
				f.progMu.Lock()
				f.ingested += r.count
				f.progMu.Unlock()
				f.progCond.Broadcast()
				fed = true
			}
		}
		return fed, true
	}
	discard := func() {
		for site := range f.shards {
			scratch = f.take(site, scratch[:0])
			for _, r := range scratch {
				atomic.AddInt64(&f.dropped, r.count)
			}
		}
	}
	for {
		fed, ok := sweep()
		if !ok {
			discard()
			return
		}
		if fed {
			continue
		}
		select {
		case <-f.wake:
		case <-f.quit:
			// Close has been called: no new producers, so one sweep finding
			// nothing means the buffers are empty for good.
			for {
				fed, ok := sweep()
				if !ok {
					discard()
					return
				}
				if !fed {
					return
				}
			}
		}
	}
}

// Flush blocks until every element staged by Observe/ObserveBatch calls
// that returned before Flush was called has been fed through the transport
// and its cascade has quiesced. Elements staged concurrently with Flush may
// or may not be covered. If the transport failed underneath the drainer,
// Flush returns its terminal error immediately instead of waiting for
// ingestion that can never happen.
func (f *Frontend) Flush() error {
	var target int64
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		target += sh.enqueued
		sh.mu.Unlock()
	}
	f.progMu.Lock()
	defer f.progMu.Unlock()
	for f.ingested < target && f.err == nil {
		f.progCond.Wait()
	}
	return f.err
}

// Err returns the drainer's terminal error, nil while the frontend is
// healthy.
func (f *Frontend) Err() error {
	f.progMu.Lock()
	defer f.progMu.Unlock()
	return f.err
}

// Query runs fn at a quiescent instant: the drainer is excluded between
// batch feeds, and each feed returns only after its message cascade has
// fully quiesced, so fn sees a consistent post-cascade protocol state. fn
// sees everything ingested up to some recent instant — call Flush first for
// an everything-staged-so-far barrier. Queries serialize with each other.
func (f *Frontend) Query(fn func()) {
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	fn()
}

// Dropped reports the total elements discarded under Policy Drop.
func (f *Frontend) Dropped() int64 { return atomic.LoadInt64(&f.dropped) }

// Close drains everything staged and stops the drainer goroutine. No
// Observe/ObserveBatch may be in flight or arrive afterwards (Close is the
// producers-have-stopped barrier); queries remain valid after Close. Close
// does not touch the underlying transport — the owner closes that
// separately. It returns the drainer's terminal error, if the transport
// failed underneath it mid-run.
func (f *Frontend) Close() error {
	if f.closed.Swap(true) {
		<-f.drainerDone
		return f.Err()
	}
	close(f.quit)
	<-f.drainerDone
	return f.Err()
}

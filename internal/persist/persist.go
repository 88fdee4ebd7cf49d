// Package persist makes a coordinator restartable: it durably logs every
// coordinator-bound protocol frame before the coordinator applies it
// (write-ahead logging) and periodically compacts the log into a snapshot
// of the coordinator's state, so a crashed coordinator process rebuilds
// exactly the state it lost by loading the latest snapshot and replaying
// the log tail.
//
// The design leans on the same property that powers the distributed mode's
// site Resync (PR 5): the paper's protocols are round-structured with
// absolute-state messages, and all randomness lives site-side, so the
// coordinator's state is a pure deterministic function of the sequence of
// (from, message) deliveries. Logging that sequence — and nothing else —
// is therefore a complete recovery story, and replay is idempotent in the
// sense that matters: the rebuilt coordinator is bit-identical to the one
// that crashed, at the instant of the last logged frame.
//
// Three pieces:
//
//   - Store is the durability seam: an append-only write-ahead log plus an
//     atomically installed snapshot blob. Mem keeps both in memory (tests,
//     in-process crash drills); Disk keeps them in a directory with
//     generation-numbered files and atomic snapshot installation.
//   - Logger hangs off a transport's coordinator-delivery hook: Log appends
//     each frame to the WAL before the coordinator applies it, and every
//     Every frames serializes the coordinator's state (proto.Snapshotter)
//     into a fresh snapshot, truncating the log.
//   - Recover loads a store into a freshly constructed coordinator:
//     snapshot records stream through RestoreState, then the WAL tail
//     replays through Receive with sends suppressed (the hosting transport
//     re-counts or carries over the cost ledger as appropriate). A torn
//     final record — the crash landed mid-write — is detected and dropped;
//     recovery stops at the last complete frame.
//
// Coordinators that don't implement proto.Snapshotter (the deterministic
// baselines) degrade gracefully: the Logger never snapshots, and Recover
// replays the full log from an empty coordinator.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"disttrack/internal/proto"
	"disttrack/internal/wire"
)

// Store is the pluggable durability backend: one append-only write-ahead
// log of wire frames plus at most one snapshot blob. WriteSnapshot
// atomically replaces the snapshot AND empties the log — the two are one
// recovery point, never observed half-updated. Load returns the current
// snapshot (nil if none) and the log bytes. Sync flushes buffered state to
// stable storage (a no-op for memory stores). Implementations are not safe
// for concurrent use; the host serializes every write (the fabric's
// coordinator mutex in-process, tcp.Server's event loop in distributed
// mode). The byte slices passed to AppendWAL and WriteSnapshot are valid
// only for the duration of the call (the Logger reuses its build buffer);
// implementations copy what they retain.
type Store interface {
	// AppendWAL appends one length-prefixed frame to the write-ahead log.
	AppendWAL(frame []byte) error

	// WriteSnapshot atomically installs snap as the recovery baseline and
	// starts a fresh, empty write-ahead log.
	WriteSnapshot(snap []byte) error

	// Load returns the installed snapshot (nil if none) and the write-ahead
	// log contents. The returned slices are the caller's to keep.
	Load() (snap, wal []byte, err error)

	// Sync flushes buffered state to stable storage.
	Sync() error

	// Close releases the store's resources. The store must not be used
	// afterwards; the underlying state remains loadable by reopening it.
	Close() error
}

// DefaultEvery is the snapshot cadence when the host doesn't choose one:
// a snapshot every 4096 logged frames keeps replay short while amortizing
// serialization to noise (coordinator-bound frames are already a
// vanishing fraction of arrivals in these protocols).
const DefaultEvery = 4096

// Logger write-ahead-logs coordinator-bound frames into a Store and
// periodically compacts the log into a snapshot. One Logger serves one
// coordinator; calls are serialized with the coordinator's own delivery
// (under the fabric's coordinator mutex, or on tcp.Server's event loop),
// never concurrent.
type Logger struct {
	store Store
	coord proto.Coordinator
	snap  proto.Snapshotter // nil when coord can't snapshot (WAL-only mode)
	every int64
	since int64 // frames appended since the last snapshot
	// count is the number of snapshots taken over the store's lifetime
	// (seeded on resume). Atomic: Snapshots() is read from serving/query
	// goroutines while the coordinator's host is mid-Snapshot.
	count atomic.Int64
	// meta, when set, supplies the host's cost ledger for snapshot headers
	// (the distributed server resumes its Resync bookkeeping from it).
	meta func() wire.SnapMeta
	buf  []byte // reused frame/snapshot build buffer
}

// NewLogger builds a logger for coord over store. every is the snapshot
// cadence in logged frames (0 means DefaultEvery); meta, if non-nil,
// supplies the host's ledger for each snapshot's header. If coord does not
// implement proto.Snapshotter the logger runs in WAL-only mode: frames are
// still durably logged, the log just never compacts.
func NewLogger(store Store, coord proto.Coordinator, every int64, meta func() wire.SnapMeta) *Logger {
	if every <= 0 {
		every = DefaultEvery
	}
	l := &Logger{store: store, coord: coord, every: every, meta: meta}
	l.snap, _ = coord.(proto.Snapshotter)
	return l
}

// SeedSnapshots primes the lifetime snapshot counter after a resume, so
// Snapshots() continues the pre-crash count.
func (l *Logger) SeedSnapshots(n int64) { l.count.Store(n) }

// Snapshots returns the number of snapshots taken over the store's
// lifetime, including any taken before a resume. Safe to call from any
// goroutine.
func (l *Logger) Snapshots() int64 { return l.count.Load() }

// Log durably appends one coordinator-bound frame, snapshotting first when
// the cadence is due. It must be called BEFORE the coordinator applies the
// frame: the snapshot then captures exactly the frames logged before this
// one, and the fresh log opens with this frame — no delivery is ever in
// neither place.
func (l *Logger) Log(from int, m proto.Message) error {
	if l.since >= l.every && l.snap != nil {
		if err := l.Snapshot(); err != nil {
			return err
		}
	}
	frame, err := wire.AppendFrame(l.buf[:0], wire.Logged{From: from, Msg: m})
	l.buf = frame
	if err != nil {
		return fmt.Errorf("persist: encode frame: %w", err)
	}
	if err := l.store.AppendWAL(frame); err != nil {
		return fmt.Errorf("persist: append WAL: %w", err)
	}
	l.since++
	return nil
}

// Snapshot serializes the coordinator's state into the store now,
// truncating the write-ahead log. It is a no-op (without error) when the
// coordinator cannot snapshot. The host calls it for graceful shutdown;
// Log calls it on cadence.
func (l *Logger) Snapshot() error {
	if l.snap == nil {
		return nil
	}
	var meta wire.SnapMeta
	if l.meta != nil {
		meta = l.meta()
	}
	meta.Snapshots = l.count.Load() + 1
	blob, err := wire.AppendFrame(l.buf[:0], meta)
	if err != nil {
		return fmt.Errorf("persist: encode snapshot header: %w", err)
	}
	l.snap.SnapshotState(func(from int, m proto.Message) {
		if err != nil {
			return
		}
		blob, err = wire.AppendFrame(blob, wire.Logged{From: from, Msg: m})
	})
	l.buf = blob[:0]
	if err != nil {
		return fmt.Errorf("persist: encode snapshot record: %w", err)
	}
	if err := l.store.WriteSnapshot(blob); err != nil {
		return fmt.Errorf("persist: install snapshot: %w", err)
	}
	l.count.Add(1)
	l.since = 0
	return nil
}

// Sync flushes the store to stable storage.
func (l *Logger) Sync() error { return l.store.Sync() }

// Result reports what Recover rebuilt.
type Result struct {
	// Meta is the snapshot header (zero when the store held no snapshot).
	Meta wire.SnapMeta
	// HasSnapshot reports whether a snapshot was restored.
	HasSnapshot bool
	// SnapshotRecords is the number of state records restored from it.
	SnapshotRecords int64
	// ReplayedFrames is the number of complete WAL frames replayed.
	ReplayedFrames int64
	// TornTail reports that the log ended mid-record (the crash landed
	// mid-write); the partial record was dropped and recovery stopped at
	// the last complete frame.
	TornTail bool
}

// Recover rebuilds coord from store: the snapshot's records stream through
// coord's RestoreState, then the write-ahead log tail replays through
// replay in logged order. replay may be nil, in which case frames feed
// coord.Receive with sends and broadcasts suppressed (hosts that must
// re-count the suppressed traffic pass their own replay). coord must be
// freshly constructed — exactly as at the start of the crashed run.
//
// A log ending mid-record is the expected shape of a crash and is not an
// error: recovery stops at the last complete frame and reports TornTail.
// A corrupt snapshot IS an error — snapshots are installed atomically, so
// a damaged one means real corruption, and replaying the log over a
// half-restored state would silently diverge.
func Recover(store Store, coord proto.Coordinator, replay func(from int, m proto.Message)) (Result, error) {
	var res Result
	snap, wal, err := store.Load()
	if err != nil {
		return res, fmt.Errorf("persist: load store: %w", err)
	}
	if replay == nil {
		noSend := func(int, proto.Message) {}
		noCast := func(proto.Message) {}
		replay = func(from int, m proto.Message) { coord.Receive(from, m, noSend, noCast) }
	}
	if len(snap) > 0 {
		rs, ok := coord.(proto.Snapshotter)
		if !ok {
			return res, fmt.Errorf("persist: store holds a snapshot but %T cannot restore one", coord)
		}
		rd := bytes.NewReader(snap)
		var buf []byte
		first := true
		for {
			m, b, err := wire.ReadFrame(rd, buf)
			buf = b
			if err == io.EOF {
				break
			}
			if err != nil {
				return res, fmt.Errorf("persist: corrupt snapshot: %w", err)
			}
			if first {
				meta, ok := m.(wire.SnapMeta)
				if !ok {
					return res, fmt.Errorf("persist: snapshot opens with %T, want header", m)
				}
				res.Meta, res.HasSnapshot = meta, true
				first = false
				continue
			}
			rec, ok := m.(wire.Logged)
			if !ok {
				return res, fmt.Errorf("persist: snapshot record is %T, want logged record", m)
			}
			rs.RestoreState(rec.From, rec.Msg)
			res.SnapshotRecords++
		}
		if first && len(snap) > 0 {
			return res, errors.New("persist: snapshot holds no header")
		}
	}
	rd := bytes.NewReader(wal)
	var buf []byte
	for {
		m, b, err := wire.ReadFrame(rd, buf)
		buf = b
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			// The crash landed mid-write: everything before this point is
			// complete and applied; the partial record never happened.
			res.TornTail = true
			break
		}
		if err != nil {
			return res, fmt.Errorf("persist: corrupt WAL frame %d: %w", res.ReplayedFrames, err)
		}
		rec, ok := m.(wire.Logged)
		if !ok {
			return res, fmt.Errorf("persist: WAL frame %d is %T, want logged record", res.ReplayedFrames, m)
		}
		replay(rec.From, rec.Msg)
		res.ReplayedFrames++
	}
	return res, nil
}

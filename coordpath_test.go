package disttrack

// The coordinator path on the concurrent transports: a site->coordinator
// message is applied on the goroutine that delivers it, so a message-bearing
// cascade costs no allocation the sequential transport does not also pay,
// and a panic on that path (a failed write-ahead append) surfaces to the
// caller as an error instead of killing the process or wedging the fabric.

import (
	"errors"
	"testing"
	"time"

	"disttrack/internal/persist"
)

// TestMessageCascadeAllocs pins the per-message cost of the concurrent
// transports: over a stretch where every arrival reports (p = 1) they must
// allocate no more per arrival than TransportSequential. The stretch keeps
// every site's local count below 64, so the protocol's own messages carry
// small values that box without allocating and any allocation left is the
// transport's.
func TestMessageCascadeAllocs(t *testing.T) {
	const k = 4
	allocs := func(tr Transport) float64 {
		ct := NewCountTracker(Options{K: k, Epsilon: 0.01, Transport: tr, Seed: 3})
		defer ct.Close()
		i := 0
		for ; i < 16*k; i++ {
			ct.Observe(i % k)
		}
		return testing.AllocsPerRun(150, func() {
			ct.Observe(i % k)
			i++
		})
	}
	seq := allocs(TransportSequential)
	for _, tr := range []Transport{TransportGoroutine, TransportTCP} {
		if got := allocs(tr); got > seq {
			t.Errorf("%v: %.2f allocs per reporting arrival, sequential %.2f", tr, got, seq)
		}
	}
}

var errWALFull = errors.New("wal device full")

// failingStore is a write-ahead store whose appends fail after ok frames.
type failingStore struct {
	*persist.Mem
	ok int
}

func (s *failingStore) AppendWAL(frame []byte) error {
	if s.ok == 0 {
		return errWALFull
	}
	s.ok--
	return s.Mem.AppendWAL(frame)
}

// TestCoordinatorWALFailureSurfaces: a write-ahead append that fails
// mid-run under ConcurrentIngest leaves the tracker failed, not wedged —
// Flush and Close return an error wrapping the store's, promptly, on every
// transport.
func TestCoordinatorWALFailureSurfaces(t *testing.T) {
	const k = 4
	for _, tr := range []Transport{TransportSequential, TransportGoroutine, TransportTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			ct := NewCountTracker(Options{K: k, Epsilon: 0.1, Transport: tr, ConcurrentIngest: true,
				Persist: &failingStore{Mem: persist.NewMem(), ok: 50}})
			done := make(chan [2]error, 1)
			go func() {
				for i := 0; i < 5000; i++ {
					ct.Observe(i % k)
				}
				flushErr := ct.Flush()
				done <- [2]error{flushErr, ct.Close()}
			}()
			select {
			case errs := <-done:
				for i, err := range errs {
					if !errors.Is(err, errWALFull) {
						t.Errorf("%s returned %v, want an error wrapping %v", [2]string{"Flush", "Close"}[i], err, errWALFull)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Flush/Close still blocked 5 s after the write-ahead log failed")
			}
		})
	}
}

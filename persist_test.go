package disttrack

// The durability suite: a tracker running with Options.Persist must
// survive a coordinator crash bit-exactly. The drill kills the
// coordinator mid-stream, rebuilds a fresh one from the store (snapshot
// restore + write-ahead-log replay), and finishes the run — every query
// answer and the cost ledger must match an uninterrupted baseline run
// exactly, on every transport. A WAL whose final record was torn by the
// crash must recover to the last complete frame.

import (
	"os"
	"path/filepath"
	"testing"

	"disttrack/internal/count"
	"disttrack/internal/persist"
	"disttrack/internal/stats"
	"disttrack/internal/workload"
)

const (
	durK    = 4
	durEps  = 0.1
	durN    = 4000
	durSeed = 7
)

// stripDurability zeroes the counters that legitimately differ between a
// baseline run and a crash-restarted one, leaving everything the recovery
// must preserve exactly: communication, arrivals, liveness. The durability
// counters differ because the drill snapshots and replays while the
// baseline never does; the space high-water marks differ because the
// drill's quiescent probe at the crash instant samples a transient the
// baseline's probe cadence can miss.
func stripDurability(m Metrics) Metrics {
	m.Snapshots, m.ReplayedFrames, m.Resyncs = 0, 0, 0
	m.MaxSiteSpace, m.MaxCoordSpace = 0, 0
	return m
}

// crashRun drives feed over a tracker in two halves with a coordinator
// crash-restart between them when crash is set, collecting query answers
// along the way.
type durTracker interface {
	CrashRestartCoordinator() error
	Metrics() Metrics
	Close() error
}

func crashRun(t *testing.T, tr durTracker, crash bool, feed func(lo, hi int)) {
	t.Helper()
	feed(0, durN/2)
	if crash {
		if err := tr.CrashRestartCoordinator(); err != nil {
			t.Fatalf("crash-restart: %v", err)
		}
	}
	feed(durN/2, durN)
}

func TestCoordinatorCrashRestartResume(t *testing.T) {
	transports := []Transport{TransportSequential, TransportGoroutine, TransportTCP}
	type result struct {
		answers []float64
		metrics Metrics
	}
	problems := []struct {
		name string
		run  func(tr Transport, crash bool) result
	}{
		{"count", func(trp Transport, crash bool) result {
			tr := NewCountTracker(Options{K: durK, Epsilon: durEps, Seed: durSeed,
				Transport: trp, Persist: NewMemStore(), SnapshotEvery: 32})
			defer tr.Close()
			var res result
			crashRun(t, tr, crash, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tr.Observe(i % durK)
					if i%500 == 0 {
						res.answers = append(res.answers, tr.Estimate())
					}
				}
			})
			res.answers = append(res.answers, tr.Estimate())
			res.metrics = tr.Metrics()
			return res
		}},
		{"count-robust", func(trp Transport, crash bool) result {
			// The robust wrapper layers seeded noise (site report noise,
			// coordinator release gate + release noise) over the randomized
			// tracker; recovery must restore every RNG stream and the gate
			// state bit-exactly or the released answers drift.
			tr := NewCountTracker(Options{K: durK, Epsilon: durEps, Seed: durSeed,
				Robust: true, Transport: trp, Persist: NewMemStore(), SnapshotEvery: 32})
			defer tr.Close()
			var res result
			crashRun(t, tr, crash, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tr.Observe(i % durK)
					if i%500 == 0 {
						res.answers = append(res.answers, tr.Estimate())
					}
				}
			})
			res.answers = append(res.answers, tr.Estimate())
			res.metrics = tr.Metrics()
			return res
		}},
		{"freq", func(trp Transport, crash bool) result {
			tr := NewFrequencyTracker(Options{K: durK, Epsilon: durEps, Seed: durSeed,
				Transport: trp, Persist: NewMemStore(), SnapshotEvery: 32})
			defer tr.Close()
			items := workload.ZipfItems(100, 1.2, stats.New(31))
			var res result
			crashRun(t, tr, crash, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tr.Observe(i%durK, items(i))
					if i%500 == 0 {
						res.answers = append(res.answers, tr.Estimate(0))
					}
				}
			})
			for _, j := range []int64{0, 3, 17, 99} {
				res.answers = append(res.answers, tr.Estimate(j))
			}
			res.metrics = tr.Metrics()
			return res
		}},
		{"rank", func(trp Transport, crash bool) result {
			tr := NewRankTracker(Options{K: durK, Epsilon: durEps, Seed: durSeed,
				Transport: trp, Persist: NewMemStore(), SnapshotEvery: 32})
			defer tr.Close()
			values := workload.PermValues(durN, stats.New(13))
			var res result
			crashRun(t, tr, crash, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tr.Observe(i%durK, values(i))
					if i%500 == 0 {
						res.answers = append(res.answers, tr.Rank(durN/2))
					}
				}
			})
			for _, q := range []float64{0.25, 0.5, 0.75} {
				res.answers = append(res.answers, tr.Rank(q*durN))
			}
			res.metrics = tr.Metrics()
			// The rank coordinator only ever gains state, so its high-water
			// mark is its final space: a space ledger that recovery did not
			// restore reads low here for the rest of the run. (The
			// comparison below strips MaxCoordSpace for the trackers whose
			// space is not monotone.) The quantile runs over the restored
			// chunks' rebuilt query index.
			res.answers = append(res.answers, tr.Quantile(0.5, 0, durN), float64(res.metrics.MaxCoordSpace))
			return res
		}},
	}
	for _, p := range problems {
		for _, trp := range transports {
			t.Run(p.name+"/"+trp.String(), func(t *testing.T) {
				base := p.run(trp, false)
				crashed := p.run(trp, true)
				if len(base.answers) != len(crashed.answers) {
					t.Fatalf("answer count: baseline %d, crashed %d",
						len(base.answers), len(crashed.answers))
				}
				for i := range base.answers {
					if base.answers[i] != crashed.answers[i] {
						t.Fatalf("answer %d diverged after crash-restart: baseline %v, crashed %v",
							i, base.answers[i], crashed.answers[i])
					}
				}
				if got, want := stripDurability(crashed.metrics), stripDurability(base.metrics); got != want {
					t.Fatalf("metrics diverged after crash-restart:\nbaseline %+v\ncrashed  %+v", want, got)
				}
				if crashed.metrics.Snapshots < 1 {
					t.Fatalf("crashed run took %d snapshots, want >= 1 (cadence 32 over %d arrivals)",
						crashed.metrics.Snapshots, durN)
				}
			})
		}
	}
}

// TestCrashRestartAllConfigs sweeps the remaining tracker configurations —
// deterministic and sampling algorithms, boosted (Copies > 1) randomized —
// through the same bit-exact crash-restart contract on the sequential
// transport.
func TestCrashRestartAllConfigs(t *testing.T) {
	type cfg struct {
		name string
		opt  Options
	}
	mk := func(name string, alg Algorithm, copies int) cfg {
		return cfg{name, Options{K: durK, Epsilon: durEps, Seed: durSeed,
			Algorithm: alg, Copies: copies, Persist: NewMemStore(), SnapshotEvery: 16}}
	}
	cfgs := []cfg{
		mk("deterministic", AlgorithmDeterministic, 0),
		mk("sampling", AlgorithmSampling, 0),
		mk("boosted", AlgorithmRandomized, 3),
	}
	for _, c := range cfgs {
		opt := c.opt // each tracker needs its own store
		t.Run("count/"+c.name, func(t *testing.T) {
			run := func(crash bool) (ans []float64, m Metrics) {
				o := opt
				o.Persist = NewMemStore()
				tr := NewCountTracker(o)
				defer tr.Close()
				crashRun(t, tr, crash, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						tr.Observe(i % durK)
					}
				})
				return []float64{tr.Estimate()}, tr.Metrics()
			}
			baseA, baseM := run(false)
			gotA, gotM := run(true)
			if baseA[0] != gotA[0] {
				t.Fatalf("estimate diverged: baseline %v, crashed %v", baseA[0], gotA[0])
			}
			if stripDurability(gotM) != stripDurability(baseM) {
				t.Fatalf("metrics diverged:\nbaseline %+v\ncrashed  %+v", baseM, gotM)
			}
		})
		t.Run("freq/"+c.name, func(t *testing.T) {
			run := func(crash bool) (ans []float64, m Metrics) {
				o := opt
				o.Persist = NewMemStore()
				tr := NewFrequencyTracker(o)
				defer tr.Close()
				items := workload.ZipfItems(100, 1.2, stats.New(31))
				crashRun(t, tr, crash, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						tr.Observe(i%durK, items(i))
					}
				})
				return []float64{tr.Estimate(0), tr.Estimate(7)}, tr.Metrics()
			}
			baseA, baseM := run(false)
			gotA, gotM := run(true)
			for i := range baseA {
				if baseA[i] != gotA[i] {
					t.Fatalf("estimate %d diverged: baseline %v, crashed %v", i, baseA[i], gotA[i])
				}
			}
			if stripDurability(gotM) != stripDurability(baseM) {
				t.Fatalf("metrics diverged:\nbaseline %+v\ncrashed  %+v", baseM, gotM)
			}
		})
		t.Run("rank/"+c.name, func(t *testing.T) {
			run := func(crash bool) (ans []float64, m Metrics) {
				o := opt
				o.Persist = NewMemStore()
				tr := NewRankTracker(o)
				defer tr.Close()
				values := workload.PermValues(durN, stats.New(13))
				crashRun(t, tr, crash, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						tr.Observe(i%durK, values(i))
					}
				})
				return []float64{tr.Rank(durN / 4), tr.Rank(durN / 2)}, tr.Metrics()
			}
			baseA, baseM := run(false)
			gotA, gotM := run(true)
			for i := range baseA {
				if baseA[i] != gotA[i] {
					t.Fatalf("rank %d diverged: baseline %v, crashed %v", i, baseA[i], gotA[i])
				}
			}
			if stripDurability(gotM) != stripDurability(baseM) {
				t.Fatalf("metrics diverged:\nbaseline %+v\ncrashed  %+v", baseM, gotM)
			}
		})
	}
}

// TestDiskStoreTornTailRecovery crashes "mid-write": the WAL's final
// record is truncated, and recovery must stop cleanly at the last
// complete frame instead of failing. The deterministic count coordinator
// cannot snapshot, so the store runs WAL-only and every logged frame is
// still in the log at the end — the frame arithmetic is exact.
func TestDiskStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewCountTracker(Options{K: durK, Epsilon: durEps, Seed: durSeed,
		Algorithm: AlgorithmDeterministic, Persist: store})
	for i := 0; i < durN; i++ {
		tr.Observe(i % durK)
	}
	want := tr.Estimate()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// An intact store first: full replay, bit-identical estimate.
	intact := count.NewDetCoordinator(durK, durEps)
	res, err := persist.Recover(store, intact, nil)
	if err != nil {
		t.Fatalf("intact recover: %v", err)
	}
	if res.HasSnapshot {
		t.Fatal("deterministic coordinator cannot snapshot, but the store holds one")
	}
	if res.TornTail {
		t.Fatal("intact WAL reported a torn tail")
	}
	if res.ReplayedFrames == 0 {
		t.Fatal("intact recover replayed 0 frames")
	}
	if got := intact.Estimate(); got != want {
		t.Fatalf("recovered estimate %v, want %v", got, want)
	}

	// Tear the tail: drop the WAL's last 3 bytes, as a crash mid-append
	// would. Recovery must succeed with exactly one frame lost.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files: %v (err %v)", wals, err)
	}
	info, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	torn := count.NewDetCoordinator(durK, durEps)
	tornStore, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tornStore.Close()
	tres, err := persist.Recover(tornStore, torn, nil)
	if err != nil {
		t.Fatalf("torn recover: %v", err)
	}
	if !tres.TornTail {
		t.Fatal("truncated WAL not reported as torn")
	}
	if tres.ReplayedFrames != res.ReplayedFrames-1 {
		t.Fatalf("torn recover replayed %d frames, want %d (intact %d minus the torn one)",
			tres.ReplayedFrames, res.ReplayedFrames-1, res.ReplayedFrames)
	}
}

func TestPersistOptionValidation(t *testing.T) {
	mustPanic := func(name string, opt Options) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		NewCountTracker(opt)
	}
	mustPanic("negative SnapshotEvery",
		Options{K: 2, Epsilon: 0.1, Persist: NewMemStore(), SnapshotEvery: -1})
	mustPanic("SnapshotEvery without Persist",
		Options{K: 2, Epsilon: 0.1, SnapshotEvery: 64})

	// A store path that is a regular file must surface as an error, not a
	// panic.
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(f); err == nil {
		t.Fatal("OpenDiskStore on a regular file succeeded")
	}
}

func TestCrashRestartRequiresPersist(t *testing.T) {
	tr := NewCountTracker(Options{K: 2, Epsilon: 0.1})
	defer tr.Close()
	tr.Observe(0)
	if err := tr.CrashRestartCoordinator(); err == nil {
		t.Fatal("crash-restart without Options.Persist succeeded")
	}

	ci := NewCountTracker(Options{K: 2, Epsilon: 0.1, Transport: TransportGoroutine,
		ConcurrentIngest: true, Persist: NewMemStore()})
	defer ci.Close()
	ci.Observe(0)
	if err := ci.CrashRestartCoordinator(); err == nil {
		t.Fatal("crash-restart under ConcurrentIngest succeeded")
	}
}

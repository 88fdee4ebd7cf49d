package tcp_test

import (
	"strings"
	"testing"
	"time"

	"disttrack/internal/count"
	"disttrack/internal/persist"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/stats"
	"disttrack/internal/wire"
)

// awaitAccepting returns once Serve is handshaking connections on addr: a
// silent dial is hung up on when its handshake deadline passes.
func awaitAccepting(t *testing.T, addr string) {
	t.Helper()
	awaitHangup(t, dialRaw(t, addr))
}

// TestInspectDuringAssembly pins that Inspect does not wait for a loop
// that has no run to inspect: while the server still waits for its sites,
// Inspect reports false at once, so the serving surface answers 503 and
// its health probes stay up.
func TestInspectDuringAssembly(t *testing.T) {
	cfg := count.Config{K: 2, Eps: 0.1}
	ln := listen(t, "127.0.0.1:0")
	srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: 2, HandshakeTimeout: 50 * time.Millisecond}
	res := serveAsync(srv, ln)
	awaitAccepting(t, ln.Addr().String())

	ran := make(chan bool, 1)
	go func() { ran <- srv.Inspect(func(runtime.Metrics) {}) }()
	select {
	case ok := <-ran:
		if ok {
			t.Error("Inspect ran while the server was still assembling")
		}
	case <-time.After(time.Second):
		t.Error("Inspect blocked while the server was assembling")
	}
	ln.Close() // a failed listener ends assembly
	awaitServe(t, res, 5*time.Second)
}

// TestStopDuringAssembly pins that Shutdown and Kill work before every site
// has dialed: Serve returns promptly, and a graceful stop seals the state
// it recovered (here a store holding only a write-ahead log) while a kill
// leaves the log as it was.
func TestStopDuringAssembly(t *testing.T) {
	const k = 2
	cfg := count.Config{K: k, Eps: 0.1}
	for _, tc := range []struct {
		name   string
		stop   func(*tcp.Server) bool
		want   error
		sealed bool
	}{
		{"shutdown", (*tcp.Server).Shutdown, tcp.ErrShutdown, true},
		{"kill", (*tcp.Server).Kill, tcp.ErrKilled, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := persist.NewMem()
			lg := persist.NewLogger(store, count.NewCoordinator(cfg), 0, nil)
			if err := lg.Log(0, wire.Progress{Arrivals: 100}); err != nil {
				t.Fatal(err)
			}
			ln := listen(t, "127.0.0.1:0")
			addr := ln.Addr().String()
			srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, Persist: store, Resume: true,
				HandshakeTimeout: 50 * time.Millisecond}
			res := serveAsync(srv, ln)
			awaitAccepting(t, addr)
			sc, err := tcp.DialSite(addr, 0, k, 0, count.NewSite(cfg, stats.New(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Abort()

			if !tc.stop(srv) {
				t.Fatal("the stop was refused while assembling")
			}
			r := awaitServe(t, res, 2*time.Second)
			if r.err != tc.want {
				t.Fatalf("Serve = %v, want %v", r.err, tc.want)
			}
			if r.m.Arrivals != 100 {
				t.Errorf("arrivals = %d, want the recovered 100", r.m.Arrivals)
			}
			snap, _, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			if sealed := snap != nil && store.WALSize() == 0; sealed != tc.sealed {
				t.Errorf("store sealed = %v (WAL %d bytes), want %v", sealed, store.WALSize(), tc.sealed)
			}
		})
	}
}

// TestResumeRejectsForeignStore pins that a store written by a deployment
// with more sites fails the resume instead of feeding the coordinator a
// frame from a site it does not have. Deterministic coordinators never
// snapshot, so no snapshot fingerprint can catch the mismatch first.
func TestResumeRejectsForeignStore(t *testing.T) {
	store := persist.NewMem()
	lg := persist.NewLogger(store, count.NewDetCoordinator(8, 0.1), 0, nil)
	if err := lg.Log(7, count.DetReportMsg{N: 5}); err != nil {
		t.Fatal(err)
	}
	srv := &tcp.Server{Coord: count.NewDetCoordinator(2, 0.1), K: 2, Persist: store, Resume: true}
	_, err := srv.Serve(listen(t, "127.0.0.1:0"))
	if err == nil || !strings.Contains(err.Error(), "site 7") {
		t.Fatalf("Serve = %v, want a resume error naming site 7", err)
	}
}

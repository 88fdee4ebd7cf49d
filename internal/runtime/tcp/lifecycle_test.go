package tcp_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"disttrack/internal/count"
	"disttrack/internal/persist"
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/runtime/tcp"
	"disttrack/internal/stats"
	"disttrack/internal/wire"
)

// The tests in this file pin the Server's lifecycle across its phases —
// assembly, the run, the post-run linger, and coordinator restarts from a
// store — on loopback with an in-memory store.

type serveResult struct {
	m   runtime.Metrics
	err error
}

func serveAsync(srv *tcp.Server, ln net.Listener) <-chan serveResult {
	res := make(chan serveResult, 1)
	go func() {
		m, err := srv.Serve(ln)
		res <- serveResult{m, err}
	}()
	return res
}

func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// awaitServe waits for Serve to return, failing the test after limit.
func awaitServe(t *testing.T, res <-chan serveResult, limit time.Duration) serveResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(limit):
		t.Fatalf("Serve still running after %v", limit)
		return serveResult{}
	}
}

// dialRaw connects and writes msgs as frames, bypassing SiteConn.
func dialRaw(t *testing.T, addr string, msgs ...proto.Message) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var frame []byte
	for _, m := range msgs {
		if frame, err = wire.AppendFrame(frame, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return conn
}

// awaitHangup blocks until the server closes conn.
func awaitHangup(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [64]byte
	for {
		_, err := conn.Read(buf[:])
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("the server never hung up")
		}
		return
	}
}

// awaitArrivals polls Inspect until the server's ledger shows at least want
// arrivals.
func awaitArrivals(t *testing.T, srv *tcp.Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got int64
		if srv.Inspect(func(m runtime.Metrics) { got = m.Arrivals }) && got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d arrivals (last saw %d)", want, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hardenSite makes a site ride out a coordinator restart.
func hardenSite(sc *tcp.SiteConn) {
	sc.AutoReconnect = true
	sc.RedialWait, sc.RedialMaxWait, sc.RedialAttempts = 10*time.Millisecond, 100*time.Millisecond, 200
}

// restartMidRun stops a persisted server a quarter into the run with stop,
// resumes a fresh coordinator from the same store on the same address, and
// checks that the AutoReconnect sites ride through to an exact finish.
func restartMidRun(t *testing.T, stop func(*tcp.Server) bool, wantErr error) {
	const (
		k   = 2
		n   = 20000
		eps = 0.1
	)
	cfg := count.Config{K: k, Eps: eps}
	store := persist.NewMem()
	ln := listen(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 10 * time.Second,
		Persist: store, SnapshotEvery: 64, ReportEvery: 1}
	tripped := false
	srv.Report = func(m runtime.Metrics) {
		if !tripped && m.Arrivals >= k*n/4 {
			tripped = true
			stop(srv)
		}
	}
	res := serveAsync(srv, ln)

	var wg sync.WaitGroup
	closeErrs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := tcp.DialSite(addr, i, k, 0, count.NewSite(cfg, stats.New(uint64(i)+1)))
			if err != nil {
				closeErrs[i] = err
				return
			}
			sc.ProgressEvery = 256
			hardenSite(sc)
			for j := 0; j < n; j++ {
				sc.Arrive(0, 0)
				if j%256 == 255 {
					time.Sleep(time.Millisecond) // keep the stop inside the stream
				}
			}
			closeErrs[i] = sc.Close()
		}(i)
	}

	first := awaitServe(t, res, 30*time.Second)
	if first.err != wantErr {
		t.Fatalf("first Serve = %v, want %v", first.err, wantErr)
	}
	ln.Close()
	srv2 := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 10 * time.Second,
		Persist: store, SnapshotEvery: 64, Resume: true}
	res2 := serveAsync(srv2, listen(t, addr))
	wg.Wait()
	final := awaitServe(t, res2, 30*time.Second)
	if final.err != nil {
		t.Fatalf("resumed Serve: %v", final.err)
	}
	for i, err := range closeErrs {
		if err != nil {
			t.Errorf("site %d close: %v", i, err)
		}
	}
	if final.m.Arrivals != k*n {
		t.Errorf("arrivals = %d, want %d", final.m.Arrivals, k*n)
	}
	if final.m.LiveSites != k {
		t.Errorf("LiveSites = %d, want %d", final.m.LiveSites, k)
	}
	est := srv2.Coord.(*count.Coordinator).Estimate()
	if relErr := stats.RelErr(est, k*n); relErr > 3*eps {
		t.Errorf("estimate %.0f (rel err %.3f), want within 3ε of %d", est, relErr, k*n)
	}
}

// TestCoordCrashKillResume pins the crash drill: Kill mid-run, then a
// second server resumes from the store and the sites reconnect into it.
func TestCoordCrashKillResume(t *testing.T) {
	restartMidRun(t, (*tcp.Server).Kill, tcp.ErrKilled)
}

// TestCoordCrashShutdownResume pins the graceful stop: Shutdown mid-run
// returns ErrShutdown, and a resume finishes with the same final arrivals.
func TestCoordCrashShutdownResume(t *testing.T) {
	restartMidRun(t, (*tcp.Server).Shutdown, tcp.ErrShutdown)
}

// TestCoordCrashLingerAcksFinishedSite pins the post-run linger: a site
// whose Done was logged before the kill (so the crash ate its completion
// ack) redials after the resumed run has ended, receives the
// ResyncComplete ack, and Serve returns at once instead of waiting out
// RejoinWait.
func TestCoordCrashLingerAcksFinishedSite(t *testing.T) {
	const (
		k  = 2
		n1 = 3000
	)
	cfg := count.Config{K: k, Eps: 0.1}
	store := persist.NewMem()
	ln := listen(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 10 * time.Second, Persist: store}
	res := serveAsync(srv, ln)

	// Site 0 reports 5 arrivals and finishes at once; it never reads its ack.
	dialRaw(t, addr, wire.Hello{Site: 0, K: k}, wire.Done{Arrivals: 5})
	sc, err := tcp.DialSite(addr, 1, k, 0, count.NewSite(cfg, stats.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	sc.ProgressEvery = -1 // arrivals move only at Done, so the ledger says when the run ends
	hardenSite(sc)
	for i := 0; i < n1/2; i++ {
		sc.Arrive(0, 0)
	}
	awaitArrivals(t, srv, 5) // site 0's Done is logged and applied
	srv.Kill()
	if r := awaitServe(t, res, 10*time.Second); r.err != tcp.ErrKilled {
		t.Fatalf("first Serve = %v, want ErrKilled", r.err)
	}
	ln.Close()

	srv2 := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 10 * time.Second,
		Persist: store, Resume: true}
	res2 := serveAsync(srv2, listen(t, addr))
	closed := make(chan error, 1)
	go func() {
		for i := n1 / 2; i < n1; i++ {
			sc.Arrive(0, 0)
		}
		closed <- sc.Close()
	}()
	awaitArrivals(t, srv2, 5+n1) // site 1's Done applied: the server now lingers

	start := time.Now()
	sc0, rs, err := tcp.RejoinSite(addr, 0, k, 0, 0, count.NewSite(cfg, stats.New(1)))
	if err != nil {
		t.Fatalf("finished site's redial: %v", err)
	}
	sc0.Abort()
	if rs.Round != wire.ResyncComplete || rs.Arrivals != 5 {
		t.Errorf("redial answered with %+v, want a completion ack for 5 arrivals", rs)
	}
	final := awaitServe(t, res2, 5*time.Second)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Serve returned %v after the last ack; the linger ran toward RejoinWait", elapsed)
	}
	if final.err != nil {
		t.Fatalf("resumed Serve: %v", final.err)
	}
	if err := <-closed; err != nil {
		t.Errorf("site 1 close: %v", err)
	}
	if final.m.Arrivals != 5+n1 {
		t.Errorf("arrivals = %d, want %d", final.m.Arrivals, 5+n1)
	}
}

// runTwoSites streams n elements from each of two connections and closes
// both concurrently (Close blocks until every site has finished).
func runTwoSites(t *testing.T, scs [2]*tcp.SiteConn, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc *tcp.SiteConn) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				sc.Arrive(0, 0)
			}
			if err := sc.Close(); err != nil {
				t.Errorf("site %d close: %v", i, err)
			}
		}(i, sc)
	}
	wg.Wait()
}

// TestRejoinDuringAssembly pins that a Rejoin dial before the run starts
// registers the site (answered at once, before the other sites arrive) and
// counts as a rejoin.
func TestRejoinDuringAssembly(t *testing.T) {
	const (
		k = 2
		n = 2000
	)
	cfg := count.Config{K: k, Eps: 0.1}
	ln := listen(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 5 * time.Second}
	res := serveAsync(srv, ln)

	sc0, rs, err := tcp.RejoinSite(addr, 0, k, 0, 0, count.NewSite(cfg, stats.New(1)))
	if err != nil {
		t.Fatalf("rejoin during assembly: %v", err)
	}
	if rs.Round == wire.ResyncComplete {
		t.Fatalf("an unfinished slot was answered with a completion ack: %+v", rs)
	}
	sc1, err := tcp.DialSite(addr, 1, k, 0, count.NewSite(cfg, stats.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	runTwoSites(t, [2]*tcp.SiteConn{sc0, sc1}, n)
	final := awaitServe(t, res, 10*time.Second)
	if final.err != nil {
		t.Fatalf("serve: %v", final.err)
	}
	if srv.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", srv.Rejoins)
	}
	if final.m.Arrivals != k*n || final.m.LiveSites != k {
		t.Errorf("arrivals = %d, live = %d; want %d, %d", final.m.Arrivals, final.m.LiveSites, k*n, k)
	}
}

// TestRejoinDuplicateHello pins the two faces of a repeated Hello during
// assembly: for a slot a Hello filled it is a misdeployment and fatal; for
// a slot a Rejoin filled it is the crashed predecessor's stale handshake,
// rejected and counted while the run carries on.
func TestRejoinDuplicateHello(t *testing.T) {
	const k = 2
	cfg := count.Config{K: k, Eps: 0.1}
	t.Run("hello-slot", func(t *testing.T) {
		ln := listen(t, "127.0.0.1:0")
		addr := ln.Addr().String()
		srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k}
		res := serveAsync(srv, ln)
		sc, err := tcp.DialSite(addr, 0, k, 0, count.NewSite(cfg, stats.New(1)))
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Abort()
		dialRaw(t, addr, wire.Hello{Site: 0, K: k})
		if r := awaitServe(t, res, 10*time.Second); r.err == nil {
			t.Error("a second Hello for a filled slot did not abort assembly")
		}
	})
	t.Run("rejoined-slot", func(t *testing.T) {
		const n = 1000
		ln := listen(t, "127.0.0.1:0")
		addr := ln.Addr().String()
		srv := &tcp.Server{Coord: count.NewCoordinator(cfg), K: k, RejoinWait: 5 * time.Second}
		res := serveAsync(srv, ln)
		sc0, _, err := tcp.RejoinSite(addr, 0, k, 0, 0, count.NewSite(cfg, stats.New(1)))
		if err != nil {
			t.Fatal(err)
		}
		awaitHangup(t, dialRaw(t, addr, wire.Hello{Site: 0, K: k}))
		sc1, err := tcp.DialSite(addr, 1, k, 0, count.NewSite(cfg, stats.New(2)))
		if err != nil {
			t.Fatal(err)
		}
		runTwoSites(t, [2]*tcp.SiteConn{sc0, sc1}, n)
		final := awaitServe(t, res, 10*time.Second)
		if final.err != nil {
			t.Fatalf("serve: %v", final.err)
		}
		if srv.Rejects != 1 || srv.Rejoins != 1 {
			t.Errorf("Rejects = %d, Rejoins = %d; want 1, 1", srv.Rejects, srv.Rejoins)
		}
		if final.m.Arrivals != k*n {
			t.Errorf("arrivals = %d, want %d", final.m.Arrivals, k*n)
		}
	})
}

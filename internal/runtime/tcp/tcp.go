// Package tcp hosts the socket-backed transports: the in-process TCP
// loopback fabric (Loopback, mounted via disttrack.TransportTCP) and the
// genuinely distributed coordinator/site hosts (Server, SiteConn) used by
// cmd/tracksim serve / connect. Both ship every protocol message as a
// length-prefixed frame carrying its internal/wire encoding.
package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
	"disttrack/internal/wire"
)

// Loopback hosts one protocol over real sockets: each site is connected to
// the coordinator by its own TCP connection on the loopback interface, and
// a reader goroutine at each end decodes its frames. Every protocol
// message crosses the kernel as a length-prefixed frame carrying its wire
// encoding (internal/wire), so this transport exercises the full encode ->
// socket -> decode path while still enforcing the paper's
// instant-communication model: the embedded runtime.Fabric brackets every
// frame from send to handler completion with its in-flight counter, and
// Arrive blocks until the cascade has quiesced.
//
// The coordinator machine runs on whichever coordinator-side reader decoded
// a frame for it, under the fabric's coordinator mutex, and its sends are
// written to the sites' sockets under that mutex. A site-side reader only
// Posts the decoded message to the fabric's down queue; the feeding
// goroutine applies it while it settles and writes the site's replies, so
// a site's machine and its pending frames are touched by the feeder alone
// and take no lock. The reader must never apply a frame itself: it would
// race the feeder, and a site lock to stop that would close a cycle. The
// feeder, holding site i's lock, can block writing to site i's full socket
// towards the coordinator; the reader draining that socket can wait for
// the coordinator mutex; its holder can block writing to site i's full
// socket from the coordinator; and the only goroutine that drains that
// socket, site i's reader, would be waiting for site i's lock (feeder ->
// coordinator reader -> coordinator mutex -> site reader -> site lock).
// Post never blocks, so every socket always has a reader draining it and
// no cycle exists.
//
// For a fixed seed the protocol behaves identically to the sequential and
// goroutine transports — same per-link message sequences, same Metrics,
// same query answers (the transport-independence test in the root package
// pins this).
type Loopback struct {
	*runtime.Fabric

	siteConns  []net.Conn // site-side (dialed) connection per site
	coordConns []net.Conn // coordinator-side (accepted) connection per site

	// Pending outbound frames, encoded back-to-back and written in one
	// syscall at each flush boundary. sitePend[i] belongs to the goroutine
	// that feeds and settles the fabric (appended by an arrival or a
	// delivered message, flushed by the fabric's flush hook right after);
	// coordPend/coordDirty are guarded by the fabric's coordinator mutex.
	sitePend   [][]byte
	coordPend  [][]byte
	coordDirty []int

	wg     sync.WaitGroup
	closed atomic.Bool
}

// StartLoopback mounts the protocol on a fresh loopback TCP fabric: it
// listens on an ephemeral 127.0.0.1 port, dials one connection per site,
// completes the Hello handshake on each, and launches the connection
// readers.
func StartLoopback(p proto.Protocol) (*Loopback, error) {
	k := p.K()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: transport listen: %w", err)
	}
	defer ln.Close()

	c := &Loopback{
		Fabric:     runtime.NewFabric(p),
		siteConns:  make([]net.Conn, k),
		coordConns: make([]net.Conn, k),
		sitePend:   make([][]byte, k),
		coordPend:  make([][]byte, k),
	}

	// Dial the site ends concurrently with accepting the coordinator ends;
	// each dialed connection introduces itself with a Hello frame. A dial
	// failure closes the listener so the accept loop below unblocks instead
	// of waiting forever for connections that will never come.
	dialErr := make(chan error, 1)
	go func() {
		var buf []byte
		for i := 0; i < k; i++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				ln.Close()
				dialErr <- err
				return
			}
			c.siteConns[i] = conn
			buf, err = wire.AppendFrame(buf[:0], wire.Hello{Site: i, K: k})
			if err == nil {
				_, err = conn.Write(buf)
			}
			if err != nil {
				ln.Close()
				dialErr <- err
				return
			}
		}
		dialErr <- nil
	}()
	acceptErr := func() error {
		var buf []byte
		for accepted := 0; accepted < k; accepted++ {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			var m proto.Message
			m, buf, err = wire.ReadFrame(conn, buf)
			if err != nil {
				conn.Close()
				return err
			}
			hello, ok := m.(wire.Hello)
			if !ok || hello.Site < 0 || hello.Site >= k || c.coordConns[hello.Site] != nil {
				conn.Close()
				return fmt.Errorf("bad handshake %#v", m)
			}
			c.coordConns[hello.Site] = conn
		}
		return nil
	}()
	if err := <-dialErr; err != nil || acceptErr != nil {
		c.closeConns()
		if err == nil {
			err = acceptErr
		}
		return nil, fmt.Errorf("tcp: transport handshake: %w", err)
	}

	for i := 0; i < k; i++ {
		i := i
		conn := c.siteConns[i]
		// Site sends append frames to the connection's pending buffer; the
		// fabric's flush hook — end of an inline injection or a delivered
		// message, always on the feeding goroutine — puts them on the wire
		// in one syscall.
		c.BindSite(i,
			func(m proto.Message) {
				var err error
				c.sitePend[i], err = wire.AppendFrame(c.sitePend[i], m)
				if err != nil {
					c.fail("site encode", err)
				}
			},
			func() {
				if len(c.sitePend[i]) == 0 {
					return
				}
				if _, err := conn.Write(c.sitePend[i]); err != nil {
					c.fail("site send", err)
				}
				c.sitePend[i] = c.sitePend[i][:0]
			})
	}
	// Coordinator sends coalesce per destination connection; the flush hook
	// runs after every applied message and walks only the dirty
	// connections. Its writes never wait on a lock: the site readers that
	// drain those sockets only Post (see the Loopback doc).
	c.BindCoord(
		func(to int, m proto.Message) {
			if len(c.coordPend[to]) == 0 {
				c.coordDirty = append(c.coordDirty, to)
			}
			var err error
			c.coordPend[to], err = wire.AppendFrame(c.coordPend[to], m)
			if err != nil {
				c.fail("coord encode", err)
			}
		},
		func() {
			for _, to := range c.coordDirty {
				if _, err := c.coordConns[to].Write(c.coordPend[to]); err != nil {
					c.fail("coord send", err)
				}
				c.coordPend[to] = c.coordPend[to][:0]
			}
			c.coordDirty = c.coordDirty[:0]
		})

	for i := 0; i < k; i++ {
		c.wg.Add(2)
		go c.siteReader(i)
		go c.coordReader(i)
	}
	return c, nil
}

// fail aborts on an unexpected transport error. Loopback sockets between
// two ends of one healthy process do not fail; anything else is a bug, and
// swallowing it would deadlock the in-flight accounting.
func (c *Loopback) fail(op string, err error) {
	if c.closed.Load() {
		return
	}
	panic(fmt.Sprintf("tcp: transport %s: %v", op, err))
}

// siteReader decodes coordinator->site frames and Posts each to the
// fabric's down queue for site i, in the link's frame order.
func (c *Loopback) siteReader(i int) {
	defer c.wg.Done()
	conn := c.siteConns[i]
	var buf []byte
	for {
		m, b, err := wire.ReadFrame(conn, buf)
		buf = b
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || c.closed.Load() {
				return
			}
			c.fail("site read", err)
			return
		}
		c.Post(i, m)
	}
}

// coordReader decodes site i's frames and applies each to the coordinator
// on this goroutine (Fabric.DeliverUp), in the link's frame order.
func (c *Loopback) coordReader(i int) {
	defer c.wg.Done()
	conn := c.coordConns[i]
	var buf []byte
	for {
		m, b, err := wire.ReadFrame(conn, buf)
		buf = b
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || c.closed.Load() {
				return
			}
			c.fail("coord read", err)
			return
		}
		c.DeliverUp(i, m)
	}
}

func (c *Loopback) closeConns() {
	for _, conn := range c.siteConns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, conn := range c.coordConns {
		if conn != nil {
			conn.Close()
		}
	}
}

// Close implements runtime.Transport: it closes the sockets and joins the
// readers. The transport must be quiescent.
func (c *Loopback) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.MarkClosed()
	c.closeConns()
	c.wg.Wait()
}

// Package netsim runs a tracking protocol on the shared runtime.Fabric with
// in-memory delivery: the transport behind disttrack.TransportGoroutine.
// It starts no goroutine. A site message is applied to the coordinator
// inline (Fabric.DeliverUp, under the fabric's coordinator mutex), and a
// coordinator message is queued on the fabric (Fabric.Post) for the
// settling goroutine to apply, so every cascade runs on the goroutine that
// feeds the elements. That is the paper's instant-communication model
// exactly: an element is only injected after the previous cascade has
// fully quiesced, so per-site goroutines would buy no parallelism, and an
// element whose site machine sends nothing costs that machine plus a few
// loads (no lock, no in-flight token, no settle). Cluster
// implements the runtime.Transport seam; the injection, quiescence,
// accounting, and space-probing machinery is the fabric's, so this package
// only binds the two delivery hooks.
//
// The protocols themselves are the same passive state machines that
// internal/sim drives sequentially. netsim adds the fabric's message
// ordering, cost accounting and fault middleware; the TCP loopback
// (internal/runtime/tcp) is the transport that keeps real concurrency —
// its socket readers run beside the feeder — and so the one where -race
// runs show that the protocols share no hidden state.
package netsim

import (
	"disttrack/internal/proto"
	"disttrack/internal/runtime"
)

// Cluster hosts one protocol on the fabric. Create with Start, feed with
// Arrive, synchronize with Quiesce, and Stop when done. The embedded
// Fabric provides Arrive/ArriveBatch/Quiesce/Probe/SetTap/Metrics.
type Cluster struct {
	*runtime.Fabric
}

// Start mounts the protocol and returns the ready cluster.
func Start(p proto.Protocol) *Cluster {
	c := &Cluster{Fabric: runtime.NewFabric(p)}
	for i := range p.Sites {
		i := i
		// Site delivery applies the message to the coordinator inline; no
		// flush hook — there is nothing to coalesce.
		c.BindSite(i, func(m proto.Message) { c.DeliverUp(i, m) }, nil)
	}
	c.BindCoord(c.Post, nil)
	return c
}

// Stop marks the cluster closed; later arrivals panic. The cluster must be
// quiescent.
func (c *Cluster) Stop() { c.MarkClosed() }

// Close implements runtime.Transport.
func (c *Cluster) Close() { c.Stop() }

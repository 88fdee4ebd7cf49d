// Package netsim runs a tracking protocol as a genuinely concurrent system:
// one goroutine per site fed by an unbounded mailbox, while the coordinator
// runs on whichever goroutine delivers to it (the injector or a site loop)
// under the fabric's coordinator mutex. It preserves the paper's
// instant-communication model by counting in-flight work: an element is
// only injected after the previous cascade has fully quiesced. Cluster
// implements the runtime.Transport seam (the goroutine transport behind
// disttrack.TransportGoroutine); the injection, quiescence, accounting, and
// space-probing machinery is the shared runtime.Fabric, so this package only
// supplies the goroutine message delivery.
//
// The protocols themselves are the same passive state machines that
// internal/sim drives sequentially; netsim exists to demonstrate (and test,
// under -race) that they are real distributed protocols with no hidden
// shared state.
package netsim

import (
	"sync"

	"disttrack/internal/proto"
	"disttrack/internal/runtime"
)

// Cluster hosts one protocol concurrently. Create with Start, feed with
// Arrive, synchronize with Quiesce, and Stop when done. The embedded
// Fabric provides Arrive/ArriveBatch/Quiesce/Probe/SetTap/Metrics.
type Cluster struct {
	*runtime.Fabric
	wg sync.WaitGroup
}

// Start launches the goroutines for the protocol and returns the running
// cluster.
func Start(p proto.Protocol) *Cluster {
	c := &Cluster{Fabric: runtime.NewFabric(p)}
	for i := range p.Sites {
		i := i
		// Site delivery applies the message to the coordinator inline; no
		// flush hook — there is nothing to coalesce.
		c.BindSite(i, func(m proto.Message) { c.DeliverUp(i, m) }, nil)
	}
	c.BindCoord(func(to int, m proto.Message) {
		c.SiteBoxes[to].Put(m)
	}, nil)
	for i := range p.Sites {
		c.wg.Add(1)
		go c.siteLoop(i)
	}
	return c
}

// siteLoop runs site i's delivery loop (drains coordinator messages in
// batches; arrivals themselves are injected inline by Fabric.Arrive).
func (c *Cluster) siteLoop(i int) {
	defer c.wg.Done()
	c.RunSiteLoop(i)
}

// Stop shuts down all goroutines. The cluster must be quiescent.
func (c *Cluster) Stop() {
	c.CloseBoxes()
	c.wg.Wait()
}

// Close implements runtime.Transport.
func (c *Cluster) Close() { c.Stop() }

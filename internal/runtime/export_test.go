package runtime

// Outstanding reports the fabric's active and parked in-flight tokens and
// how many coordinator->site messages wait in its down queue.
func (f *Fabric) Outstanding() (active, parked int64, queued int) {
	f.downMu.Lock()
	defer f.downMu.Unlock()
	return f.Inflight.active.Load(), f.Inflight.parked.Load(), len(f.down) - f.downHead
}

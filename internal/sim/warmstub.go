package sim

// WarmCache exists only for the benchmark harness (perfbench), which
// still reads warm-snapshot counters. The simulator keeps no warm-state
// snapshots: Stats reports zeros and Reset does nothing.
type WarmCache struct{}

// GlobalWarmCache returns the inert benchmark-harness stand-in.
func GlobalWarmCache() *WarmCache { return &WarmCache{} }

// Stats returns zeros.
func (*WarmCache) Stats() (hits, misses, stores uint64) { return 0, 0, 0 }

// Reset does nothing.
func (*WarmCache) Reset() {}

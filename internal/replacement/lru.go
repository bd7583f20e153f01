package replacement

// LRU is the classic least-recently-used policy. It keeps no state of
// its own: the cache's recency stamps (see Policy) already order a
// set's lines, so Victim evicts the smallest stamp — an empty way's 0
// when there is one.
type LRU struct{}

// NewLRU returns an LRU policy for a sets x ways cache. The geometry is
// accepted for symmetry with the other constructors; the recency state
// lives in the cache.
func NewLRU(sets, ways int) *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Hit implements Policy.
func (p *LRU) Hit(int, int, Access) {}

// Fill implements Policy.
func (p *LRU) Fill(int, int, Access) {}

// Victim implements Policy.
func (p *LRU) Victim(_ int, _ Access, stamps []uint64) int {
	victim, oldest := 0, ^uint64(0)
	for w, s := range stamps {
		if s < oldest {
			oldest, victim = s, w
		}
	}
	return victim
}

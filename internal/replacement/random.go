package replacement

// Random evicts a pseudo-random valid way. It is deterministic (seeded
// xorshift) so simulations are reproducible.
type Random struct {
	ways  int
	state uint64
}

// NewRandom returns a random-replacement policy for a cache with the
// given associativity.
func NewRandom(ways int, seed uint64) *Random {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Random{ways: ways, state: seed}
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Hit implements Policy.
func (p *Random) Hit(int, int, Access) {}

// Fill implements Policy.
func (p *Random) Fill(int, int, Access) {}

// Victim implements Policy.
func (p *Random) Victim(_ int, _ Access, stamps []uint64) int {
	if w := preferInvalid(stamps); w >= 0 {
		return w
	}
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(len(stamps)))
}

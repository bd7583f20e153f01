package replacement

// SRRIP implements static re-reference interval prediction (Jaleel et
// al., ISCA'10) with M-bit RRPVs. New lines are inserted with a long
// re-reference prediction (maxRRPV-1); hits promote to 0; the victim is
// any line at maxRRPV, aging all lines when none is found.
type SRRIP struct {
	ways    int
	maxRRPV uint8
	rrpv    [][]uint8
}

// NewSRRIP returns an SRRIP policy with the given RRPV width in bits
// (2 or 3 are typical).
func NewSRRIP(sets, ways int, bits uint) *SRRIP {
	if bits == 0 || bits > 7 {
		panic("replacement: SRRIP bits must be in [1,7]")
	}
	r := make([][]uint8, sets)
	max := uint8(1<<bits - 1)
	for i := range r {
		row := make([]uint8, ways)
		for w := range row {
			row[w] = max
		}
		r[i] = row
	}
	return &SRRIP{ways: ways, maxRRPV: max, rrpv: r}
}

// Name implements Policy.
func (p *SRRIP) Name() string { return "srrip" }

// Hit implements Policy.
func (p *SRRIP) Hit(set, way int, _ Access) { p.rrpv[set][way] = 0 }

// Fill implements Policy.
func (p *SRRIP) Fill(set, way int, _ Access) { p.rrpv[set][way] = p.maxRRPV - 1 }

// Victim implements Policy.
func (p *SRRIP) Victim(set int, _ Access, stamps []uint64) int {
	if w := preferInvalid(stamps); w >= 0 {
		return w
	}
	row := p.rrpv[set]
	for {
		for w := 0; w < len(stamps); w++ {
			if row[w] == p.maxRRPV {
				return w
			}
		}
		for w := 0; w < len(stamps); w++ {
			row[w]++
		}
	}
}

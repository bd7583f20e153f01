package replacement

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// allValid returns the recency stamps of a full set whose ways were
// last touched in way order (way 0 least recent).
func allValid(ways int) []uint64 {
	v := make([]uint64, ways)
	for i := range v {
		v[i] = uint64(i + 1)
	}
	return v
}

func TestLRUPrefersInvalid(t *testing.T) {
	p := NewLRU(4, 4)
	stamps := []uint64{4, 7, 0, 5}
	if got := p.Victim(0, Access{}, stamps); got != 2 {
		t.Errorf("Victim = %d, want invalid way 2", got)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	p := NewLRU(1, 4)
	stamps := []uint64{1, 2, 3, 4} // filled in way order
	stamps[0] = 5                  // hit on way 0: way 1 now LRU
	if got := p.Victim(0, Access{}, stamps); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
	stamps[1] = 6
	if got := p.Victim(0, Access{}, stamps); got != 2 {
		t.Errorf("Victim = %d, want 2", got)
	}
	// A way-partitioned cache passes a shortened view: way 2 is not
	// eligible, so the LRU way among 0-1 goes.
	if got := p.Victim(0, Access{}, stamps[:2]); got != 0 {
		t.Errorf("Victim over 2 ways = %d, want 0", got)
	}
}

func TestLRUSetsIndependent(t *testing.T) {
	// LRU ranks only the stamps it is handed; the set index selects
	// nothing, so each set's order stands alone.
	p := NewLRU(2, 2)
	if got := p.Victim(0, Access{}, []uint64{1, 2}); got != 0 {
		t.Errorf("set 0 Victim = %d, want 0", got)
	}
	if got := p.Victim(1, Access{}, []uint64{4, 3}); got != 1 {
		t.Errorf("set 1 Victim = %d, want 1", got)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := NewRandom(8, 42)
	b := NewRandom(8, 42)
	for i := 0; i < 100; i++ {
		va := a.Victim(0, Access{}, allValid(8))
		vb := b.Victim(0, Access{}, allValid(8))
		if va != vb {
			t.Fatalf("iteration %d: %d != %d", i, va, vb)
		}
		if va < 0 || va >= 8 {
			t.Fatalf("victim %d out of range", va)
		}
	}
}

func TestRandomPrefersInvalid(t *testing.T) {
	p := NewRandom(4, 1)
	stamps := []uint64{9, 0, 3, 0}
	if got := p.Victim(0, Access{}, stamps); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	p := NewSRRIP(1, 4, 3)
	for w := 0; w < 4; w++ {
		p.Fill(0, w, Access{})
	}
	p.Hit(0, 2, Access{})
	// All lines inserted at 6; after aging, ways 0,1,3 reach 7 first.
	v := p.Victim(0, Access{}, allValid(4))
	if v == 2 {
		t.Error("SRRIP evicted the just-hit way")
	}
}

func TestSRRIPVictimAlwaysInRangeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewSRRIP(4, 8, 2)
		for _, op := range ops {
			set := int(op % 4)
			way := int(op/4) % 8
			switch {
			case op%3 == 0:
				p.Fill(set, way, Access{})
			case op%3 == 1:
				p.Hit(set, way, Access{})
			default:
				v := p.Victim(set, Access{}, allValid(8))
				if v < 0 || v >= 8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRRIPBitsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSRRIP with 0 bits did not panic")
		}
	}()
	NewSRRIP(1, 1, 0)
}

// Every policy must implement the Policy interface.
var (
	_ Policy = (*LRU)(nil)
	_ Policy = (*Random)(nil)
	_ Policy = (*SRRIP)(nil)
	_ Policy = (*Hawkeye)(nil)
)

// Cross-policy property: victims are always legal way indices.
func TestAllPoliciesVictimInRange(t *testing.T) {
	policies := []Policy{
		NewLRU(8, 4),
		NewRandom(4, 7),
		NewSRRIP(8, 4, 3),
		NewHawkeye(8, 4, 2, 8),
	}
	for _, p := range policies {
		for i := 0; i < 500; i++ {
			set := i % 8
			a := Access{Line: mem.Line(i * 37), PC: uint64(i % 5)}
			v := p.Victim(set, a, allValid(4))
			if v < 0 || v >= 4 {
				t.Fatalf("%s: victim %d out of range", p.Name(), v)
			}
			p.Fill(set, v, a)
			if i%3 == 0 {
				p.Hit(set, v, a)
			}
		}
	}
}

// TestLRUKeepsNoPerWayState pins where LRU recency lives: in the
// cache's per-set block, beside the tags. A stamp array here would
// duplicate it and cost a second host cache miss per access.
func TestLRUKeepsNoPerWayState(t *testing.T) {
	if n := reflect.TypeOf(LRU{}).NumField(); n != 0 {
		t.Errorf("LRU has %d fields, want 0 (recency belongs to the cache)", n)
	}
}

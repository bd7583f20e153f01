package cache

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/replacement"
)

// TestResultsStayInRegisters guards the calling convention of the hot
// path. Go's SSA backend keeps a struct in registers only when it has
// at most 4 fields and at most 32 bytes. A larger LookupResult or
// Eviction is spilled to the stack field by field by the callee and
// read back whole by the caller; store-to-load forwarding cannot
// assemble that wide load from the narrow stores, so it waits until
// they drain — behind every older store still missing on the set's
// state. That one reload was about 15% of a multi-core figure run's
// CPU time. A new field must fail here, not show up as a slowdown.
func TestResultsStayInRegisters(t *testing.T) {
	for _, v := range []any{LookupResult{}, Eviction{}} {
		typ := reflect.TypeOf(v)
		if typ.NumField() > 4 || typ.Size() > 32 {
			t.Errorf("%s has %d fields and %d bytes; at most 4 fields and 32 bytes stay in registers",
				typ, typ.NumField(), typ.Size())
		}
	}
}

// refLine is one way of the reference cache.
type refLine struct {
	valid, dirty, pf bool
	line             mem.Line
	pfPC, ready      uint64
	core             int
}

// refSet holds a set's ways in way order and an explicit recency
// list of way indices, least recently used first.
type refSet struct {
	ways  []refLine
	order []int
}

// refCache is a deliberately naive model of Cache with LRU: a map of
// per-set way slices, linear scans, and a recency list instead of
// stamps. It mirrors the documented behavior, not the implementation.
type refCache struct {
	nsets, ways, dataWays int
	sets                  map[int]*refSet
	stats                 Stats
}

func newRef(nsets, ways int) *refCache {
	return &refCache{nsets: nsets, ways: ways, dataWays: ways, sets: make(map[int]*refSet)}
}

func (c *refCache) set(l mem.Line) (int, *refSet) {
	s := int(uint64(l) % uint64(c.nsets))
	rs, ok := c.sets[s]
	if !ok {
		rs = &refSet{ways: make([]refLine, c.ways)}
		c.sets[s] = rs
	}
	return s, rs
}

// find returns the way of l among the data ways, or -1.
func (c *refCache) find(rs *refSet, l mem.Line) int {
	for w := 0; w < c.dataWays; w++ {
		if rs.ways[w].valid && rs.ways[w].line == l {
			return w
		}
	}
	return -1
}

func (rs *refSet) touch(w int) {
	rs.unlink(w)
	rs.order = append(rs.order, w)
}

func (rs *refSet) unlink(w int) {
	for i, v := range rs.order {
		if v == w {
			rs.order = append(rs.order[:i], rs.order[i+1:]...)
			return
		}
	}
}

func (c *refCache) evict(rs *refSet, w int) Eviction {
	ln := rs.ways[w]
	if !ln.valid {
		return Eviction{}
	}
	rs.ways[w] = refLine{}
	rs.unlink(w)
	c.stats.Evictions++
	ev := Eviction{Line: ln.line, Core: int32(ln.core), flags: flagValid}
	if ln.dirty {
		ev.flags |= flagDirty
		c.stats.Writebacks++
	}
	if ln.pf {
		ev.flags |= flagPrefetched
		c.stats.PrefetchUnused++
	}
	return ev
}

func (c *refCache) access(l mem.Line, a replacement.Access, now uint64) LookupResult {
	c.stats.Accesses++
	_, rs := c.set(l)
	w := c.find(rs, l)
	if w < 0 {
		c.stats.Misses++
		return LookupResult{}
	}
	c.stats.Hits++
	ln := &rs.ways[w]
	res := LookupResult{Hit: true, ReadyTick: ln.ready}
	if ln.pf {
		res.flags |= flagPrefetched
		res.PrefetchPC = ln.pfPC
		ln.pf = false
		c.stats.PrefetchUsed++
		if ln.ready > now {
			res.flags |= flagLate
			c.stats.LatePrefetches++
		}
	}
	if a.Prefetch && ln.ready > now {
		res.flags |= flagLate
	}
	rs.touch(w)
	return res
}

func (c *refCache) fill(l mem.Line, a replacement.Access, dirty bool, ready uint64) Eviction {
	_, rs := c.set(l)
	if w := c.find(rs, l); w >= 0 {
		ln := &rs.ways[w]
		ln.dirty = ln.dirty || dirty
		ln.ready = min(ln.ready, ready)
		return Eviction{}
	}
	victim := -1
	for w := 0; w < c.dataWays && victim < 0; w++ {
		if !rs.ways[w].valid {
			victim = w
		}
	}
	for _, w := range rs.order {
		if victim >= 0 {
			break
		}
		if w < c.dataWays {
			victim = w
		}
	}
	ev := c.evict(rs, victim)
	if a.Prefetch {
		c.stats.PrefetchFills++
	}
	rs.ways[victim] = refLine{valid: true, dirty: dirty, pf: a.Prefetch, line: l, pfPC: a.PC, ready: ready, core: a.Core}
	rs.touch(victim)
	return ev
}

func (c *refCache) markDirty(l mem.Line) {
	_, rs := c.set(l)
	if w := c.find(rs, l); w >= 0 {
		rs.ways[w].dirty = true
	}
}

func (c *refCache) invalidate(l mem.Line) Eviction {
	_, rs := c.set(l)
	for w := range rs.ways {
		if rs.ways[w].valid && rs.ways[w].line == l {
			return c.evict(rs, w)
		}
	}
	return Eviction{}
}

func (c *refCache) setDataWays(n int) []Eviction {
	var evs []Eviction
	for s := 0; s < c.nsets; s++ {
		rs, ok := c.sets[s]
		if !ok {
			continue
		}
		for w := n; w < c.dataWays; w++ {
			if ev := c.evict(rs, w); ev.Valid() {
				evs = append(evs, ev)
			}
		}
	}
	c.dataWays = n
	return evs
}

func (c *refCache) probe(l mem.Line) bool {
	_, rs := c.set(l)
	return c.find(rs, l) >= 0
}

func (c *refCache) occupancy() int {
	n := 0
	for _, rs := range c.sets {
		for w := 0; w < c.dataWays; w++ {
			if rs.ways[w].valid {
				n++
			}
		}
	}
	return n
}

// FuzzCacheReference drives random operation sequences through the
// packed cache with LRU and through refCache, on small geometries (1-8
// sets, 1-16 ways), and requires identical lookup results, evictions,
// statistics and occupancy after every operation, with the cache's
// structural invariants intact throughout.
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 1, 9, 0, 5, 2, 4, 0, 13, 3, 5})
	f.Add([]byte{2, 15, 1, 1, 1, 17, 1, 33, 5, 7, 0, 1, 4, 2, 1, 49, 6, 1})
	f.Add([]byte{1, 0, 1, 2, 129, 4, 0, 2, 0, 4, 5, 0, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nsets, ways := 1<<(data[0]%4), 1+int(data[1]%16)
		data = data[2:]
		c := New("fuzz", nsets, ways, replacement.NewLRU(nsets, ways))
		ref := newRef(nsets, ways)
		// Lines come from a pool of 3 lines per way slot, so sets
		// conflict and lines recur.
		span := uint64(3 * nsets * ways)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			l := mem.Line(uint64(arg) % span)
			a := replacement.Access{Line: l, PC: uint64(op >> 3), Core: int(op>>4) & 3, Prefetch: op&0x80 != 0}
			tick := uint64(arg >> 4)
			switch op % 7 {
			case 0, 1:
				got, want := c.Access(l, a, tick), ref.access(l, a, tick)
				if got != want {
					t.Fatalf("op %d: Access(%d) = %+v, reference %+v", i/2, l, got, want)
				}
			case 2, 3:
				dirty := op&0x40 != 0
				got, want := c.Fill(l, a, dirty, tick), ref.fill(l, a, dirty, tick)
				if got != want {
					t.Fatalf("op %d: Fill(%d) = %+v, reference %+v", i/2, l, got, want)
				}
			case 4:
				c.MarkDirty(l)
				ref.markDirty(l)
			case 5:
				got, want := c.Invalidate(l), ref.invalidate(l)
				if got != want {
					t.Fatalf("op %d: Invalidate(%d) = %+v, reference %+v", i/2, l, got, want)
				}
			case 6:
				if op&0x40 != 0 {
					if got, want := c.Probe(l), ref.probe(l); got != want {
						t.Fatalf("op %d: Probe(%d) = %t, reference %t", i/2, l, got, want)
					}
					break
				}
				n := 1 + int(arg)%ways
				got, want := c.SetDataWays(n), ref.setDataWays(n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: SetDataWays(%d) = %+v, reference %+v", i/2, n, got, want)
				}
			}
			if got, want := c.Stats(), ref.stats; got != want {
				t.Fatalf("op %d: stats %+v, reference %+v", i/2, got, want)
			}
			if got, want := c.Occupancy(), ref.occupancy(); got != want {
				t.Fatalf("op %d: occupancy %d, reference %d", i/2, got, want)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

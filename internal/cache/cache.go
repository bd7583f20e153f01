// Package cache implements the set-associative caches of the simulated
// hierarchy. A Cache tracks residency, dirtiness, prefetch provenance,
// and fill-completion times (for prefetch timeliness), and supports
// dynamic way partitioning so that Triage can carve LLC ways out for its
// metadata store (paper §3).
//
// Timing model: the hierarchy updates cache *state* eagerly at access
// time and carries latency in "ready ticks" on each line. A demand
// access that finds an in-flight fill (ReadyTick in the future) pays the
// residual latency — this models MSHR merging and late prefetches
// without an event queue.
//
// Layout: each set owns one contiguous block of 5*ways words: the
// ways' tags, then their recency stamps, then one 3-word state record
// per way (fill-ready tick, prefetch trigger PC, installing core and
// flag bits). The residency scan — the single hottest loop in the
// simulator — reads only the tag run. A way stores its line's tag plus
// one, so a zero word marks an empty way: there is no separate valid
// check, and a freshly allocated (zeroed) block is an empty cache that
// New never has to touch. A hit or a fill then touches state a few
// words away in the same block, usually in the same host page and
// often in an adjacent host cache line. The stamps are the cache's own
// LRU recency (0 marks an empty way), handed to the replacement policy
// as its view of the set, so LRU itself keeps no per-way state.
//
// The results Access and Fill return (LookupResult, Eviction) have at
// most 4 fields and 32 bytes so the compiler keeps them in registers;
// see TestResultsStayInRegisters.
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/replacement"
)

// Words per way in a set's block: tag, stamp, and the 3-word state
// record (recReady, recPfPC, recInfo).
const (
	wordsPerWay = 5
	recWords    = 3

	recReady = 0 // fill-completion tick
	recPfPC  = 1 // trigger PC of a prefetch fill
	recInfo  = 2 // installing core << infoCoreShift | flag bits
)

const infoCoreShift = 8

// Flag bits in a record's info word (and in Eviction/LookupResult).
const (
	flagDirty      = 1 << 0
	flagPrefetched = 1 << 1
	flagValid      = 1 << 2 // Eviction only: a line was displaced
	flagLate       = 1 << 3 // LookupResult only: hit before the fill completed
)

// Stats aggregates cache-level event counts.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	PrefetchFills  uint64
	PrefetchUsed   uint64 // demand hit on a prefetched line
	PrefetchUnused uint64 // prefetched line evicted without use
	LatePrefetches uint64 // demand hit before the prefetch completed
	Writebacks     uint64
	Evictions      uint64
}

// Eviction describes a line displaced by a fill or invalidation. The
// zero value means nothing was displaced.
type Eviction struct {
	Line  mem.Line
	Core  int32 // core that installed the line
	flags uint8
}

// Valid reports whether a line was displaced.
func (e Eviction) Valid() bool { return e.flags&flagValid != 0 }

// Dirty reports whether the displaced line needs a writeback.
func (e Eviction) Dirty() bool { return e.flags&flagDirty != 0 }

// Prefetch reports whether the displaced line was an unused prefetch.
func (e Eviction) Prefetch() bool { return e.flags&flagPrefetched != 0 }

// Cache is one level of the hierarchy.
type Cache struct {
	name     string
	sets     int
	ways     int
	dataWays int // ways usable for data; rest reserved (metadata)

	setMask  uint64 // sets-1 (sets is a power of two)
	tagShift uint   // log2(sets)

	// blk holds every set's block back to back (see the package
	// comment); set s occupies blk[s*stride : (s+1)*stride].
	blk    []uint64
	stride int // wordsPerWay * ways
	// clock advances on every hit and fill; a way's stamp is the clock
	// value of its last touch, so stamps order a set's lines by recency.
	clock uint64

	policy replacement.Policy
	stats  Stats
}

// New returns a cache with the given geometry and replacement policy.
func New(name string, sets, ways int, policy replacement.Policy) *Cache {
	if !mem.IsPow2(sets) {
		panic(fmt.Sprintf("cache %s: sets=%d not a power of two", name, sets))
	}
	if ways < 1 {
		panic(fmt.Sprintf("cache %s: ways=%d", name, ways))
	}
	return &Cache{
		name: name, sets: sets, ways: ways, dataWays: ways,
		setMask: uint64(sets - 1), tagShift: mem.Log2(sets),
		blk:    make([]uint64, sets*ways*wordsPerWay),
		stride: ways * wordsPerWay,
		policy: policy,
	}
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the total associativity.
func (c *Cache) Ways() int { return c.ways }

// DataWays returns the ways currently available to data.
func (c *Cache) DataWays() int { return c.dataWays }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) set(l mem.Line) int { return int(uint64(l) & c.setMask) }

// tag returns l's stored tag: the line address above the set bits,
// plus one so that it is never zero.
func (c *Cache) tag(l mem.Line) uint64 { return uint64(l)>>c.tagShift + 1 }

// block returns set s's words: tags at [0, ways), stamps at
// [ways, 2*ways), and way w's state record at rec(w).
func (c *Cache) block(s int) []uint64 {
	base := s * c.stride
	return c.blk[base : base+c.stride]
}

// rec returns the offset of way w's state record within its block.
func (c *Cache) rec(w int) int { return 2*c.ways + recWords*w }

// putLine installs a clean line with stored tag t (non-zero) at
// (s, w), bypassing the replacement policy (tests only: invariant
// violations are built with it). It becomes the set's most recently
// used line.
func (c *Cache) putLine(s, w int, t uint64) {
	b := c.block(s)
	c.clock++
	b[w], b[c.ways+w] = t, c.clock
	r := b[c.rec(w):]
	r[recReady], r[recPfPC], r[recInfo] = 0, 0, 0
}

// info packs a record's core and flag bits.
func info(core int, flags uint8) uint64 {
	return uint64(uint32(int32(core)))<<infoCoreShift | uint64(flags)
}

// Probe reports whether l is resident without touching any state.
func (c *Cache) Probe(l mem.Line) bool {
	t := c.tag(l)
	for _, tag := range c.block(c.set(l))[:c.dataWays] {
		if tag == t {
			return true
		}
	}
	return false
}

// LookupResult describes the outcome of a demand or prefetch lookup.
type LookupResult struct {
	// ReadyTick is the fill-completion tick of the hit line (0 if the
	// line has long been resident).
	ReadyTick uint64
	// PrefetchPC is the trigger PC recorded at prefetch time, valid
	// when WasPrefetch.
	PrefetchPC uint64
	Hit        bool
	flags      uint8
}

// WasPrefetch reports whether this demand was the first use of a
// prefetched line.
func (r LookupResult) WasPrefetch() bool { return r.flags&flagPrefetched != 0 }

// Late reports whether the hit line's fill had not completed at the
// access tick.
func (r LookupResult) Late() bool { return r.flags&flagLate != 0 }

// Access performs a demand access for line l at tick now. On a hit the
// line is promoted (policy Hit) and prefetch provenance is consumed.
func (c *Cache) Access(l mem.Line, a replacement.Access, now uint64) LookupResult {
	c.stats.Accesses++
	s := c.set(l)
	t := c.tag(l)
	b := c.block(s)
	for w, tag := range b[:c.dataWays] {
		if tag != t {
			continue
		}
		c.stats.Hits++
		r := b[c.rec(w):]
		res := LookupResult{Hit: true, ReadyTick: r[recReady]}
		late := r[recReady] > now
		if r[recInfo]&flagPrefetched != 0 {
			res.flags = flagPrefetched
			res.PrefetchPC = r[recPfPC]
			r[recInfo] &^= flagPrefetched
			c.stats.PrefetchUsed++
			if late {
				res.flags |= flagLate
				c.stats.LatePrefetches++
			}
		}
		if a.Prefetch && late {
			res.flags |= flagLate
		}
		c.clock++
		b[c.ways+w] = c.clock
		c.policy.Hit(s, w, a)
		return res
	}
	c.stats.Misses++
	return LookupResult{}
}

// Fill installs line l, selecting a victim among the data ways. The
// displaced line (if any) is returned so the caller can issue a
// writeback. readyTick is when the fill data arrives.
func (c *Cache) Fill(l mem.Line, a replacement.Access, dirty bool, readyTick uint64) Eviction {
	s := c.set(l)
	t := c.tag(l)
	b := c.block(s)
	// Refill of an already-resident line (e.g. a prefetch racing a
	// demand fill): just update state.
	for w, tag := range b[:c.dataWays] {
		if tag != t {
			continue
		}
		r := b[c.rec(w):]
		if dirty {
			r[recInfo] |= flagDirty
		}
		if r[recReady] > readyTick {
			r[recReady] = readyTick
		}
		return Eviction{}
	}
	w := c.policy.Victim(s, a, b[c.ways:c.ways+c.dataWays])
	if w < 0 || w >= c.dataWays {
		panic(fmt.Sprintf("cache %s: policy %s returned way %d of %d", c.name, c.policy.Name(), w, c.dataWays))
	}
	ev := c.evict(s, w)
	var flags uint8
	if dirty {
		flags = flagDirty
	}
	if a.Prefetch {
		flags |= flagPrefetched
		c.stats.PrefetchFills++
	}
	c.clock++
	b[w], b[c.ways+w] = t, c.clock
	r := b[c.rec(w):]
	r[recReady], r[recPfPC], r[recInfo] = readyTick, a.PC, info(a.Core, flags)
	c.policy.Fill(s, w, a)
	return ev
}

// evict clears (s, w) and returns what was there.
func (c *Cache) evict(s, w int) Eviction {
	b := c.block(s)
	if b[w] == 0 {
		return Eviction{}
	}
	r := b[c.rec(w):]
	ev := Eviction{
		Line:  mem.Line((b[w]-1)<<c.tagShift | uint64(s)),
		Core:  int32(r[recInfo] >> infoCoreShift),
		flags: flagValid | uint8(r[recInfo])&(flagDirty|flagPrefetched),
	}
	c.stats.Evictions++
	if ev.Dirty() {
		c.stats.Writebacks++
	}
	if ev.Prefetch() {
		c.stats.PrefetchUnused++
	}
	b[w], b[c.ways+w], r[recInfo] = 0, 0, 0
	return ev
}

// MarkDirty sets the dirty bit of a resident line (store hit).
func (c *Cache) MarkDirty(l mem.Line) {
	t := c.tag(l)
	b := c.block(c.set(l))
	for w, tag := range b[:c.dataWays] {
		if tag == t {
			b[c.rec(w)+recInfo] |= flagDirty
			return
		}
	}
}

// Invalidate removes line l if resident, returning its eviction record.
func (c *Cache) Invalidate(l mem.Line) Eviction {
	s := c.set(l)
	t := c.tag(l)
	for w, tag := range c.block(s)[:c.ways] {
		if tag == t {
			return c.evict(s, w)
		}
	}
	return Eviction{}
}

// SetDataWays changes the number of ways available to data, evicting
// lines resident in removed ways. The returned slice contains the
// displaced lines (the hierarchy turns dirty ones into writebacks). Per
// the paper, shrinking the data partition flushes dirty lines and marks
// the ways invalid immediately.
func (c *Cache) SetDataWays(n int) []Eviction {
	if n < 1 || n > c.ways {
		panic(fmt.Sprintf("cache %s: SetDataWays(%d) with %d total ways", c.name, n, c.ways))
	}
	var evs []Eviction
	if n < c.dataWays {
		for s := 0; s < c.sets; s++ {
			for w := n; w < c.dataWays; w++ {
				if ev := c.evict(s, w); ev.Valid() {
					evs = append(evs, ev)
				}
			}
		}
	}
	c.dataWays = n
	return evs
}

// Occupancy returns the number of valid data lines (tests, debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for s := 0; s < c.sets; s++ {
		for _, tag := range c.block(s)[:c.dataWays] {
			if tag != 0 {
				n++
			}
		}
	}
	return n
}

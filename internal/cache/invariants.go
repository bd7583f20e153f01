package cache

import "fmt"

// CheckInvariants verifies the cache's structural invariants: geometry
// is internally consistent, a way's recency stamp is zero exactly when
// the way is empty and never ahead of the cache clock, no two valid
// ways of a set share a stamp (LRU order is total), no set holds two
// valid lines with the same tag, and no valid line sits in a way
// reserved for metadata (SetDataWays evicts on shrink, so residency
// above dataWays means a fill escaped the partition). O(sets x ways^2);
// debug mode only.
func (c *Cache) CheckInvariants() error {
	if c.dataWays < 1 || c.dataWays > c.ways {
		return fmt.Errorf("cache %s: dataWays=%d of %d ways", c.name, c.dataWays, c.ways)
	}
	if c.stride != c.ways*wordsPerWay || len(c.blk) != c.sets*c.stride {
		return fmt.Errorf("cache %s: block array inconsistent with %dx%d geometry",
			c.name, c.sets, c.ways)
	}
	for s := 0; s < c.sets; s++ {
		b := c.block(s)
		tags, stamps := b[:c.ways], b[c.ways:2*c.ways]
		for w, t := range tags {
			if (t == 0) != (stamps[w] == 0) {
				return fmt.Errorf("cache %s: set %d way %d tag %#x has recency stamp %d",
					c.name, s, w, t, stamps[w])
			}
			if stamps[w] > c.clock {
				return fmt.Errorf("cache %s: set %d way %d stamp %d ahead of clock %d",
					c.name, s, w, stamps[w], c.clock)
			}
			if t == 0 {
				continue
			}
			if w >= c.dataWays {
				return fmt.Errorf("cache %s: set %d way %d valid inside reserved partition (dataWays=%d)",
					c.name, s, w, c.dataWays)
			}
			for v := w + 1; v < c.dataWays; v++ {
				if tags[v] == t {
					return fmt.Errorf("cache %s: set %d ways %d and %d both hold tag %#x",
						c.name, s, w, v, t)
				}
				if tags[v] != 0 && stamps[v] == stamps[w] {
					return fmt.Errorf("cache %s: set %d ways %d and %d share recency stamp %d",
						c.name, s, w, v, stamps[w])
				}
			}
		}
	}
	return nil
}

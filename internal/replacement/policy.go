// Package replacement provides cache replacement policies: LRU, random,
// SRRIP, and Hawkeye (Jain & Lin, ISCA'16), which the paper uses both as
// an LLC policy and — in modified form — as Triage's metadata
// replacement policy and partition-utility estimator.
package replacement

import "repro/internal/mem"

// Access carries the information a policy may use on each cache access.
type Access struct {
	Line mem.Line
	PC   uint64
	// Core is the id of the requesting core (0 on single-core systems).
	Core int
	// Prefetch marks fills/touches caused by a prefetcher rather than a
	// demand access.
	Prefetch bool
}

// Policy decides which way to evict within a set and observes hits and
// fills. A single Policy instance serves one cache; implementations are
// sized with NewXxx(sets, ways).
//
// Recency is not policy state: the cache stamps every way with its own
// access clock on each hit and fill, keeps the stamps beside the tags,
// and hands them to Victim. LRU needs nothing more; the other policies
// keep whatever per-way state they rank by.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Hit notifies the policy that the line in (set, way) was accessed.
	Hit(set, way int, a Access)
	// Fill notifies the policy that a new line was installed in
	// (set, way).
	Fill(set, way int, a Access)
	// Victim selects the way to evict from set for the incoming access.
	// stamps[w] is way w's recency stamp: 0 when the way is empty,
	// otherwise the cache clock at its last hit or fill (larger is more
	// recent). Only len(stamps) ways are eligible — a way-partitioned
	// cache passes a shortened slice. Policies must return the first
	// empty way when one exists.
	Victim(set int, a Access, stamps []uint64) int
}

// preferInvalid returns the first empty way, or -1 if all hold a line.
func preferInvalid(stamps []uint64) int {
	for w, s := range stamps {
		if s == 0 {
			return w
		}
	}
	return -1
}

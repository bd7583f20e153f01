package cache

import (
	"strings"
	"testing"

	"repro/internal/replacement"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	return New("l2", 64, 8, replacement.NewLRU(64, 8))
}

func TestCheckInvariantsCleanCache(t *testing.T) {
	c := testCache(t)
	c.putLine(3, 0, 0x10)
	c.putLine(3, 1, 0x20)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean cache violates invariants: %v", err)
	}
}

func TestCheckInvariantsDuplicateTag(t *testing.T) {
	c := testCache(t)
	c.putLine(5, 0, 0x42)
	c.putLine(5, 3, 0x42)
	err := c.CheckInvariants()
	if err == nil {
		t.Fatal("duplicate tags in one set passed the invariant check")
	}
	if !strings.Contains(err.Error(), "both hold tag") {
		t.Errorf("violation %q does not identify the duplicate", err)
	}
}

func TestCheckInvariantsPartitionLeak(t *testing.T) {
	c := New("llc", 64, 16, replacement.NewLRU(64, 16))
	c.SetDataWays(12)
	c.putLine(0, 14, 0x99) // fill escaped into the reserved ways
	err := c.CheckInvariants()
	if err == nil {
		t.Fatal("valid line inside the metadata partition passed the invariant check")
	}
	if !strings.Contains(err.Error(), "reserved partition") {
		t.Errorf("violation %q does not identify the partition leak", err)
	}
}

package sim

import (
	"math"
	"os"
	"runtime/debug"
	"testing"
)

// TestMain bounds the test binary's heap (unless GOMEMLIMIT already
// does), which also sizes the process-wide warm-snapshot cache to a
// quarter of it: under the race detector every cached byte costs
// several, and the default 2 GiB cache would outgrow an 8 GB host.
func TestMain(m *testing.M) {
	if debug.SetMemoryLimit(-1) == math.MaxInt64 {
		debug.SetMemoryLimit(1 << 30)
	}
	os.Exit(m.Run())
}

package experiments

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
)

// TestWarmReuseByteIdentical checks the warm-snapshot acceptance
// criterion: a run that restores post-warmup machine state from the
// process snapshot cache must produce byte-identical CSVs and
// byte-identical sampled telemetry series compared to a run that
// simulated its warmup cold, on both a single-core figure and a
// multi-core mix figure.
func TestWarmReuseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	sim.GlobalWarmCache().Reset()
	t.Cleanup(sim.GlobalWarmCache().Reset)
	warmBudgetAtLeast(t, 512<<20)

	ids := []string{"fig05", "fig16"}
	cold, coldSamples := csvFor(t, tinyParams(), 4, ids)
	hits, _, stores := sim.GlobalWarmCache().Stats()
	if hits != 0 {
		t.Fatalf("cold run restored %d snapshots from an empty cache", hits)
	}
	if stores == 0 {
		t.Fatal("cold run stored no warm snapshots")
	}

	warm, warmSamples := csvFor(t, tinyParams(), 4, ids)
	hits, _, _ = sim.GlobalWarmCache().Stats()
	if hits == 0 {
		t.Fatal("second run restored no warm snapshots")
	}

	if !bytes.Equal(cold, warm) {
		t.Errorf("warm-restored output differs from cold warmup:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if len(warmSamples) != len(coldSamples) {
		t.Fatalf("sample series count differs: cold=%d warm=%d", len(coldSamples), len(warmSamples))
	}
	for key, want := range coldSamples {
		got, ok := warmSamples[key]
		if !ok {
			t.Errorf("series %q missing on the warm-restored run", key)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("series %q differs between cold and warm runs:\n--- cold ---\n%s\n--- warm ---\n%s", key, want, got)
		}
	}
}

// warmBudgetAtLeast raises the runtime memory limit for the rest of
// the test, if needed, so that the process-wide warm-snapshot cache
// (sized to a quarter of the limit) holds at least budget bytes. The
// cold fig05+fig16 run stores about 380 MiB of snapshots; under
// TestMain's 1 GiB limit the cache holds 256 MiB, and the second run,
// which looks the keys up in the order the first stored them, would
// find only what LRU eviction happened to spare, which depends on the
// order cells finish in and is often nothing at GOMAXPROCS 1 or 2.
func warmBudgetAtLeast(t *testing.T, budget int64) {
	t.Helper()
	old := debug.SetMemoryLimit(-1)
	if old/4 >= budget {
		return
	}
	debug.SetMemoryLimit(4 * budget)
	t.Cleanup(func() { debug.SetMemoryLimit(old) })
}

// TestWarmKeyNoCrossMixCollision pins the warm-key naming contract for
// multi-programmed mixes. Every mix figure numbers its mixes "mix1"..,
// but the benchmark compositions differ per figure, so a warm key
// derived from the display name alone would let fig18's cells restore
// fig16's warm state (same machine shape, same warmup — the snapshot
// signature cannot tell the workloads apart). The key must therefore
// encode the composition: fig18 simulated after fig16 has populated
// the snapshot cache must match fig18 simulated alone.
func TestWarmKeyNoCrossMixCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	sim.GlobalWarmCache().Reset()
	t.Cleanup(sim.GlobalWarmCache().Reset)

	alone, _ := csvFor(t, tinyParams(), 4, []string{"fig18"})
	sim.GlobalWarmCache().Reset()
	both, _ := csvFor(t, tinyParams(), 4, []string{"fig16", "fig18"})
	if !bytes.HasSuffix(both, alone) {
		t.Errorf("fig18 output changes when fig16 ran first (warm-key collision):\n--- alone ---\n%s\n--- after fig16 ---\n%s", alone, both)
	}
}

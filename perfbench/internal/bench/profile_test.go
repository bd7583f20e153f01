package bench

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/flat"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).evict":                                                    "cache",
		"repro/internal/flat.(*LRU[go.shape.struct { a uint64; b repro/internal/core.x }]).Find": "flat",
		"repro/internal/flat.NewLRU[go.shape.uint64]":                                            "flat",
		"repro/internal/prefetch/misb.(*Prefetcher).Train":                                       "prefetch",
		"repro/internal/experiments.Go[go.shape.struct {}].func1":                                "experiments",
		"repro/internal/sim.(*Machine).Run.func2":                                                "sim",
		"repro/internal/config.Default":                                                          "other",
		"repro/internal/telemetry.(*Sampler).Observe":                                            "other",
		"repro/perfbench/internal/bench.runFigures":                                              "other",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/atomic.(*Uint32).Load":       "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":   "other",
		"compress/flate.(*decompressor).huffmanBlock":  "other",
		"net/http.(*conn).serve":                       "other",
		"":                                             "other",
	} {
		if got := ModuleOf(fn); got != want {
			t.Errorf("ModuleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestUnderCollector(t *testing.T) {
	if !underCollector([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}) {
		t.Error("mark worker stack not attributed to the collector")
	}
	if underCollector([]string{"runtime.mallocgc", "repro/internal/cache.New"}) {
		t.Error("plain allocation attributed to the collector")
	}
}

var flatSink uint64

// TestSplitProfileAddsUp profiles real work in a repro package and
// checks that the split finds it and that the modules sum to the total.
func TestSplitProfileAddsUp(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	m := flat.NewMap(1 << 10)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for k := uint64(0); k < 1<<16; k++ {
			m.Set(k*0x9e3779b97f4a7c15, k)
			v, _ := m.Get(k * 0x9e3779b97f4a7c15)
			flatSink += v
		}
		m.Reset()
	}
	pprof.StopCPUProfile()
	split, err := SplitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range split.ByModule {
		sum += ns
	}
	if sum != split.Total || split.Total == 0 {
		t.Fatalf("modules sum to %d ns, total %d ns", sum, split.Total)
	}
	if split.ByModule["flat"] < split.Total/4 {
		t.Errorf("flat got %d of %d ns; the profiled loop is mostly flat.Map", split.ByModule["flat"], split.Total)
	}
}

func TestCheckCPUSum(t *testing.T) {
	layer := map[string]float64{"cache.cpu_s": 1.5, "runtime.cpu_s": 0.25, "other.cpu_s": 0.25, "bench.cpu_total_s": 2}
	if p := checkCPUSum(layer); p != nil {
		t.Errorf("matching rows reported: %v", p)
	}
	layer["bench.cpu_total_s"] = 3
	if p := checkCPUSum(layer); p == nil {
		t.Error("mismatched rows not reported")
	}
}

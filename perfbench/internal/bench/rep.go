package bench

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
)

// Workloads are the benchmark's workloads, in the order the README
// describes them.
var Workloads = []string{"figs-single", "figs-multi", "svc-local", "svc-cluster"}

// IsWorkload reports whether name is a known workload.
func IsWorkload(name string) bool {
	for _, w := range Workloads {
		if w == name {
			return true
		}
	}
	return false
}

// RepResult is what one repetition of a workload reports to the
// orchestrating process.
type RepResult struct {
	// WallS is the host time of the workload's fixed work.
	WallS float64 `json:"wall_s"`
	// LatenciesMS are the per-request latencies: one per job on the
	// service workloads, one per figure (from the start of the batch) on
	// the figure workloads.
	LatenciesMS []float64 `json:"latencies_ms"`
	// Attempted and Failed count jobs (service) or table cells
	// (figures); a refused submission counts as failed.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Digest hashes the workload's outputs: the rendered figure tables,
	// or every job payload in key order.
	Digest string `json:"digest"`
	// Payloads maps each job's spec key to its result payload (service
	// workloads), for the reference check.
	Payloads map[string]string `json:"payloads,omitempty"`
	// Problems lists output checks that failed inside the repetition.
	Problems []string `json:"problems,omitempty"`
	// Layer holds the per-layer values a traced repetition measured.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Spans are the traced repetition's spans.
	Spans []Span `json:"spans,omitempty"`
}

// Rep runs one repetition of a workload in this process. ready is
// called once set-up is complete, right before the timed work starts.
// A traced repetition also takes a CPU profile of the timed work,
// reads runtime/metrics around it, and records spans. Each workload
// calls begin after its set-up and end right after its timed work.
func Rep(name string, seed uint64, traced bool, workdir string, ready func()) (RepResult, error) {
	var spans *Spans
	if traced {
		spans = NewSpans()
	}
	var run func(begin, end func()) (RepResult, error)
	if set, ok := figureSets[name]; ok {
		run = func(begin, end func()) (RepResult, error) { return runFigures(seed, set, spans, begin, end) }
	} else if name == "svc-local" || name == "svc-cluster" {
		run = func(begin, end func()) (RepResult, error) {
			return runService(seed, name == "svc-cluster", workdir, spans, begin, end)
		}
	} else {
		return RepResult{}, fmt.Errorf("unknown workload %q", name)
	}
	var prof bytes.Buffer
	var before, after []metrics.Sample
	var profErr error
	begin := func() {
		ready()
		if traced {
			before = readRuntime()
			profErr = pprof.StartCPUProfile(&prof)
		}
	}
	end := func() {
		if traced {
			pprof.StopCPUProfile()
			after = readRuntime()
		}
	}
	res, err := run(begin, end)
	if !traced || err != nil {
		return res, err
	}
	if profErr != nil {
		return res, fmt.Errorf("starting CPU profile: %w", profErr)
	}
	split, err := SplitProfile(prof.Bytes())
	if err != nil {
		return res, err
	}
	if res.Layer == nil {
		res.Layer = make(map[string]float64)
	}
	for _, m := range cpuModules {
		res.Layer[m+".cpu_s"] = nsToS(split.ByModule[m])
	}
	res.Layer["runtime.gc_cpu_s"] = nsToS(split.ByModule["runtime.gc"])
	res.Layer["runtime.cpu_s"] = nsToS(split.ByModule["runtime"])
	res.Layer["other.cpu_s"] = nsToS(split.ByModule["other"])
	res.Layer["bench.cpu_total_s"] = nsToS(split.Total)
	if instr := res.Layer["sim.stepped_minstr"]; instr > 0 {
		res.Layer["sim.cpu_ns_per_instr"] = float64(split.Total) / (instr * 1e6)
	} else {
		res.Layer["sim.cpu_ns_per_instr"] = 0
	}
	res.Layer["runtime.alloc_mb"] = float64(after[0].Value.Uint64()-before[0].Value.Uint64()) / 1e6
	res.Layer["runtime.gc_cycles"] = float64(after[1].Value.Uint64() - before[1].Value.Uint64())
	res.Layer["runtime.heap_live_mb_end"] = float64(after[2].Value.Uint64()) / 1e6
	res.Spans = spans.List()
	return res, nil
}

// readRuntime samples the runtime/metrics the ledger reports:
// cumulative bytes allocated, completed GC cycles, and live heap.
func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return s
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }

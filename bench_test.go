// Package repro's root benchmarks regenerate every table and figure of
// the paper at reduced scale: one testing.B benchmark per artifact,
// each reporting its headline number via b.ReportMetric. Run the full
// harness with cmd/experiments; run these with
//
//	go test -bench=. -benchmem
//
// Benchmarks use small instruction windows so the whole suite completes
// in minutes; cmd/experiments (optionally -full) produces the
// paper-scale numbers recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bo"
	"repro/internal/prefetch/domino"
	"repro/internal/prefetch/hybrid"
	"repro/internal/prefetch/misb"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/stms"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchWindows are deliberately small; they preserve each figure's
// qualitative shape, not its converged magnitude.
const (
	benchWarmup  = 1_200_000
	benchMeasure = 600_000
)

func llcTicks1() uint64 {
	m := config.Default(1)
	return uint64(m.LLCLatency) * dram.TicksPerCycle
}

func runBench(b *testing.B, name string, pf prefetch.Prefetcher, cores int) sim.Result {
	b.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	m := config.Default(cores)
	ws := make([]trace.Reader, cores)
	pfs := make([]prefetch.Prefetcher, cores)
	for c := 0; c < cores; c++ {
		ws[c] = spec.New(uint64(c)+1, mem.Addr(c+1)<<40)
		pfs[c] = pf
		if c > 0 {
			pfs[c] = nil // single prefetcher instance only on core 0 for simplicity
		}
	}
	machine, err := sim.New(sim.Options{
		Machine:             m,
		Workloads:           ws,
		Prefetchers:         pfs,
		WarmupInstructions:  benchWarmup,
		MeasureInstructions: benchMeasure,
	})
	if err != nil {
		b.Fatal(err)
	}
	return machine.Run()
}

// speedupOn measures pf's speedup over no prefetching on one benchmark.
func speedupOn(b *testing.B, bench string, mk func() prefetch.Prefetcher) float64 {
	b.Helper()
	base := runBench(b, bench, nil, 1)
	with := runBench(b, bench, mk(), 1)
	return with.SpeedupOver(base)
}

func mkTriage1M() prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20, LLCLatencyTicks: llcTicks1()})
}

func mkTriageDyn() prefetch.Prefetcher {
	return core.New(core.Config{Mode: core.Dynamic, LLCLatencyTicks: llcTicks1()})
}

// BenchmarkFig01Reuse regenerates the metadata reuse distribution.
func BenchmarkFig01Reuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tri := core.New(core.Config{Mode: core.Unlimited})
		runBench(b, "mcf", tri, 1)
		counts := tri.ReuseCounts()
		if len(counts) == 0 {
			b.Fatal("no metadata recorded")
		}
		// At bench scale few entries exceed the paper's 15-reuse mark,
		// so report the skew as top-entry reuse and the share of
		// entries with any reuse at all.
		var max, reused uint64
		for _, c := range counts {
			if c > max {
				max = c
			}
			if c > 0 {
				reused++
			}
		}
		b.ReportMetric(float64(max), "max-reuse")
		b.ReportMetric(100*float64(reused)/float64(len(counts)), "pct-entries-reused")
	}
}

// BenchmarkFig05Speedup regenerates the headline Triage-vs-on-chip
// comparison on one representative benchmark per class.
func BenchmarkFig05Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedupOn(b, "xalancbmk", mkTriage1M), "triage-speedup")
		b.ReportMetric(speedupOn(b, "xalancbmk", func() prefetch.Prefetcher { return bo.New() }), "bo-speedup")
	}
}

// BenchmarkFig06CovAcc regenerates coverage/accuracy.
func BenchmarkFig06CovAcc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runBench(b, "omnetpp", nil, 1)
		with := runBench(b, "omnetpp", mkTriage1M(), 1)
		b.ReportMetric(with.CoverageOver(base)*100, "coverage-pct")
		b.ReportMetric(with.Accuracy()*100, "accuracy-pct")
	}
}

// BenchmarkFig07Breakdown regenerates the capacity-loss breakdown.
func BenchmarkFig07Breakdown(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	for i := 0; i < b.N; i++ {
		mk := func(llcBytes int, pf prefetch.Prefetcher, free bool) sim.Result {
			m := config.Default(1)
			m.LLCBytesPerCore = llcBytes
			machine, err := sim.New(sim.Options{
				Machine:             m,
				Workloads:           []trace.Reader{spec.New(1, 0)},
				Prefetchers:         []prefetch.Prefetcher{pf},
				WarmupInstructions:  benchWarmup,
				MeasureInstructions: benchMeasure,
				NoCapacityLoss:      free,
			})
			if err != nil {
				b.Fatal(err)
			}
			return machine.Run()
		}
		base := mk(2<<20, nil, false)
		freeStore := mk(2<<20, mkTriage1M(), true)
		halfLLC := mk(1<<20, nil, false)
		b.ReportMetric(freeStore.SpeedupOver(base), "free-store-speedup")
		b.ReportMetric(halfLLC.SpeedupOver(base), "half-llc-speedup")
	}
}

// BenchmarkFig08Regular shows Triage-Dynamic doing no harm on a
// regular benchmark where static partitioning hurts.
func BenchmarkFig08Regular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedupOn(b, "milc", mkTriageDyn), "dyn-speedup")
		b.ReportMetric(speedupOn(b, "milc", func() prefetch.Prefetcher { return bo.New() }), "bo-speedup")
	}
}

// BenchmarkFig09Sensitivity compares LRU vs Hawkeye metadata
// replacement at a small store size.
func BenchmarkFig09Sensitivity(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	for i := 0; i < b.N; i++ {
		run := func(repl core.Replacement) sim.Result {
			m := config.Default(1)
			machine, err := sim.New(sim.Options{
				Machine: m,
				Workloads: []trace.Reader{
					spec.New(1, 0),
				},
				Prefetchers: []prefetch.Prefetcher{core.New(core.Config{
					Mode: core.Static, StaticBytes: 256 << 10,
					Replacement: repl, LLCLatencyTicks: llcTicks1(),
				})},
				WarmupInstructions:  benchWarmup,
				MeasureInstructions: benchMeasure,
				NoCapacityLoss:      true,
			})
			if err != nil {
				b.Fatal(err)
			}
			return machine.Run()
		}
		base := runBench(b, "mcf", nil, 1)
		b.ReportMetric(run(core.LRU).SpeedupOver(base), "lru-256k-speedup")
		b.ReportMetric(run(core.Hawkeye).SpeedupOver(base), "hawkeye-256k-speedup")
	}
}

// BenchmarkFig10Hybrid regenerates the BO+Triage hybrid comparison.
func BenchmarkFig10Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := speedupOn(b, "soplex_k", func() prefetch.Prefetcher {
			return hybrid.New(mkTriageDyn(), bo.New())
		})
		b.ReportMetric(sp, "hybrid-speedup")
	}
}

// BenchmarkFig11OffChip regenerates the off-chip temporal prefetcher
// comparison (speedup and traffic) on mcf.
func BenchmarkFig11OffChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runBench(b, "mcf", nil, 1)
		mi := runBench(b, "mcf", misb.New(), 1)
		tr := runBench(b, "mcf", mkTriage1M(), 1)
		st := runBench(b, "mcf", stms.New(), 1)
		b.ReportMetric(mi.SpeedupOver(base), "misb-speedup")
		b.ReportMetric(tr.SpeedupOver(base), "triage-speedup")
		b.ReportMetric(st.SpeedupOver(base), "stms-speedup")
		b.ReportMetric(mi.TrafficOverheadPct(base), "misb-traffic-pct")
		b.ReportMetric(tr.TrafficOverheadPct(base), "triage-traffic-pct")
	}
}

// BenchmarkFig12DesignSpace reports the two axes of the design-space
// scatter for Triage.
func BenchmarkFig12DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runBench(b, "omnetpp", nil, 1)
		tr := runBench(b, "omnetpp", mkTriage1M(), 1)
		b.ReportMetric(tr.SpeedupOver(base), "speedup")
		b.ReportMetric(tr.TrafficOverheadPct(base), "traffic-pct")
	}
}

// BenchmarkFig13Energy regenerates the metadata energy comparison.
func BenchmarkFig13Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := runBench(b, "mcf", mkTriage1M(), 1)
		mi := runBench(b, "mcf", misb.New(), 1)
		te := float64(tr.TriageLLCMetadataAccesses)
		me := float64(mi.MISBOffChipMetadataAccesses)
		if te == 0 {
			b.Fatal("no Triage metadata accesses")
		}
		b.ReportMetric(me*25/te, "misb-energy-ratio@25")
	}
}

// BenchmarkFig14CloudSuite runs one server workload on 4 cores with
// the BO+Triage hybrid.
func BenchmarkFig14CloudSuite(b *testing.B) {
	spec, _ := workload.ByName("classification")
	for i := 0; i < b.N; i++ {
		run := func(mk func() prefetch.Prefetcher) sim.Result {
			m := config.Default(4)
			ws := make([]trace.Reader, 4)
			pfs := make([]prefetch.Prefetcher, 4)
			for c := 0; c < 4; c++ {
				ws[c] = spec.New(uint64(c)+1, mem.Addr(c+1)<<40)
				if mk != nil {
					pfs[c] = mk()
				}
			}
			machine, err := sim.New(sim.Options{
				Machine: m, Workloads: ws, Prefetchers: pfs,
				WarmupInstructions:  benchWarmup,
				MeasureInstructions: benchMeasure / 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			return machine.Run()
		}
		base := run(nil)
		hyb := run(func() prefetch.Prefetcher { return hybrid.New(mkTriageDyn(), bo.New()) })
		b.ReportMetric(hyb.SpeedupOver(base), "bo+triage-speedup")
	}
}

// benchMix runs one 4-core mix under a prefetcher factory.
func benchMix(b *testing.B, irregularOnly bool, mk func() prefetch.Prefetcher) float64 {
	b.Helper()
	mix := workload.Mixes(1, 4, 7, irregularOnly)[0]
	run := func(use bool) sim.Result {
		m := config.Default(4)
		ws := make([]trace.Reader, 4)
		pfs := make([]prefetch.Prefetcher, 4)
		for c, spec := range mix.Specs {
			ws[c] = spec.New(uint64(c)+11, mem.Addr(c+1)<<40)
			if use {
				pfs[c] = mk()
			}
		}
		machine, err := sim.New(sim.Options{
			Machine: m, Workloads: ws, Prefetchers: pfs,
			WarmupInstructions:  benchWarmup,
			MeasureInstructions: benchMeasure / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		return machine.Run()
	}
	base := run(false)
	return run(true).SpeedupOver(base)
}

// BenchmarkFig15DynShared compares static vs dynamic partitioning on a
// shared-LLC mix.
func BenchmarkFig15DynShared(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := benchMix(b, true, func() prefetch.Prefetcher {
			return core.New(core.Config{Mode: core.Static, StaticBytes: 1 << 20, LLCLatencyTicks: llcTicks1()})
		})
		dy := benchMix(b, true, mkTriageDyn)
		b.ReportMetric(st, "static-speedup")
		b.ReportMetric(dy, "dynamic-speedup")
	}
}

// BenchmarkFig16FourCore runs the irregular-mix hybrid comparison.
func BenchmarkFig16FourCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(benchMix(b, true, func() prefetch.Prefetcher {
			return hybrid.New(mkTriageDyn(), bo.New())
		}), "bo+triage-speedup")
	}
}

// BenchmarkFig17Scaling compares MISB and Triage on an 8-core mix (the
// bandwidth-constrained regime; the full 2/4/8/16 sweep lives in
// cmd/experiments).
func BenchmarkFig17Scaling(b *testing.B) {
	mix := workload.Mixes(1, 8, 50, true)[0]
	run := func(mk func() prefetch.Prefetcher) sim.Result {
		m := config.Default(8)
		ws := make([]trace.Reader, 8)
		pfs := make([]prefetch.Prefetcher, 8)
		for c, spec := range mix.Specs {
			ws[c] = spec.New(uint64(c)+3, mem.Addr(c+1)<<40)
			if mk != nil {
				pfs[c] = mk()
			}
		}
		machine, err := sim.New(sim.Options{
			Machine: m, Workloads: ws, Prefetchers: pfs,
			WarmupInstructions:  benchWarmup / 2,
			MeasureInstructions: benchMeasure / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		return machine.Run()
	}
	for i := 0; i < b.N; i++ {
		base := run(nil)
		b.ReportMetric(run(func() prefetch.Prefetcher { return misb.New() }).SpeedupOver(base), "misb-speedup")
		b.ReportMetric(run(mkTriageDyn).SpeedupOver(base), "triage-speedup")
	}
}

// BenchmarkFig18MixedRegular runs a mixed regular+irregular 4-core mix.
func BenchmarkFig18MixedRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(benchMix(b, false, func() prefetch.Prefetcher {
			return hybrid.New(mkTriageDyn(), bo.New())
		}), "bo+triage-speedup")
	}
}

// BenchmarkFig19WayAlloc reports the spread of per-core metadata way
// allocations on a mixed mix.
func BenchmarkFig19WayAlloc(b *testing.B) {
	mix := workload.Mixes(1, 4, 99, false)[0]
	for i := 0; i < b.N; i++ {
		m := config.Default(4)
		ws := make([]trace.Reader, 4)
		pfs := make([]prefetch.Prefetcher, 4)
		for c, spec := range mix.Specs {
			ws[c] = spec.New(uint64(c)+17, mem.Addr(c+1)<<40)
			pfs[c] = mkTriageDyn()
		}
		machine, err := sim.New(sim.Options{
			Machine: m, Workloads: ws, Prefetchers: pfs,
			WarmupInstructions:  benchWarmup,
			MeasureInstructions: benchMeasure / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := machine.Run()
		min, max := 1e18, 0.0
		for _, cr := range res.Cores {
			if cr.AvgMetadataWays < min {
				min = cr.AvgMetadataWays
			}
			if cr.AvgMetadataWays > max {
				max = cr.AvgMetadataWays
			}
		}
		b.ReportMetric(max-min, "way-allocation-spread")
	}
}

// BenchmarkFig20Degree regenerates the degree sensitivity at degree 4.
func BenchmarkFig20Degree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := speedupOn(b, "xalancbmk", func() prefetch.Prefetcher {
			return core.New(core.Config{
				Mode: core.Static, StaticBytes: 1 << 20,
				Degree: 4, LLCLatencyTicks: llcTicks1(),
			})
		})
		b.ReportMetric(sp, "triage-d4-speedup")
	}
}

// BenchmarkSensEpoch checks partition-epoch insensitivity.
func BenchmarkSensEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, epoch := range []int{10_000, 200_000} {
			sp := speedupOn(b, "omnetpp", func() prefetch.Prefetcher {
				return core.New(core.Config{Mode: core.Dynamic, EpochAccesses: epoch, LLCLatencyTicks: llcTicks1()})
			})
			b.ReportMetric(sp, fmt.Sprintf("epoch%dk-speedup", epoch/1000))
		}
	}
}

// BenchmarkSensLatency checks the +6 cycle LLC latency penalty.
func BenchmarkSensLatency(b *testing.B) {
	spec, _ := workload.ByName("omnetpp")
	for i := 0; i < b.N; i++ {
		m := config.Default(1)
		m.LLCExtraLatency = 6
		machine, err := sim.New(sim.Options{
			Machine:   m,
			Workloads: []trace.Reader{spec.New(1, 0)},
			Prefetchers: []prefetch.Prefetcher{core.New(core.Config{
				Mode: core.Static, StaticBytes: 1 << 20,
				LLCLatencyTicks: uint64(m.LLCLatency+6) * dram.TicksPerCycle,
			})},
			WarmupInstructions:  benchWarmup,
			MeasureInstructions: benchMeasure,
		})
		if err != nil {
			b.Fatal(err)
		}
		penalized := machine.Run()
		base := runBench(b, "omnetpp", nil, 1)
		b.ReportMetric(penalized.SpeedupOver(base), "speedup-at+6cyc")
	}
}

// BenchmarkAblationEntryWidth quantifies the value of the 4-byte
// compressed-tag entry format (§3.2): 8-byte full-tag entries halve the
// effective store capacity, which is exactly a 512KB store in a 1MB
// partition.
func BenchmarkAblationEntryWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compressed := speedupOn(b, "mcf", mkTriage1M) // 4B entries: 256K entries/MB
		full := speedupOn(b, "mcf", func() prefetch.Prefetcher {
			// 8B entries: half the entries in the same silicon.
			return core.New(core.Config{Mode: core.Static, StaticBytes: 512 << 10, LLCLatencyTicks: llcTicks1()})
		})
		b.ReportMetric(compressed, "4B-entry-speedup")
		b.ReportMetric(full, "8B-entry-speedup")
	}
}

// BenchmarkAblationReplacement isolates the metadata replacement policy
// at the paper's store sizes (DESIGN.md ablation).
func BenchmarkAblationReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, repl := range []core.Replacement{core.LRU, core.Hawkeye} {
			repl := repl
			sp := speedupOn(b, "mcf", func() prefetch.Prefetcher {
				return core.New(core.Config{
					Mode: core.Static, StaticBytes: 512 << 10,
					Replacement: repl, LLCLatencyTicks: llcTicks1(),
				})
			})
			name := "lru-speedup"
			if repl == core.Hawkeye {
				name = "hawkeye-speedup"
			}
			b.ReportMetric(sp, name)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions per second of host time), the simulator's own cost.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(uint64(i)+1, 0)},
			MeasureInstructions: 1_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		machine.Run()
	}
	b.ReportMetric(float64(b.N)*1_000_000/b.Elapsed().Seconds(), "sim-instr/s")
}

// The remaining zoo components get smoke benches so regressions in any
// prefetcher's cost show up in -bench runs.
func BenchmarkPrefetcherTrainCost(b *testing.B) {
	gens := map[string]prefetch.Prefetcher{
		"bo":     bo.New(),
		"sms":    sms.New(),
		"stms":   stms.New(),
		"domino": domino.New(),
		"misb":   misb.New(),
		"triage": mkTriage1M().(*core.Triage),
	}
	for name, pf := range gens {
		b.Run(name, func(b *testing.B) {
			r := workload.NewChase(workload.ChaseParams{
				Nodes: 64 << 10, Streams: 2, HotFrac: 0.5, HotProb: 0.8, RunLen: 128, Gap: 0,
			}, 9, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, _ := r.Next()
				if rec.Op != trace.Load {
					continue
				}
				pf.Train(prefetch.Event{PC: rec.PC, Line: mem.LineOf(rec.Addr), Miss: true, Tick: uint64(i)})
			}
		})
	}
}

// BenchmarkExperimentRegistry sanity-runs the experiment registry
// plumbing (no simulations).
func BenchmarkExperimentRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.All()) < 19 {
			b.Fatal("experiment registry incomplete")
		}
	}
}

// --- Step-loop microbenchmarks (BENCH_sim.json "micro" rows) ---
//
// These two isolate the simulator's hot machinery rather than a
// figure: the batched retirement loop itself and the devirtualized
// prefetcher dispatch path. Merge their results into BENCH_sim.json
// with:
//
//	go test -run '^$' -bench 'StepLoop|PrefetchDispatch' . |
//	    go run ./cmd/benchmerge -file BENCH_sim.json -pkg repro

// BenchmarkStepLoop measures the raw batched step loop: one core, no
// prefetcher, so nothing but dispatch, cache lookups, and retirement.
func BenchmarkStepLoop(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	const instr = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(uint64(i)+1, 0)},
			MeasureInstructions: instr,
		})
		if err != nil {
			b.Fatal(err)
		}
		machine.Run()
	}
	b.ReportMetric(float64(b.N)*instr/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkPrefetchDispatch measures the step loop with a Triage
// prefetcher attached: every L2 event goes through the function-
// pointer dispatch table resolved at machine construction.
func BenchmarkPrefetchDispatch(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	const instr = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := sim.New(sim.Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{spec.New(uint64(i)+1, 0)},
			Prefetchers:         []prefetch.Prefetcher{mkTriage1M()},
			MeasureInstructions: instr,
		})
		if err != nil {
			b.Fatal(err)
		}
		machine.Run()
	}
	b.ReportMetric(float64(b.N)*instr/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

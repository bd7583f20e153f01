package main

import (
	"path/filepath"
	"testing"

	"repro/internal/benchfile"
	"repro/internal/experiments"
)

// TestBenchTotalRowRecordsWindows runs the -bench path on one small
// experiment and checks that the suite "total" row records the same
// instruction windows as the experiment rows, the multi-core windows
// included.
func TestBenchTotalRowRecordsWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	e, ok := experiments.ByID("fig01")
	if !ok {
		t.Fatal("fig01 not registered")
	}
	p := experiments.Params{Warmup: 20_000, Measure: 20_000, MultiWarmup: 30_000, MultiMeasure: 10_000, Mixes: 2, Seed: 7}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := runBench(path, p, experiments.NewPool(1), []experiments.Experiment{e}, "", false); err != nil {
		t.Fatal(err)
	}
	report, err := benchfile.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 2 || report.Experiments[1].Experiment != "total" {
		t.Fatalf("report rows = %+v, want fig01 then total", report.Experiments)
	}
	for _, row := range report.Experiments {
		if row.WarmupInstr != p.Warmup || row.MeasureInstr != p.Measure ||
			row.MultiWarmupInstr != p.MultiWarmup || row.MultiMeasure != p.MultiMeasure {
			t.Errorf("%s row windows = %d/%d/%d/%d, want %d/%d/%d/%d", row.Experiment,
				row.WarmupInstr, row.MeasureInstr, row.MultiWarmupInstr, row.MultiMeasure,
				p.Warmup, p.Measure, p.MultiWarmup, p.MultiMeasure)
		}
	}
}

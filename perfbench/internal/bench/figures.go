package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Figure-workload scale. The windows are far below the paper's so that
// one repetition takes seconds on a 2-core host; the figures' shapes
// do not matter here, only that the same work runs every time.
const (
	figWarmup       = 500_000
	figMeasure      = 500_000
	figMultiWarmup  = 60_000
	figMultiMeasure = 60_000
	figMixes        = 4
	poolWorkers     = 2
)

// figureSet is what one repetition of a figure workload runs: the
// figures, in order, once per batch. Each batch has its own experiment
// seed. The multi-core figures draw their mixes from the seed, and four
// mixes of four benchmarks make a batch's cost swing with the draw; a
// repetition of several batches averages that out.
type figureSet struct {
	figs    []string
	batches int
}

var figureSets = map[string]figureSet{
	"figs-single": {[]string{"fig05", "fig06", "fig08"}, 1},
	"figs-multi":  {[]string{"fig15", "fig16", "fig17"}, 3},
}

// FigureParams returns the experiment parameters of batch b of a figure
// workload with the given number of batches, for a benchmark seed.
func FigureParams(seed uint64, b, batches int) experiments.Params {
	p := experiments.DefaultParams()
	p.Warmup, p.Measure = figWarmup, figMeasure
	p.MultiWarmup, p.MultiMeasure = figMultiWarmup, figMultiMeasure
	p.Mixes = figMixes
	p.Seed = seed*uint64(batches) + uint64(b)
	return p
}

// runFigures constructs one Runner on a 2-worker pool per batch (the
// set-up), then runs the batches one after another, each running its
// figures in order. The repetition is one request for all its tables: a
// figure's latency runs from the start of the first batch to its
// finished table, not counting the pause between batches.
func runFigures(seed uint64, set figureSet, spans *Spans, begin, end func()) (RepResult, error) {
	exps := make([]experiments.Experiment, len(set.figs))
	for i, id := range set.figs {
		e, ok := experiments.ByID(id)
		if !ok {
			return RepResult{}, fmt.Errorf("unknown figure %s", id)
		}
		exps[i] = e
	}
	runners := make([]*experiments.Runner, set.batches)
	for b := range runners {
		runners[b] = experiments.NewRunnerPool(FigureParams(seed, b, set.batches), experiments.NewPool(poolWorkers))
	}
	begin()

	res := RepResult{Layer: make(map[string]float64)}
	for _, id := range []string{"fig05", "fig06", "fig08", "fig15", "fig16", "fig17"} {
		res.Layer["experiments."+id+"_s"] = 0
	}
	var warm [3]uint64
	addWarm := func() {
		h, m, s := sim.GlobalWarmCache().Stats()
		warm[0], warm[1], warm[2] = warm[0]+h, warm[1]+m, warm[2]+s
	}
	h := sha256.New()
	var elapsed time.Duration
	for b, r := range runners {
		if b > 0 {
			// Batches have different seeds, so they share no warm keys:
			// dropping the previous batch's snapshots loses no reuse and
			// keeps the process at one batch's footprint.
			addWarm()
			sim.GlobalWarmCache().Reset()
			runtime.GC()
		}
		start := time.Now()
		for _, e := range exps {
			t0 := time.Now()
			table := experiments.RunOne(r, e)
			t1 := time.Now()
			spans.Add("experiments."+e.ID, fmt.Sprintf("batch-%d", b), 0, t0, t1)
			res.LatenciesMS = append(res.LatenciesMS, float64((elapsed+t1.Sub(start)).Nanoseconds())/1e6)
			res.Layer["experiments."+e.ID+"_s"] += t1.Sub(t0).Seconds()
			var buf bytes.Buffer
			table.Fprint(&buf)
			h.Write(buf.Bytes())
			cells, failed := countCells(table)
			res.Attempted += cells
			res.Failed += failed
			if table.Failed {
				res.Problems = append(res.Problems, fmt.Sprintf("batch %d %s: table failed", b, e.ID))
			}
		}
		elapsed += time.Since(start)
		res.Layer["sim.cells"] += float64(r.Runs())
		res.Layer["sim.stepped_minstr"] += float64(r.SimulatedInstructions()) / 1e6
	}
	res.WallS = elapsed.Seconds()
	end()
	addWarm()
	res.Layer["sim.warm_hits"], res.Layer["sim.warm_misses"], res.Layer["sim.warm_stores"] =
		float64(warm[0]), float64(warm[1]), float64(warm[2])
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// countCells counts a table's data cells (every column but the row
// label) and the ERROR cells among them. A failed table without ERROR
// cells failed as a whole, so all its cells count as failed.
func countCells(t *experiments.Table) (cells, failed int) {
	for _, row := range t.Rows {
		for _, c := range row[min(1, len(row)):] {
			cells++
			if c == "ERROR" {
				failed++
			}
		}
	}
	if t.Failed && failed == 0 {
		cells = max(cells, 1)
		failed = cells
	}
	return cells, failed
}

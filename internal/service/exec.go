package service

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sink receives a running job's live telemetry: retired-instruction
// progress and, for sampled single runs, each interval sample as the
// simulator emits it. A local job streams into its own Job; a cluster
// worker streams into the event batches it posts to the coordinator,
// which folds them into the same Job methods.
type Sink interface {
	telemetry.ProgressSink
	OnSample(telemetry.Sample)
}

// figureProgressEvery paces how often a figure job's runner-wide
// instruction count is forwarded to its sink.
const figureProgressEvery = 50 * time.Millisecond

// Execute runs one normalized job spec on pool under the watchdog
// bounds (zero disables either) and returns the result envelope a
// client is served. It is the only execution path: the server's
// in-process workers and cluster workers both call it, so a job's
// result bytes do not depend on where it ran.
//
// A single run that panics or is aborted by the watchdog returns its
// *experiments.RunError (see CancelReason). A figure always returns an
// envelope: a table with error rows is a result whose Table.Failed is
// set, which the server serves but never stores.
func Execute(spec JobSpec, key string, pool *experiments.Pool, deadline, stall time.Duration, sink Sink) (JobResult, error) {
	if spec.Kind == KindFigure {
		e, _ := experiments.ByID(spec.Figure)
		p := spec.Scale.params()
		p.Deadline, p.StallTimeout = deadline, stall
		runner := experiments.NewRunnerPool(p, pool)
		stop := relayProgress(runner, sink)
		table := experiments.RunOne(runner, e)
		stop()
		return JobResult{Kind: KindFigure, Table: table}, nil
	}

	run := *spec.Run
	prog := pool.Progress()
	var progress telemetry.ProgressSink = sink
	if prog != nil {
		progress = telemetry.Tee(sink, prog)
	}
	var sampler *telemetry.Sampler
	mkHooks := func() *telemetry.Hooks {
		h := &telemetry.Hooks{Progress: progress}
		if run.SampleEvery > 0 {
			sampler = telemetry.NewSampler(run.SampleEvery)
			sampler.Stream(sink.OnSample)
			h.Sampler = sampler
		}
		return h
	}
	res, rerr := experiments.Go(pool, func() sim.Result {
		return experiments.Guarded(key, deadline, stall, mkHooks, func(h *telemetry.Hooks) sim.Result {
			res, err := run.Run(h)
			if err != nil {
				panic(err)
			}
			if prog != nil {
				prog.RunDone()
			}
			return res
		})
	}).Result()
	if rerr != nil {
		return JobResult{}, rerr
	}
	var samples bytes.Buffer
	if sampler != nil && sampler.WriteJSONL(&samples) != nil {
		samples.Reset()
	}
	return JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: samples.String()}, nil
}

// CancelReason returns why the watchdog aborted a run, when err is
// such an abort (empty otherwise). Fail records it on the run span.
func CancelReason(err error) string {
	var a *sim.Aborted
	if errors.As(err, &a) {
		return a.Reason
	}
	return ""
}

// relayProgress forwards a figure runner's instruction count into
// sink as deltas until the returned stop is called; stop flushes the
// final count, so the sink ends at the runner's exact total.
func relayProgress(r *experiments.Runner, sink telemetry.ProgressSink) (stop func()) {
	var last uint64
	flush := func() {
		if n := r.SimulatedInstructions(); n > last {
			sink.Add(n - last)
			last = n
		}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(figureProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				flush()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		flush()
	}
}

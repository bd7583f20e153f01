package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Pool bounds the number of simulations executing concurrently. Figure
// coordinators run on plain goroutines and never hold a worker slot
// while waiting on a Future, so the pool cannot deadlock: every job it
// admits is an independent leaf simulation.
type Pool struct {
	sem  chan struct{}
	prog atomic.Pointer[telemetry.PoolProgress]
}

// SetProgress attaches a live progress tracker; workers report busy/
// idle transitions around every pooled job. The pointer is atomic so a
// tracker attached after the first Go (cmd tools wire flags late)
// cannot race the workers reading it.
func (p *Pool) SetProgress(prog *telemetry.PoolProgress) { p.prog.Store(prog) }

// Progress returns the attached tracker, or nil.
func (p *Pool) Progress() *telemetry.PoolProgress { return p.prog.Load() }

// NewPool returns a pool running at most workers simulations at once.
// workers < 1 is clamped to 1 (the sequential engine, -j 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// DefaultPool sizes a pool to the machine (GOMAXPROCS workers).
func DefaultPool() *Pool { return NewPool(runtime.GOMAXPROCS(0)) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Future is the eventual result of a pooled computation. A panic
// inside the computation resolves the Future with a *RunError instead
// of leaving waiters blocked forever.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  *RunError
}

// Wait blocks until the computation finishes and returns its result.
// If the computation failed, Wait re-panics with its *RunError — the
// coordinator that collects the cell decides how to degrade (RunOne
// turns it into an error table; speedupTable into an error row).
func (f *Future[T]) Wait() T {
	<-f.done
	if f.err != nil {
		panic(f.err)
	}
	return f.val
}

// Result blocks until the computation finishes and returns its value
// and failure, if any — the non-panicking collection path.
func (f *Future[T]) Result() (T, *RunError) {
	<-f.done
	return f.val, f.err
}

// Resolved returns an already-completed Future holding v (checkpoint
// hits resolve instantly without consuming a worker slot).
func Resolved[T any](v T) *Future[T] {
	f := &Future[T]{done: make(chan struct{}), val: v}
	close(f.done)
	return f
}

// Go schedules fn on the pool and returns its Future. fn runs once a
// worker slot is free; slots are held only for the duration of fn. A
// panic in fn is recovered into the Future's *RunError; the done
// channel closes on every path (deferred first, so it runs after the
// recover has stored the error).
func Go[T any](p *Pool, fn func() T) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		if prog := p.Progress(); prog != nil {
			prog.WorkerStart()
			defer prog.WorkerDone()
		}
		defer func() {
			if rec := recover(); rec != nil {
				f.err = asRunError(rec)
			}
		}()
		f.val = fn()
	}()
	return f
}

// Guarded runs one simulation under the watchdog configured by
// deadline and stall (either may be zero). mkHooks builds the run's
// telemetry hooks; when a watchdog is armed the hooks gain a RunWatch
// so the simulator can observe the cancellation — a Watch already
// attached by mkHooks is reused, so callers that bridge cancellation
// elsewhere (the service annotates the job's trace span) keep their
// registration. A panic (including a watchdog abort) is re-thrown as
// a *RunError tagged with key.
func Guarded(key string, deadline, stall time.Duration, mkHooks func() *telemetry.Hooks, run func(*telemetry.Hooks) sim.Result) sim.Result {
	hooks := mkHooks()
	if deadline > 0 || stall > 0 {
		if hooks == nil {
			hooks = &telemetry.Hooks{}
		}
		if hooks.Watch == nil {
			hooks.Watch = telemetry.NewRunWatch()
		}
		defer telemetry.StartWatchdog(hooks.Watch, deadline, stall)()
	}
	defer func() {
		if rec := recover(); rec != nil {
			err := asRunError(rec)
			if err.Key == "" {
				err.Key = key
			}
			if err.Attempts == 0 {
				err.Attempts = 1
			}
			panic(err)
		}
	}()
	return run(hooks)
}

// --- Runner integration ---

// execute runs one keyed job with bounded, deterministic retry: only
// failures marked Transient (injected by Params.FaultHook) are
// retried, up to Params.Retries extra attempts. Panics and watchdog
// aborts are deterministic, so retrying them would just repeat the
// failure; they propagate immediately.
func (r *Runner) execute(key string, run func(*telemetry.Hooks) sim.Result) sim.Result {
	for attempt := 1; ; attempt++ {
		res, err := r.tryRun(key, attempt, run)
		if err == nil {
			return res
		}
		err.Key, err.Attempts = key, attempt
		if !err.Transient || attempt > r.P.Retries {
			panic(err)
		}
	}
}

// tryRun performs one attempt, converting any panic into the returned
// *RunError. The fault hook fires before the simulation so injected
// failures cost nothing to retry.
func (r *Runner) tryRun(key string, attempt int, run func(*telemetry.Hooks) sim.Result) (res sim.Result, rerr *RunError) {
	defer func() {
		if rec := recover(); rec != nil {
			rerr = asRunError(rec)
		}
	}()
	if hook := r.P.FaultHook; hook != nil {
		if err := hook(key, attempt); err != nil {
			return sim.Result{}, &RunError{Reason: "fault", Transient: true, Err: err}
		}
	}
	return Guarded(key, r.P.Deadline, r.P.StallTimeout, r.newHooks, run), nil
}

// record accumulates a finished run's cost into the runner's counters
// (the bench harness reports simulated instructions per second).
func (r *Runner) record(res sim.Result) sim.Result {
	r.runs.Add(1)
	r.simInstr.Add(res.SimulatedInstructions)
	if p := r.pool.Progress(); p != nil {
		p.RunDone()
	}
	return res
}

// newHooks builds the per-run telemetry hooks: a sampler when the
// Params ask for one, and the pool's progress tracker when attached.
// Returns nil when both are off so runs stay on the zero-cost path
// (Guarded adds a watch on top when a watchdog is armed).
func (r *Runner) newHooks() *telemetry.Hooks {
	var h telemetry.Hooks
	if r.P.SampleEvery > 0 {
		h.Sampler = telemetry.NewSampler(r.P.SampleEvery)
	}
	if prog := r.pool.Progress(); prog != nil {
		h.Progress = prog
	}
	if h.Sampler == nil && h.Progress == nil {
		return nil
	}
	return &h
}

// storeSamples persists one cached run's sampled series as JSONL,
// keyed like the single-flight cache ("bench/config"). An encoding
// failure does not fail the run (the result is still good); it is
// recorded and surfaced through SampleErrors instead of vanishing.
func (r *Runner) storeSamples(key string, hooks *telemetry.Hooks) {
	if hooks == nil || hooks.Sampler == nil {
		return
	}
	var buf bytes.Buffer
	if err := hooks.Sampler.WriteJSONL(&buf); err != nil {
		r.mu.Lock()
		if r.sampleErrs == nil {
			r.sampleErrs = make(map[string]error)
		}
		r.sampleErrs[key] = fmt.Errorf("sample series for %s dropped: %w", key, err)
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	if r.samples == nil {
		r.samples = make(map[string][]byte)
	}
	r.samples[key] = buf.Bytes()
	r.mu.Unlock()
}

// SampleSeries returns the JSONL time series of every cached
// single-core run, keyed "bench/config". Empty unless Params.
// SampleEvery was set.
func (r *Runner) SampleSeries() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]byte, len(r.samples))
	for k, v := range r.samples {
		out[k] = v
	}
	return out
}

// SampleErrors returns the series that failed to encode, keyed like
// SampleSeries. The runs themselves succeeded; only their telemetry
// was lost.
func (r *Runner) SampleErrors() map[string]error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]error, len(r.sampleErrs))
	for k, v := range r.sampleErrs {
		out[k] = v
	}
	return out
}

// Runs returns how many simulations this runner actually executed
// (cache hits and checkpoint-restored cells do not count — the
// single-flight cache guarantees each distinct configuration is
// simulated exactly once).
func (r *Runner) Runs() uint64 { return r.runs.Load() }

// Restored returns how many cells were satisfied from the checkpoint
// instead of being simulated.
func (r *Runner) Restored() uint64 { return r.restored.Load() }

// SimulatedInstructions returns the total instructions stepped by this
// runner's simulations, including warmup and contention-sustain work.
func (r *Runner) SimulatedInstructions() uint64 { return r.simInstr.Load() }

// singleF returns the Future of one cached benchmark x prefetcher run,
// starting it if this is the first request. The per-key Future doubles
// as single-flight dedup: concurrent figures that share a baseline wait
// on the same Future instead of re-simulating it. With a checkpoint
// attached, a key already in the store resolves instantly from disk.
func (r *Runner) singleF(spec workload.Spec, cfg namedPF) *Future[sim.Result] {
	key := spec.Name + "/" + cfg.name
	r.mu.Lock()
	f, ok := r.cache[key]
	if !ok {
		if res, samples, hit := r.checkpointGet(key); hit {
			f = Resolved(res)
			if len(samples) > 0 {
				if r.samples == nil {
					r.samples = make(map[string][]byte)
				}
				r.samples[key] = samples
			}
			r.restored.Add(1)
		} else {
			f = Go(r.pool, func() sim.Result {
				res := r.execute(key, func(hooks *telemetry.Hooks) sim.Result {
					rr := r.record(runSingle(r.P, spec, cfg.name, cfg.f, nil, hooks))
					r.storeSamples(key, hooks)
					return rr
				})
				r.checkpointPut(key, res)
				return res
			})
		}
		r.cache[key] = f
	}
	r.mu.Unlock()
	return f
}

// checkpointGet probes the attached checkpoint (nil-safe). Called with
// r.mu held; the Checkpoint has its own lock and never calls back.
func (r *Runner) checkpointGet(key string) (sim.Result, []byte, bool) {
	if r.ckpt == nil {
		return sim.Result{}, nil, false
	}
	return r.ckpt.Get(key)
}

// checkpointPut persists one completed run plus its sampled series.
func (r *Runner) checkpointPut(key string, res sim.Result) {
	if r.ckpt == nil {
		return
	}
	r.mu.Lock()
	samples := r.samples[key]
	r.mu.Unlock()
	r.ckpt.Put(key, res, samples)
}

// runSingleF schedules an uncached single-core run (mutated machines,
// one-off configurations) on the pool. No warm-snapshot key: a mutated
// machine's warm prefix has no stable process-wide name.
func (r *Runner) runSingleF(spec workload.Spec, factory pfFactory, mutate func(*sim.Options)) *Future[sim.Result] {
	key := spec.Name + "/adhoc"
	return Go(r.pool, func() sim.Result {
		return r.execute(key, func(hooks *telemetry.Hooks) sim.Result {
			return r.record(runSingle(r.P, spec, "", factory, mutate, hooks))
		})
	})
}

// runMixF schedules one multi-programmed mix on the pool. pfName names
// the prefetcher configuration for warm-snapshot reuse ("" disables).
func (r *Runner) runMixF(mix workload.MixSpec, pfName string, factory pfFactory) *Future[sim.Result] {
	return Go(r.pool, func() sim.Result {
		return r.execute(mix.Name, func(hooks *telemetry.Hooks) sim.Result {
			return r.record(runMix(r.P, mix, pfName, factory, hooks))
		})
	})
}

// runRateF schedules one N-copy server run on the pool. pfName names
// the prefetcher configuration for warm-snapshot reuse ("" disables).
func (r *Runner) runRateF(spec workload.Spec, cores int, pfName string, factory pfFactory) *Future[sim.Result] {
	key := fmt.Sprintf("%s/x%d", spec.Name, cores)
	return Go(r.pool, func() sim.Result {
		return r.execute(key, func(hooks *telemetry.Hooks) sim.Result {
			return r.record(runRate(r.P, spec, cores, pfName, factory, hooks))
		})
	})
}

// RunAll executes the given experiments, each on its own coordinator
// goroutine so their simulations interleave on the pool, and returns
// the tables in input order. The single-flight cache keeps shared
// baselines simulated exactly once even when figures race to them, so
// the output is byte-identical to a sequential run. A failing
// experiment yields an error table (RunOne); its siblings complete.
func RunAll(r *Runner, es []Experiment) []*Table {
	tables := make([]*Table, len(es))
	var wg sync.WaitGroup
	for i, e := range es {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			tables[i] = RunOne(r, e)
			if p := r.pool.Progress(); p != nil {
				p.UnitDone()
			}
		}(i, e)
	}
	wg.Wait()
	return tables
}

package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Execution surface: every admitted job runs through Take → Begin →
// Execute → Complete or Fail. Without Config.RemoteExec the server's
// own worker goroutines drive it in-process; with it, an external
// dispatcher — the cluster coordinator in internal/cluster — drives the
// same calls for jobs executing on remote workers, relaying their live
// progress and samples into the Job (a Sink). Requeue returns a job
// whose worker died (lease expired) to the queue; because a job stays
// in the admission log until its result is durable, neither a worker
// death nor a coordinator restart can lose an acknowledged job.

// Take blocks until a queued job is available and removes it from the
// queue. Returns nil once the server is draining (queue closed); the
// still-queued jobs stay persisted for the next process.
func (s *Server) Take() *Job { return s.q.pop() }

// Begin marks a taken job running on the named worker: state,
// in-flight accounting, queue-wait histogram, the run-time stamp that
// Complete/Fail observe, and a "run" span annotated with the executing
// worker.
func (s *Server) Begin(j *Job, worker string) {
	s.mu.Lock()
	j.state = StateRunning
	j.runStartNS = time.Now().UnixNano()
	if j.trace != nil {
		j.runSpan = j.trace.Start("run")
		j.runSpan.Annotate("kind", j.spec.Kind)
		j.runSpan.Annotate("worker", worker)
	}
	s.mu.Unlock()
	s.mRunning.Add(1)
	s.obs.gInflightHWM.SetMax(s.mRunning.Value())
	j.queueSpan.End()
	if j.admittedNS > 0 {
		s.obs.hQueueWait.Observe(uint64(time.Now().UnixNano() - j.admittedNS))
	}
}

// finishRun opens a job's terminal transition for Complete and Fail:
// it reports false when the job already finished (a duplicate upload:
// first result wins), and otherwise observes the run histogram from
// Begin's stamp and returns the run span for the caller to annotate
// and end.
func (s *Server) finishRun(j *Job) (span obs.SpanRef, wasRunning, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return obs.SpanRef{}, false, false
	}
	if j.runStartNS > 0 {
		s.obs.hRun.Observe(uint64(time.Now().UnixNano() - j.runStartNS))
	}
	return j.runSpan, j.state == StateRunning, true
}

// Complete persists an executed job's result envelope and completes
// the job. The payload served to clients is re-marshaled from the
// envelope (not a worker's raw upload bytes), so a cluster-run job's
// stored and served bytes match a single-node run's no matter how the
// worker formatted its upload. A failed figure table completes the job
// but is never stored: a transient failure must not be served forever.
// Idempotent: a duplicate (e.g. a lease expired, the job was requeued,
// and the original worker's result arrived late) reports false and
// changes nothing — nothing durable is overwritten or re-simulated.
func (s *Server) Complete(j *Job, env JobResult) bool {
	span, wasRunning, ok := s.finishRun(j)
	if !ok {
		return false
	}
	switch env.Kind {
	case KindFigure:
		failed := env.Table != nil && env.Table.Failed
		if failed {
			span.Annotate("failed_table", "true")
		}
		span.End()
		payload := marshalEnvelope(env)
		if !failed {
			s.persistTraced(j, pendingResult{key: j.key, isBlob: true, blob: payload})
		}
		s.complete(j, payload, failed)
	default:
		span.End()
		res := *env.Result
		s.persistTraced(j, pendingResult{key: j.key, res: res, samples: []byte(env.SamplesJSONL)})
		s.complete(j, marshalEnvelope(JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: env.SamplesJSONL}), false)
	}
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// Fail records an execution failure; cancelled is the watchdog's
// reason when it aborted the run (CancelReason), empty otherwise.
// Idempotent like Complete.
func (s *Server) Fail(j *Job, msg, cancelled string) bool {
	span, wasRunning, ok := s.finishRun(j)
	if !ok {
		return false
	}
	if cancelled != "" {
		span.Annotate("cancelled", cancelled)
	}
	span.Annotate("error", msg)
	span.End()
	s.mu.Lock()
	j.state = StateFailed
	j.errMsg = msg
	s.mu.Unlock()
	j.feed.Finish()
	s.mFailed.Add(1)
	if j.admittedNS > 0 {
		s.obs.hSubmitToResult.Observe(uint64(time.Now().UnixNano() - j.admittedNS))
	}
	if j.trace != nil {
		j.trace.Mark("failed", map[string]string{"error": msg})
	}
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// Requeue returns a running remote job to the queue (its worker's
// lease expired). The job keeps its identity and admission-log entry;
// a fresh queue-wait span opens so the trace shows the second wait.
// No-op unless the job is currently running.
func (s *Server) Requeue(j *Job, reason string) bool {
	s.mu.Lock()
	if j.state != StateRunning {
		s.mu.Unlock()
		return false
	}
	j.state = StateQueued
	j.runSpan.Annotate("requeued", reason)
	span := j.runSpan
	tr := j.trace
	if tr != nil {
		j.queueSpan = tr.Start("queue-wait")
	}
	s.mu.Unlock()
	span.End()
	if tr != nil {
		tr.Mark("requeue", map[string]string{"reason": reason})
	}
	s.mRunning.Add(-1)
	s.q.push(j)
	s.obs.gQueueHWM.SetMax(int64(s.q.len()))
	return true
}

// HasDurable reports whether the content-addressed store already
// holds a result for the key — the cluster-wide dedup check a
// dispatcher makes before assigning work.
func (s *Server) HasDurable(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store != nil && s.store.Has(key)
}

// CompleteFromStore finishes a queued/running job straight from the
// warm store (the result became durable through another path — e.g. a
// late upload for a deduplicated key). Reports whether the store had
// it.
func (s *Server) CompleteFromStore(j *Job) bool {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		s.mu.Unlock()
		return true
	}
	store, spec, key := s.store, j.spec, j.key
	wasRunning := j.state == StateRunning
	s.mu.Unlock()
	if store == nil {
		return false
	}
	payload, ok := storedPayload(store, spec.Kind, key)
	if !ok {
		return false
	}
	s.mu.Lock()
	j.cached = true
	s.mu.Unlock()
	s.complete(j, payload, false)
	if wasRunning {
		s.mRunning.Add(-1)
	}
	return true
}

// Fingerprint returns the server's machine-config fingerprint — the
// identity the content-addressed store is keyed under. A coordinator
// uses it to verify that an uploaded result was produced under the
// same configuration before persisting it.
func (s *Server) Fingerprint() string { return s.fp }

// Key returns the job's canonical content key.
func (j *Job) Key() string { return j.key }

// Spec returns a copy of the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Feed returns the job's live telemetry fan-out (SSE consumers read
// it).
func (j *Job) Feed() *telemetry.JobFeed { return j.feed }

// Add implements Sink: retired instructions reach the job's feed.
func (j *Job) Add(instructions uint64) { j.feed.Add(instructions) }

// OnSample implements Sink: one interval sample reaches the job's
// feed. The first one marks measure-start on the trace — the simulator
// samples only inside the measurement window — whether the sample came
// from an in-process run or a worker's event batch.
func (j *Job) OnSample(smp telemetry.Sample) {
	if j.trace != nil {
		j.measured.Do(func() { j.trace.Mark("measure-start", nil) })
	}
	j.feed.OnSample(smp)
}

// Trace returns the job's span record (nil when tracing is off), so a
// dispatcher can add cluster marks (assign, lease-expired, requeue).
func (j *Job) Trace() *obs.Trace { return j.trace }

// StateOf snapshots the job's lifecycle state.
func (s *Server) StateOf(j *Job) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

// QueueLen reports the number of queued (not yet dispatched) jobs.
func (s *Server) QueueLen() int { return s.q.len() }

// VFS returns the filesystem durable state is written through, so the
// coordinator's assignment log shares the server's fault-injection
// stack in tests.
func (s *Server) VFS() vfs.FS { return s.fsys }

// StoreDirPath returns the store directory (queue.jsonl, runs.jsonl —
// and, under a coordinator, assign.jsonl).
func (s *Server) StoreDirPath() string { return s.cfg.StoreDir }

package experiments

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// The process-wide trace corpus, resolving RunSpec.Trace ids to
// materialized TRC2 traces. It is configured once at process start
// (triagesim/triaged -corpus) and read by every run; a RunSpec naming
// a trace without a corpus configured fails validation, loudly, before
// any simulation starts.
var (
	traceCorpusMu sync.RWMutex
	traceCorpus   *trace.Corpus
)

// SetTraceCorpus opens (creating if needed) the corpus directory and
// makes it the process-wide trace source for RunSpec.Trace ids.
func SetTraceCorpus(dir string) error {
	c, err := trace.OpenCorpus(dir)
	if err != nil {
		return err
	}
	traceCorpusMu.Lock()
	traceCorpus = c
	traceCorpusMu.Unlock()
	return nil
}

// TraceCorpus returns the configured corpus, or nil.
func TraceCorpus() *trace.Corpus {
	traceCorpusMu.RLock()
	defer traceCorpusMu.RUnlock()
	return traceCorpus
}

// resolveTrace validates a RunSpec trace id against the configured
// corpus, returning the canonical id.
func resolveTrace(id string) (string, error) {
	canon, err := trace.CanonicalTraceID(id)
	if err != nil {
		return "", err
	}
	c := TraceCorpus()
	if c == nil {
		return "", fmt.Errorf("spec names trace %s but no trace corpus is configured (-corpus)", canon)
	}
	if !c.Has(canon) {
		return "", fmt.Errorf("trace %s not in corpus %s (tracegen -corpus to ingest)", canon, c.Dir())
	}
	return canon, nil
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
)

// CheckPayloads runs every distinct spec of the seed's job stream
// directly (RunSpec.Run, no service) and compares the results with the
// payloads a service repetition served: each payload must decode to a
// result whose experiments.EncodeResult equals the direct run's, and
// its envelope bytes must equal what the single-node service encodes
// for that result. svc-local and svc-cluster both pass this check, so
// their payloads are byte-identical to each other.
func CheckPayloads(workdir string, seed uint64, payloads map[string]string) []string {
	dir := filepath.Join(workdir, "corpus")
	ids, err := BuildCorpus(dir, seed)
	if err != nil {
		return []string{fmt.Sprintf("reference corpus: %v", err)}
	}
	if err := experiments.SetTraceCorpus(dir); err != nil {
		return []string{fmt.Sprintf("reference corpus: %v", err)}
	}
	specs := make(map[string]experiments.RunSpec)
	for _, j := range Stream(seed, ids) {
		s := j.Spec
		s.Mix = append([]string(nil), s.Mix...)
		s.Normalize()
		specs[s.Key()] = s
	}
	var problems []string
	if len(payloads) != len(specs) {
		problems = append(problems, fmt.Sprintf("%d distinct payloads served for %d distinct specs", len(payloads), len(specs)))
	}
	keys := sortedKeys(specs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < poolWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				if p := checkOne(specs[k], payloads[k]); p != "" {
					mu.Lock()
					problems = append(problems, k+": "+p)
					mu.Unlock()
				}
			}
		}()
	}
	for i, k := range keys {
		// The direct runs store warm snapshots like any other run; drop
		// them now and then so the check's memory stays bounded.
		if i%32 == 31 {
			sim.GlobalWarmCache().Reset()
		}
		next <- k
	}
	close(next)
	wg.Wait()
	return problems
}

// checkOne compares one served payload with a direct run of its spec.
func checkOne(spec experiments.RunSpec, payload string) string {
	if payload == "" {
		return "no payload served"
	}
	res, err := spec.Run(nil)
	if err != nil {
		return "direct run: " + err.Error()
	}
	var env service.JobResult
	if err := json.Unmarshal([]byte(payload), &env); err != nil || env.Result == nil {
		return "payload is not a single-job result"
	}
	if !bytes.Equal(experiments.EncodeResult(*env.Result), experiments.EncodeResult(res)) {
		return "served result differs from a direct RunSpec.Run"
	}
	want, err := json.Marshal(service.JobResult{Kind: service.KindSingle, Result: &res})
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal([]byte(payload), want) {
		return "served envelope differs from the single-node encoding"
	}
	return ""
}

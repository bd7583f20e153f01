package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// execStack is one way of running jobs behind an HTTP front: either a
// plain single-node server or a coordinator with one in-process
// worker. Both execute through service.Execute.
type execStack struct {
	srv  *service.Server
	url  string
	stop func()
}

func localStack(t *testing.T, smut func(*service.Config)) execStack {
	t.Helper()
	cfg := service.Config{StoreDir: t.TempDir(), QueueCap: 64, Workers: 2}
	if smut != nil {
		smut(&cfg)
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return execStack{srv: srv, url: ts.URL, stop: func() {
		srv.Drain()
		ts.Close()
		srv.Close()
	}}
}

func clusterStack(t *testing.T, wmut func(*WorkerConfig)) execStack {
	t.Helper()
	tc := startCluster(t, nil, nil)
	_, stopW := startWorker(t, tc.ts.URL, "exec", wmut)
	return execStack{srv: tc.srv, url: tc.ts.URL, stop: func() {
		stopW()
		tc.stop()
	}}
}

// runJob submits spec, waits for it to finish, fetches its result over
// HTTP (so the trace reaches result-served), and returns the status,
// the served payload, and the job's trace.
func (st execStack) runJob(t *testing.T, spec service.JobSpec) (service.JobStatus, []byte, obs.TraceDump) {
	t.Helper()
	j, _, err := st.srv.Submit(cloneSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	status := waitTerminal(t, st.srv, j)
	var payload []byte
	if status.State == service.StateDone {
		payload = httpGet(t, st.url+"/v1/jobs/"+j.ID()+"/result")
	}
	var d obs.TraceDump
	if err := json.Unmarshal(httpGet(t, st.url+"/debug/trace/"+j.ID()), &d); err != nil {
		t.Fatal(err)
	}
	return status, payload, d
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func spanNames(d obs.TraceDump) []string {
	names := make([]string, len(d.Spans))
	for i, sp := range d.Spans {
		names[i] = sp.Name
	}
	return names
}

func runSpan(t *testing.T, d obs.TraceDump) obs.Span {
	t.Helper()
	for _, sp := range d.Spans {
		if sp.Name == "run" {
			return sp
		}
	}
	t.Fatalf("trace has no run span: %v", spanNames(d))
	return obs.Span{}
}

// TestLocalRemoteTraceParity runs the same sampled single job on a
// single node and on a worker: the served payloads must be
// byte-identical and the traces must record the same span sequence,
// measure-start included.
func TestLocalRemoteTraceParity(t *testing.T) {
	spec := tinySpec(91)
	spec.Run.Measure = 200_000
	spec.Run.SampleEvery = 20_000

	local := localStack(t, nil)
	defer local.stop()
	_, wantPayload, wantTrace := local.runJob(t, spec)

	remote := clusterStack(t, nil)
	defer remote.stop()
	status, gotPayload, gotTrace := remote.runJob(t, spec)
	if status.State != service.StateDone {
		t.Fatalf("remote job failed: %s", status.Error)
	}
	if string(gotPayload) != string(wantPayload) {
		t.Errorf("remote payload differs from local:\nlocal  %s\nremote %s", wantPayload, gotPayload)
	}
	want, got := spanNames(wantTrace), spanNames(gotTrace)
	if len(got) != len(want) {
		t.Fatalf("span sequences differ:\nlocal  %v\nremote %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span sequences differ at %d:\nlocal  %v\nremote %v", i, want, got)
		}
	}
	assertSubsequence(t, got, "run", "measure-start", "store-put")
	if w := runSpan(t, gotTrace).Attrs["worker"]; w == "" {
		t.Error("remote run span does not name its worker")
	}
}

func assertSubsequence(t *testing.T, names []string, want ...string) {
	t.Helper()
	next := 0
	for _, n := range names {
		if next < len(want) && n == want[next] {
			next++
		}
	}
	if next != len(want) {
		t.Errorf("trace %v lacks %q in order %v", names, want[next], want)
	}
}

// TestRunHistogramCountsRuns pins that both execution paths observe
// triaged_run_seconds once per completed job: Begin stamps the start,
// Complete observes it.
func TestRunHistogramCountsRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack func(*testing.T) execStack
	}{
		{"local", func(t *testing.T) execStack { return localStack(t, nil) }},
		{"remote", func(t *testing.T) execStack { return clusterStack(t, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.stack(t)
			defer st.stop()
			const jobs = 3
			for i := 0; i < jobs; i++ {
				if status, _, _ := st.runJob(t, tinySpec(uint64(300+i))); status.State != service.StateDone {
					t.Fatalf("job %d failed: %s", i, status.Error)
				}
			}
			snap := st.srv.Registry().Snapshot()
			h, ok := snap["triaged_run_seconds"].(obs.HistJSON)
			if !ok {
				t.Fatalf("triaged_run_seconds missing from registry: %v", snap["triaged_run_seconds"])
			}
			if completed := snap["triaged_completed_total"]; h.Count != jobs || completed != float64(jobs) {
				t.Errorf("run histogram count %d, completed %v; want both %d", h.Count, completed, jobs)
			}
		})
	}
}

// TestWatchdogCancelOnRunSpan pins that a run the watchdog aborts
// fails with its cancel reason recorded on the run span, whether it ran
// in-process or on a worker (where the reason rides the upload to the
// coordinator).
func TestWatchdogCancelOnRunSpan(t *testing.T) {
	const deadline = 5 * time.Millisecond
	for _, tc := range []struct {
		name  string
		stack func(*testing.T) execStack
	}{
		{"local", func(t *testing.T) execStack {
			return localStack(t, func(c *service.Config) { c.Deadline = deadline })
		}},
		{"remote", func(t *testing.T) execStack {
			return clusterStack(t, func(c *WorkerConfig) { c.Deadline = deadline })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.stack(t)
			defer st.stop()
			spec := tinySpec(401)
			spec.Run.Measure = 500_000_000 // far longer than the deadline
			status, _, d := st.runJob(t, spec)
			if status.State != service.StateFailed {
				t.Fatalf("job state %s, want failed by the watchdog", status.State)
			}
			if reason := runSpan(t, d).Attrs["cancelled"]; reason == "" {
				t.Errorf("run span carries no cancel reason: %+v", runSpan(t, d))
			}
		})
	}
}

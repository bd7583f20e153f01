package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/sim"
)

// Service-workload settings. Two closed-loop clients share at most two
// connections; the poll interval bounds how late a finished job is
// noticed. The cluster lease is short enough that heartbeats (every
// lease/3) fall inside a repetition.
const (
	clients   = 2
	pollEvery = 2 * time.Millisecond
	leaseTTL  = 3 * time.Second
)

// jobOutcome is what one client learned about one job.
type jobOutcome struct {
	key      string
	payload  []byte
	latMS    float64
	submitMS float64
	fetchMS  float64
	failed   string
}

// runService sets up an in-process triaged (with a coordinator and one
// 2-slot worker when clustered) over loopback HTTP, then drives the
// seeded job stream through it with a closed loop of two clients.
func runService(seed uint64, clustered bool, workdir string, spans *Spans, begin, end func()) (RepResult, error) {
	corpusStart := time.Now()
	ids, err := BuildCorpus(filepath.Join(workdir, "corpus"), seed)
	if err != nil {
		return RepResult{}, err
	}
	corpusS := time.Since(corpusStart).Seconds()
	stream := Stream(seed, ids)

	srv, err := service.New(service.Config{
		StoreDir:   filepath.Join(workdir, "store"),
		Workers:    poolWorkers,
		CorpusDir:  filepath.Join(workdir, "corpus"),
		RemoteExec: clustered,
	})
	if err != nil {
		return RepResult{}, err
	}
	var coord *cluster.Coordinator
	handler := srv.Handler()
	if clustered {
		if coord, err = cluster.New(cluster.Config{Server: srv, LeaseTTL: leaseTTL}); err != nil {
			srv.Drain()
			srv.Close()
			return RepResult{}, err
		}
		handler = coord.Handler(handler)
	}
	var handlerT, rpcT *Timings
	if spans != nil && clustered {
		handlerT, rpcT = NewTimings(spans), NewTimings(spans)
		handler = TimedHandler(handler, handlerT)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return RepResult{}, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	stopWorker := func() {}
	teardown := func() {
		stopWorker()
		srv.Drain()
		if coord != nil {
			coord.Stop()
		}
		hs.Close()
		<-served
		srv.Close()
	}
	if clustered {
		stopWorker, err = startWorker(base, coord, rpcT)
		if err != nil {
			teardown()
			return RepResult{}, err
		}
	}
	begin()

	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	outs := make([]jobOutcome, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				outs[i] = doJob(cl, base, i, stream[i], spans)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	end()

	res := RepResult{WallS: wall, Attempted: len(stream), Layer: make(map[string]float64)}
	if spans != nil {
		var prom bytes.Buffer
		if err := srv.Registry().WritePrometheus(&prom); err != nil {
			teardown()
			return res, err
		}
		p := parseProm(prom.String())
		serviceLayer(res.Layer, p)
		if clustered {
			clusterLayer(res.Layer, p, rpcT, handlerT)
		}
	}
	teardown()
	cl.CloseIdleConnections()

	res.Payloads = make(map[string]string)
	var submits, fetches []float64
	for i, o := range outs {
		if o.failed != "" {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("job %d: %s", i, o.failed))
			continue
		}
		res.LatenciesMS = append(res.LatenciesMS, o.latMS)
		submits = append(submits, o.submitMS)
		fetches = append(fetches, o.fetchMS)
		if prev, ok := res.Payloads[o.key]; ok && prev != string(o.payload) {
			res.Problems = append(res.Problems, fmt.Sprintf("job %d: payload differs from an earlier job with key %s", i, o.key))
		}
		res.Payloads[o.key] = string(o.payload)
	}
	res.Digest = payloadDigest(res.Payloads)
	instr, err := steppedInstructions(res.Payloads)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	replays := 0
	for _, j := range stream {
		if j.Kind == KindReplay {
			replays++
		}
	}
	hits, misses, stores := sim.GlobalWarmCache().Stats()
	res.Layer["sim.warm_hits"] = float64(hits)
	res.Layer["sim.warm_misses"] = float64(misses)
	res.Layer["sim.warm_stores"] = float64(stores)
	res.Layer["sim.stepped_minstr"] = float64(instr) / 1e6
	res.Layer["trace.corpus_build_s"] = corpusS
	res.Layer["trace.replay_jobs"] = float64(replays)
	res.Layer["service.submit_ms_p50"] = Median(submits)
	res.Layer["service.fetch_ms_p50"] = Median(fetches)
	return res, nil
}

// startWorker runs one 2-slot cluster worker against the coordinator
// and waits until it has registered. The returned stop cancels the
// worker and waits for it to finish. rpc, when non-nil, times every
// RPC the worker makes.
func startWorker(base string, coord *cluster.Coordinator, rpc *Timings) (stop func(), err error) {
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if rpc != nil {
		rt = TimedTransport{Next: rt, T: rpc}
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: base,
		Name:        "bench",
		Slots:       poolWorkers,
		PoolWorkers: poolWorkers,
		Client:      &http.Client{Transport: rt, Timeout: 5 * time.Minute},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	stop = func() {
		cancel()
		<-done
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(coord.Status().Workers) == 0 {
		select {
		case err := <-done:
			cancel()
			return nil, fmt.Errorf("worker stopped before registering: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			stop()
			return nil, errors.New("worker did not register within 30s")
		}
	}
	return stop, nil
}

// doJob submits one job and polls for its result. The latency runs
// from the start of the submit to the end of the successful fetch.
func doJob(cl *http.Client, base string, i int, job StreamJob, spans *Spans) (out jobOutcome) {
	spec := job.Spec
	spec.Mix = append([]string(nil), spec.Mix...)
	spec.Normalize()
	out.key = spec.Key()
	body, err := json.Marshal(service.JobSpec{Run: &spec})
	if err != nil {
		out.failed = err.Error()
		return out
	}
	t0 := time.Now()
	resp, err := cl.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.failed = "submit: " + err.Error()
		return out
	}
	var sr service.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		out.failed = fmt.Sprintf("submit refused: HTTP %d", resp.StatusCode)
		return out
	}
	if derr != nil {
		out.failed = "submit response: " + derr.Error()
		return out
	}
	t1 := time.Now()
	var t2 time.Time
	for {
		t2 = time.Now()
		r, err := cl.Get(base + "/v1/jobs/" + sr.ID + "/result")
		if err != nil {
			out.failed = "fetch: " + err.Error()
			return out
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			out.failed = "fetch: " + err.Error()
			return out
		}
		if r.StatusCode == http.StatusOK {
			out.payload = b
			break
		}
		if r.StatusCode != http.StatusAccepted {
			out.failed = fmt.Sprintf("fetch: HTTP %d: %s", r.StatusCode, strings.TrimSpace(string(b)))
			return out
		}
		time.Sleep(pollEvery)
	}
	t3 := time.Now()
	out.latMS = float64(t3.Sub(t0).Nanoseconds()) / 1e6
	out.submitMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	out.fetchMS = float64(t3.Sub(t2).Nanoseconds()) / 1e6
	tr := "job-" + strconv.Itoa(i)
	root := spans.Add("job", tr, 0, t0, t3)
	spans.Add("submit", tr, root, t0, t1)
	spans.Add("wait", tr, root, t1, t2)
	spans.Add("fetch", tr, root, t2, t3)
	return out
}

// payloadDigest hashes every distinct job payload in key order.
func payloadDigest(payloads map[string]string) string {
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(payloads[k]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// steppedInstructions sums the simulated instructions of every
// distinct job result.
func steppedInstructions(payloads map[string]string) (uint64, error) {
	var total uint64
	for k, p := range payloads {
		var env service.JobResult
		if err := json.Unmarshal([]byte(p), &env); err != nil || env.Result == nil {
			return total, fmt.Errorf("payload of %s is not a single-job result", k)
		}
		total += env.Result.SimulatedInstructions
	}
	return total, nil
}

// serviceLayer fills the service.* rows kept by the server's registry.
func serviceLayer(layer map[string]float64, p prom) {
	ms := func(name string, q float64) float64 { return p.quantile(name, q) * 1e3 }
	layer["service.queue_wait_ms_p50"] = ms("triaged_queue_wait_seconds", 0.50)
	layer["service.queue_wait_ms_p95"] = ms("triaged_queue_wait_seconds", 0.95)
	layer["service.run_ms_p50"] = ms("triaged_run_seconds", 0.50)
	layer["service.run_ms_p95"] = ms("triaged_run_seconds", 0.95)
	layer["service.store_put_ms_p50"] = ms("triaged_store_put_seconds", 0.50)
	layer["service.store_put_ms_p95"] = ms("triaged_store_put_seconds", 0.95)
	fresh, dedup, hits := p.value["triaged_submitted_total"], p.value["triaged_deduped_total"], p.value["triaged_store_hits_total"]
	layer["service.fresh"] = fresh
	layer["service.deduped"] = dedup
	layer["service.store_hits"] = hits
	layer["service.store_hit_frac"] = 0
	if n := fresh + dedup + hits; n > 0 {
		layer["service.store_hit_frac"] = hits / n
	}
	layer["service.rejected"] = p.value["triaged_rejected_full_total"] + p.value["triaged_rejected_draining_total"] +
		p.value["triaged_rejected_degraded_total"]
	layer["service.queue_hwm"] = p.value["triaged_queue_depth_hwm"]
	layer["sim.cells"] = fresh
}

// clusterLayer fills the cluster.* rows from the worker's timed
// transport, the timed coordinator handler, and the registry.
func clusterLayer(layer map[string]float64, p prom, rpc, handler *Timings) {
	calls, failed := rpc.Counts()
	layer["cluster.rpc_count"] = float64(calls)
	layer["cluster.rpc_failed"] = float64(failed)
	layer["cluster.events_ms_p50"] = Median(rpc.Samples("events"))
	layer["cluster.heartbeat_ms_p50"] = Median(rpc.Samples("heartbeat"))
	uploads := rpc.Samples("result")
	layer["cluster.upload_ms_p50"] = Median(uploads)
	layer["cluster.upload_ms_p95"], _ = NearestRank(uploads, 95)
	layer["cluster.upload_handler_ms_p50"] = Median(handler.Samples("result"))
	layer["cluster.requeued"] = p.value["triaged_cluster_requeued_total"]
	layer["cluster.hedged"] = p.value["triaged_cluster_hedged_total"]
	layer["cluster.upload_rejected"] = p.value["triaged_cluster_upload_rejected_total"]
}

// prom is a parsed Prometheus text exposition: plain samples by name,
// and histogram buckets (cumulative, in exposition order) by name.
type prom struct {
	value   map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le  float64
	cum float64
}

func parseProm(text string) prom {
	p := prom{value: make(map[string]float64), buckets: make(map[string][]bucket)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if h, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				continue
			}
			p.buckets[h] = append(p.buckets[h], bucket{bound, v})
			continue
		}
		p.value[name] = v
	}
	return p
}

// quantile returns the upper bound of the bucket holding the
// q-quantile observation of histogram name, by the rule obs uses for
// its own quantiles; 0 when the histogram is empty.
func (p prom) quantile(name string, q float64) float64 {
	bs := p.buckets[name]
	if len(bs) == 0 {
		return 0
	}
	count := bs[len(bs)-1].cum
	if count == 0 {
		return 0
	}
	rank := float64(uint64(q * count))
	for _, b := range bs[:len(bs)-1] {
		if b.cum > rank {
			return b.le
		}
	}
	if len(bs) > 1 {
		return bs[len(bs)-2].le
	}
	return 0
}

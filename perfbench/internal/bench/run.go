package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Run-shape constants: the minimum repetitions per untraced run, and
// the most one child process may take.
const (
	minReps      = 3
	childTimeout = 150 * time.Second
)

// Options are the arguments of one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	// Root is the repository root; results and scratch files go under
	// Root/.bench_build.
	Root string
	// Self is this binary, re-executed once per repetition.
	Self string
	Out  io.Writer
	Log  io.Writer
}

// Result is the final line a run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// repRun is one repetition as the orchestrator saw it.
type repRun struct {
	RepResult
	setupS float64
	rssMB  float64
}

// Run measures one workload: an untraced run reports the end-to-end
// metrics, a traced run the per-layer ones. Each repetition runs in a
// fresh child process, so warm caches and peak RSS are per repetition.
// Output checks that fail make the result incorrect; Run returns an
// error only when it could not measure at all.
func Run(o Options) error {
	if !IsWorkload(o.Workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(Workloads, ", "))
	}
	if o.Seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	// Each run's scratch space (repetition stores and corpora) stays
	// under .bench_build/work. Deleting it is not part of a run: on a
	// filesystem that discards freed blocks, unlinking a store's fsynced
	// files takes about a second per repetition.
	build := filepath.Join(o.Root, ".bench_build")
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", o.Workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	host := HostRecord(o.Root, o.Workload, o.Seed)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(o.Out, "host %s\n", hostJSON)

	var problems []string
	var reps []repRun
	var layer map[string]float64
	var spans []Span
	seq := 0
	spawn := func(args ...string) (repRun, error) {
		seq++
		return o.spawnRep(filepath.Join(work, strconv.Itoa(seq)), args...)
	}
	start := time.Now()
	if !o.Trace {
		for len(reps) < minReps || time.Since(start) < time.Duration(o.Seconds)*time.Second {
			r, err := spawn()
			if err != nil {
				return err
			}
			reps = append(reps, r)
			fmt.Fprintf(o.Log, "perfbench: %s repetition %d: wall %.3fs, set-up %.4fs, peak RSS %.0f MB (%.1fs elapsed)\n",
				o.Workload, len(reps), r.WallS, r.setupS, r.rssMB, time.Since(start).Seconds())
		}
	} else {
		plain, err := spawn()
		if err != nil {
			return err
		}
		traced, err := spawn("-traced")
		if err != nil {
			return err
		}
		reps = append(reps, plain, traced)
		layer = traced.Layer
		spans = traced.Spans
		drivers, err := o.spawnDrivers(filepath.Join(work, "drivers"))
		if err != nil {
			return err
		}
		for k, v := range drivers {
			layer[k] = v
		}
		layer["bench.trace_overhead_frac"] = traced.WallS/plain.WallS - 1
		problems = append(problems, checkCPUSum(layer)...)
	}

	problems = append(problems, o.checkDigests(reps)...)
	if o.Workload == "svc-local" || o.Workload == "svc-cluster" {
		problems = append(problems, CheckPayloads(filepath.Join(work, "reference"), o.Seed, reps[0].Payloads)...)
	}
	fmt.Fprintf(o.Log, "perfbench: %s measured and checked in %.1fs\n", o.Workload, time.Since(start).Seconds())

	res := Result{Correct: len(problems) == 0}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	list, vals := PerLayer, layer
	if o.Trace {
		fillNotApplicable(o.Workload, vals)
	} else {
		list, vals = EndToEnd, endToEnd(reps, res)
		fmt.Fprintf(o.Out, "reps %d, latency samples per rep %d\n", len(reps), len(reps[0].LatenciesMS))
	}
	metrics, err := collect(list, vals)
	if err != nil {
		return err
	}
	res.Metrics = metrics
	for _, m := range list {
		fmt.Fprintf(o.Out, "metric %-36s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(o.Out, "digest %s\n", reps[0].Digest)
	for _, p := range problems {
		fmt.Fprintf(o.Out, "check failed: %s\n", p)
	}
	if err := writeRecord(build, o, host, res, reps, spans); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// endToEnd computes the end-to-end metrics: the median over the
// repetitions of each repetition's value, and the success fraction over
// everything attempted.
func endToEnd(reps []repRun, res Result) map[string]float64 {
	var walls, setups, rss, p50s, tails []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
		setups = append(setups, r.setupS)
		rss = append(rss, r.rssMB)
		p50, tail := latencySummary(r.LatenciesMS)
		p50s = append(p50s, p50)
		tails = append(tails, tail)
	}
	return map[string]float64{
		"wall_s":         Median(walls),
		"setup_s":        Median(setups),
		"peak_rss_mb":    Median(rss),
		"latency_p50_ms": Median(p50s),
		"latency_p95_ms": Median(tails),
		"success_frac":   1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
	}
}

// errIncorrect reports a run that measured but failed an output check;
// its result line has already been printed.
var errIncorrect = errors.New("output checks failed")

// latencySummary returns a repetition's median latency and its tail:
// p95 when at least ten samples lie beyond it, otherwise (the figure
// workloads, with one sample per figure) the slowest sample.
func latencySummary(lat []float64) (p50, tail float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	if pct, _, ok := HighestTail(lat); ok && pct >= 95 {
		tail, _ = NearestRank(lat, 95)
	} else {
		tail, _ = NearestRank(lat, 100)
	}
	return Median(lat), tail
}

// spawnRep runs one repetition in a child process and measures its
// set-up time (launch to "ready") and peak RSS.
func (o Options) spawnRep(dir string, extra ...string) (repRun, error) {
	args := append([]string{"rep", "-workload", o.Workload, "-seed", strconv.FormatUint(o.Seed, 10), "-workdir", dir}, extra...)
	var run repRun
	var line []byte
	var ready time.Time
	ps, start, err := o.child(args, func(sc *bufio.Scanner) error {
		if !sc.Scan() || sc.Text() != "ready" {
			return errors.New("child did not report ready")
		}
		ready = time.Now()
		if sc.Scan() {
			line = append([]byte(nil), sc.Bytes()...)
		}
		return sc.Err()
	})
	if err != nil {
		return run, err
	}
	if err := json.Unmarshal(line, &run.RepResult); err != nil {
		return run, fmt.Errorf("repetition result: %w", err)
	}
	run.setupS = ready.Sub(start).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) * 1024 / 1e6
	}
	return run, nil
}

// spawnDrivers runs the layer drivers in a child process.
func (o Options) spawnDrivers(dir string) (map[string]float64, error) {
	args := []string{"drivers", "-workload", o.Workload, "-seed", strconv.FormatUint(o.Seed, 10), "-workdir", dir}
	var out map[string]float64
	_, _, err := o.child(args, func(sc *bufio.Scanner) error {
		if !sc.Scan() {
			return errors.New("drivers printed nothing")
		}
		return json.Unmarshal(sc.Bytes(), &out)
	})
	return out, err
}

// child runs this binary with args, hands its standard output to read,
// and waits for it to exit. Its standard error goes to the run's log.
func (o Options) child(args []string, read func(*bufio.Scanner) error) (*os.ProcessState, time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.Self, args...)
	cmd.Stderr = o.Log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, time.Time{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, start, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	rerr := read(sc)
	io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	if werr != nil {
		return nil, start, fmt.Errorf("%s %s: %w", filepath.Base(o.Self), args[0], werr)
	}
	return cmd.ProcessState, start, rerr
}

// checkDigests requires every repetition to produce the same outputs,
// and, at the seed the expected digests were recorded for, the
// recorded outputs. svc-cluster must serve exactly what svc-local does.
func (o Options) checkDigests(reps []repRun) []string {
	var problems []string
	for i, r := range reps {
		for _, p := range r.Problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
		if r.Digest != reps[0].Digest {
			problems = append(problems, fmt.Sprintf("repetition %d: digest %s differs from repetition 1's %s", i+1, r.Digest, reps[0].Digest))
		}
	}
	exp, err := readExpected(filepath.Join(o.Root, "perfbench", "expected.json"))
	if err != nil {
		return append(problems, err.Error())
	}
	if o.Seed != exp.Seed {
		return problems
	}
	names := []string{o.Workload}
	if o.Workload == "svc-cluster" {
		names = append(names, "svc-local")
	}
	for _, n := range names {
		if want := exp.Digests[n]; reps[0].Digest != want {
			problems = append(problems, fmt.Sprintf("digest %s differs from the expected %s digest %s at seed %d",
				reps[0].Digest, n, want, exp.Seed))
		}
	}
	return problems
}

// Expected holds the output digests recorded for one seed.
type Expected struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func readExpected(path string) (Expected, error) {
	var e Expected
	b, err := os.ReadFile(path)
	if err != nil {
		return e, fmt.Errorf("expected digests: %w", err)
	}
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("expected digests: %w", err)
	}
	return e, nil
}

// checkCPUSum verifies that the per-module CPU rows add up to the
// profile's total.
func checkCPUSum(layer map[string]float64) []string {
	sum := layer["runtime.gc_cpu_s"] + layer["runtime.cpu_s"] + layer["other.cpu_s"]
	for _, m := range cpuModules {
		sum += layer[m+".cpu_s"]
	}
	if d := sum - layer["bench.cpu_total_s"]; d > 1e-6 || d < -1e-6 {
		return []string{fmt.Sprintf("cpu rows sum to %.6f s, profile total is %.6f s", sum, layer["bench.cpu_total_s"])}
	}
	return nil
}

// fillNotApplicable sets the rows of layers a workload never reaches
// to 0: the service and cluster on figure workloads, the figures on
// service workloads, the cluster on svc-local.
func fillNotApplicable(workload string, vals map[string]float64) {
	var absent []string
	switch workload {
	case "figs-single", "figs-multi":
		absent = []string{"service.", "cluster.", "trace.corpus_build_s", "trace.replay_jobs"}
	case "svc-local":
		absent = []string{"experiments.fig", "cluster."}
	case "svc-cluster":
		absent = []string{"experiments.fig"}
	}
	for _, m := range PerLayer {
		for _, a := range absent {
			if _, ok := vals[m.Name]; !ok && strings.HasPrefix(m.Name, a) {
				vals[m.Name] = 0
			}
		}
	}
}

// record is the file a run leaves under .bench_build/results.
type record struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Host     Host     `json:"host"`
	Result   Result   `json:"result"`
	Reps     []repRow `json:"reps"`
	Spans    []Span   `json:"spans,omitempty"`
}

type repRow struct {
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s"`
	RSSMB    float64 `json:"peak_rss_mb"`
	P50MS    float64 `json:"latency_p50_ms"`
	TailMS   float64 `json:"latency_tail_ms"`
	Samples  int     `json:"latency_samples"`
	Digest   string  `json:"digest"`
	Problems int     `json:"problems"`
}

func writeRecord(build string, o Options, host Host, res Result, reps []repRun, spans []Span) error {
	rec := record{Workload: o.Workload, Trace: o.Trace, Host: host, Result: res, Spans: spans}
	for _, r := range reps {
		p50, tail := latencySummary(r.LatenciesMS)
		rec.Reps = append(rec.Reps, repRow{r.WallS, r.setupS, r.rssMB, p50, tail, len(r.LatenciesMS), r.Digest, len(r.Problems)})
	}
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, map[bool]int{false: 0, true: 1}[o.Trace])
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

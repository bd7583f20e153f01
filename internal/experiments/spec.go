package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/ghb"
	"repro/internal/prefetch/hybrid"
	"repro/internal/prefetch/isb"
	"repro/internal/prefetch/markov"
	"repro/internal/prefetch/nextline"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec describes one ad-hoc simulation: a benchmark under one named
// prefetcher configuration on a Table 1 machine, in rate mode when
// Cores > 1 (N copies, one per core). It is the cmd/triagesim shape
// promoted to a first-class, JSON-serializable job spec so the
// simulation service, triagesim, and triagectl all run the exact same
// machine for the same spec — byte-identical results by construction.
type RunSpec struct {
	Bench   string `json:"bench"`
	PF      string `json:"pf"`
	Cores   int    `json:"cores,omitempty"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	Seed    uint64 `json:"seed,omitempty"`
	Degree  int    `json:"degree,omitempty"`
	// Trace, when non-empty, replays a materialized corpus trace
	// ("sha256:<hex>", see trace.Corpus) instead of the Bench
	// generator: each core streams the same trace in an endless loop,
	// data addresses offset per core. Bench becomes a display label
	// (defaulted from the hash); Seed does not perturb a replay but
	// remains part of the identity for key-shape uniformity.
	Trace string `json:"trace,omitempty"`
	// Mix, when non-empty, names one workload per core: each entry is
	// either a generator benchmark name or a materialized corpus trace
	// id ("sha256:<hex>"), so a multi-core job can replay distinct
	// captured traces side by side (or mix captures with generators).
	// Cores is derived from len(Mix); Trace and Mix are mutually
	// exclusive. Every core gets the disjoint address base
	// (core+1)<<40; generator entries take the same per-core seed
	// offsets as rate mode, so a mix of N copies of one benchmark is
	// byte-identical to the plain Cores=N spec.
	Mix []string `json:"mix,omitempty"`
	// SampleEvery, when non-zero, attaches a telemetry sampler at this
	// retired-instruction interval; the sampled series is part of the
	// job's result (and of its identity — see Key).
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// CheckEvery enables the simulator's structural invariant sweep
	// (debug mode). It does not affect results and is excluded from Key.
	CheckEvery uint64 `json:"check_every,omitempty"`
}

// Normalize fills the defaulted fields so that equivalent specs
// compare (and hash) equal: an empty prefetcher means "none",
// core/degree counts below one are clamped to one, a trace id is
// canonicalized (bare hex gains its sha256: prefix), and a trace-
// backed spec with no bench label gets one derived from the hash.
func (s *RunSpec) Normalize() {
	if s.PF == "" {
		s.PF = "none"
	}
	if s.Cores < 1 {
		s.Cores = 1
	}
	if s.Degree < 1 {
		s.Degree = 1
	}
	if s.Trace != "" {
		if canon, err := trace.CanonicalTraceID(s.Trace); err == nil {
			s.Trace = canon
		}
		if s.Bench == "" {
			s.Bench = traceLabel(s.Trace)
		}
	}
	if len(s.Mix) > 0 {
		// Mix entries pin the core count; trace-id entries canonicalize
		// so equivalent spellings (bare hex vs sha256:-prefixed) hash to
		// the same content key.
		s.Cores = len(s.Mix)
		for i, entry := range s.Mix {
			if canon, err := trace.CanonicalTraceID(entry); err == nil {
				s.Mix[i] = canon
			}
		}
		if s.Bench == "" {
			labels := make([]string, len(s.Mix))
			for i, entry := range s.Mix {
				if strings.HasPrefix(entry, "sha256:") {
					labels[i] = traceLabel(entry)
				} else {
					labels[i] = entry
				}
			}
			s.Bench = strings.Join(labels, "+")
		}
	}
}

// traceLabel derives a short display label from a canonical trace id.
func traceLabel(id string) string {
	hexPart := strings.TrimPrefix(id, "sha256:")
	if len(hexPart) > 12 {
		hexPart = hexPart[:12]
	}
	return "trace-" + hexPart
}

// Validate reports the first problem that would keep the spec from
// simulating: an unknown benchmark or prefetcher, a trace id that is
// malformed or missing from the configured corpus, or an empty
// measurement window. Call Normalize first.
func (s RunSpec) Validate() error {
	switch {
	case len(s.Mix) > 0:
		if s.Trace != "" {
			return fmt.Errorf("spec sets both trace and mix; pick one")
		}
		for i, entry := range s.Mix {
			if strings.HasPrefix(entry, "sha256:") {
				if _, err := resolveTrace(entry); err != nil {
					return fmt.Errorf("mix core %d: %w", i, err)
				}
			} else if _, ok := workload.ByName(entry); !ok {
				return fmt.Errorf("mix core %d: unknown benchmark %q", i, entry)
			}
		}
	case s.Trace != "":
		if _, err := resolveTrace(s.Trace); err != nil {
			return err
		}
	default:
		if _, ok := workload.ByName(s.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", s.Bench)
		}
	}
	if _, err := parsePrefetcher(s.PF); err != nil {
		return err
	}
	if s.Measure == 0 {
		return fmt.Errorf("spec %s/%s: measure window is zero", s.Bench, s.PF)
	}
	return nil
}

// Key is the canonical identity of the spec's result: every field that
// changes the simulation's outcome (or its sampled series) is folded
// in; debug-only knobs (CheckEvery) are not. Two specs with equal keys
// produce byte-identical results, which is what makes the service's
// result store content-addressed.
func (s RunSpec) Key() string {
	bench := s.Bench
	if s.Trace != "" {
		// A trace-backed run's workload identity is the content hash,
		// not the display label: two submissions of the same trace under
		// different labels dedup onto one simulation.
		bench = s.Trace
	}
	if len(s.Mix) > 0 {
		// A mix's identity is its per-core composition — canonical
		// trace hashes and benchmark names, never display labels.
		bench = strings.Join(s.Mix, "+")
	}
	k := fmt.Sprintf("%s/%s/x%d/w%d/m%d/s%d/d%d",
		bench, s.PF, s.Cores, s.Warmup, s.Measure, s.Seed, s.Degree)
	if s.SampleEvery > 0 {
		k += fmt.Sprintf("/t%d", s.SampleEvery)
	}
	return k
}

// Run executes the simulation. The machine construction mirrors
// cmd/triagesim exactly (per-core seeds offset by 104729, disjoint
// address spaces via (core+1)<<40), so a service job and a direct
// triagesim run of the same spec return identical results. hooks may
// be nil. Construction problems return an error; a watchdog abort or
// invariant panic propagates as a panic for the caller's Guarded/
// recover wrapper, like every other pooled run.
func (s RunSpec) Run(hooks *telemetry.Hooks) (sim.Result, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return sim.Result{}, err
	}
	var spec workload.Spec
	if s.Trace != "" {
		id, err := resolveTrace(s.Trace)
		if err != nil {
			return sim.Result{}, err
		}
		// Replay: every core streams the trace from disk in a loop.
		// Core 0 replays raw addresses; higher cores offset by c<<40 for
		// the disjoint address spaces rate mode assumes.
		spec = workload.Replay(s.Bench, TraceCorpus(), id, workload.Server)
	} else if len(s.Mix) == 0 {
		spec, _ = workload.ByName(s.Bench)
	}
	m := config.Default(s.Cores)
	ws := make([]trace.Reader, s.Cores)
	pfs := make([]prefetch.Prefetcher, s.Cores)
	for c := 0; c < s.Cores; c++ {
		switch {
		case len(s.Mix) > 0:
			// Per-core workloads share the uniform disjoint base
			// (core+1)<<40 whatever their kind, so a captured trace can
			// sit next to a generator without address-space overlap.
			// Generator entries take the rate-mode seed offsets, making a
			// mix of N copies of one benchmark byte-identical to the
			// plain Cores=N spec.
			entry := s.Mix[c]
			if strings.HasPrefix(entry, "sha256:") {
				id, err := resolveTrace(entry)
				if err != nil {
					return sim.Result{}, err
				}
				sp := workload.Replay(traceLabel(id), TraceCorpus(), id, workload.Server)
				ws[c] = sp.New(0, mem.Addr(c+1)<<40)
			} else {
				sp, ok := workload.ByName(entry)
				if !ok {
					return sim.Result{}, fmt.Errorf("mix core %d: unknown benchmark %q", c, entry)
				}
				ws[c] = sp.New(s.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
			}
		case s.Trace != "":
			ws[c] = spec.New(0, mem.Addr(c)<<40)
		default:
			ws[c] = spec.New(s.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
		}
		p, err := BuildPrefetcher(s.PF, m, s.Degree)
		if err != nil {
			return sim.Result{}, err
		}
		pfs[c] = p
	}
	machine, err := sim.New(sim.Options{
		Machine:             m,
		Workloads:           ws,
		Prefetchers:         pfs,
		WarmupInstructions:  s.Warmup,
		MeasureInstructions: s.Measure,
		Telemetry:           hooks,
		CheckEvery:          s.CheckEvery,
	})
	if err != nil {
		return sim.Result{}, err
	}
	return machine.Run(), nil
}

// prefetcherTable maps every prefetcher configuration name to its
// constructor for one core. The no-L2-prefetcher names map to nil:
// they build nothing, so they cannot be a hybrid's component. Every
// caller that names prefetchers on a command line or over the wire
// resolves them here (BuildPrefetcher, RunSpec.Validate), so the names
// cannot drift between tools.
var prefetcherTable = map[string]pfFactory{
	"none":             nil,
	"stride-only":      nil,
	"bo":               pfBO,
	"sms":              pfSMS,
	"stms":             pfSTMS,
	"domino":           pfDomino,
	"misb":             pfMISB,
	"isb":              func(config.Machine) prefetch.Prefetcher { return isb.New() },
	"markov":           func(config.Machine) prefetch.Prefetcher { return markov.New(1 << 20) },
	"ghb":              func(config.Machine) prefetch.Prefetcher { return ghb.New(512) },
	"nextline":         func(config.Machine) prefetch.Prefetcher { return nextline.New(1) },
	"triage-512k":      pfTriageStatic(512 << 10),
	"triage-1m":        pfTriageStatic(1 << 20),
	"triage-dyn":       pfTriageDyn,
	"triage-dynutil":   pfTriageDynUtil,
	"triage-unlimited": pfTriageUnlimited,
}

// parsePrefetcher resolves a configuration name to its constructor
// without constructing anything: a prefetcherTable name (nil for the
// no-prefetcher names), or a '+'-joined hybrid of composable names in
// which "triage" means triage-dyn.
func parsePrefetcher(name string) (pfFactory, error) {
	if !strings.Contains(name, "+") {
		f, ok := prefetcherTable[name]
		if !ok {
			return nil, fmt.Errorf("unknown prefetcher %q", name)
		}
		return f, nil
	}
	var parts []pfFactory
	for _, part := range strings.Split(name, "+") {
		if part == "triage" {
			part = "triage-dyn"
		}
		f, ok := prefetcherTable[part]
		if !ok {
			return nil, fmt.Errorf("unknown prefetcher %q", part)
		}
		if f == nil {
			return nil, fmt.Errorf("cannot compose %q", part)
		}
		parts = append(parts, f)
	}
	return func(m config.Machine) prefetch.Prefetcher {
		ps := make([]prefetch.Prefetcher, len(parts))
		for i, f := range parts {
			ps[i] = f(m)
		}
		return hybrid.New(ps...)
	}, nil
}

// BuildPrefetcher constructs the named prefetcher configuration (see
// parsePrefetcher) for one core of machine m; the no-prefetcher names
// return nil. A degree above one is applied to a single prefetcher that
// supports it; hybrid components keep their own degree.
func BuildPrefetcher(name string, m config.Machine, degree int) (prefetch.Prefetcher, error) {
	f, err := parsePrefetcher(name)
	if err != nil || f == nil {
		return nil, err
	}
	p := f(m)
	if _, isHybrid := p.(*hybrid.Prefetcher); !isHybrid && degree > 1 {
		if ds, ok := p.(prefetch.DegreeSetter); ok {
			ds.SetDegree(degree)
		}
	}
	return p, nil
}

// EncodeResult renders a sim.Result as indented JSON with a trailing
// newline — the one wire/disk encoding shared by triagesim -json, the
// service result store, and triagectl, so "byte-identical results"
// is checkable with cmp(1). sim.Result round-trips exactly through
// JSON (uint64s parse exactly, float64 uses shortest-round-trip
// encoding), so decode+re-encode is byte-stable.
func EncodeResult(res sim.Result) []byte {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		// sim.Result is plain exported numeric data; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: encoding sim.Result: %v", err))
	}
	return append(b, '\n')
}

// fingerprintOf hashes the canonical JSON of v.
func fingerprintOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: fingerprint: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ConfigFingerprint identifies the simulated universe results belong
// to: the machine configuration (Table 1 parameters) plus the workload
// suite identity. A checkpoint or result store stamped with it refuses
// to serve results simulated under different parameters.
func ConfigFingerprint(m config.Machine) string {
	return fingerprintOf(struct {
		Machine   config.Machine `json:"machine"`
		Workloads []string       `json:"workloads"`
	}{m, workload.Names()})
}

// Fingerprint extends ConfigFingerprint with the experiment-scale
// parameters that shape results (instruction windows, mix count, seed,
// sampling interval). Debug/fault knobs (Deadline, Stall, Retries,
// CheckEvery, FaultHook) change nothing about a successful run's
// output and are excluded.
func (p Params) Fingerprint(m config.Machine) string {
	return fingerprintOf(struct {
		Machine      config.Machine `json:"machine"`
		Workloads    []string       `json:"workloads"`
		Warmup       uint64         `json:"warmup"`
		Measure      uint64         `json:"measure"`
		MultiWarmup  uint64         `json:"multi_warmup"`
		MultiMeasure uint64         `json:"multi_measure"`
		Mixes        int            `json:"mixes"`
		Seed         uint64         `json:"seed"`
		SampleEvery  uint64         `json:"sample_every"`
	}{m, workload.Names(), p.Warmup, p.Measure, p.MultiWarmup, p.MultiMeasure, p.Mixes, p.Seed, p.SampleEvery})
}

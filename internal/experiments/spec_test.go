package experiments

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/prefetch/hybrid"
	"repro/internal/telemetry"
)

func TestBuildPrefetcherKnownNames(t *testing.T) {
	m := config.Default(1)
	names := []string{
		"bo", "sms", "stms", "domino", "misb", "isb", "markov", "ghb",
		"nextline", "triage-512k", "triage-1m", "triage-dyn",
		"triage-dynutil", "triage-unlimited",
	}
	for _, n := range names {
		p, err := BuildPrefetcher(n, m, 1)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if p == nil {
			t.Errorf("%s: nil prefetcher", n)
		}
	}
}

func TestBuildPrefetcherNone(t *testing.T) {
	m := config.Default(1)
	for _, n := range []string{"none", "stride-only"} {
		p, err := BuildPrefetcher(n, m, 1)
		if err != nil || p != nil {
			t.Errorf("%s: p=%v err=%v, want nil,nil", n, p, err)
		}
	}
}

func TestBuildPrefetcherUnknown(t *testing.T) {
	m := config.Default(1)
	if _, err := BuildPrefetcher("bogus", m, 1); err == nil {
		t.Error("unknown prefetcher accepted")
	}
}

func TestBuildPrefetcherHybrid(t *testing.T) {
	m := config.Default(1)
	p, err := BuildPrefetcher("triage+bo", m, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.(*hybrid.Prefetcher)
	if !ok {
		t.Fatalf("got %T, want hybrid", p)
	}
	if len(h.Parts()) != 2 {
		t.Errorf("hybrid has %d parts", len(h.Parts()))
	}
	if _, err := BuildPrefetcher("bo+none", m, 1); err == nil {
		t.Error("hybrid with non-composable part accepted")
	}
}

func TestBuildPrefetcherDegree(t *testing.T) {
	m := config.Default(1)
	p, err := BuildPrefetcher("bo", m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(prefetch.DegreeSetter); !ok {
		t.Error("bo does not expose DegreeSetter")
	}
}

func TestRunSpecNormalizeAndKey(t *testing.T) {
	a := RunSpec{Bench: "mcf", Warmup: 1, Measure: 2}
	a.Normalize()
	if a.PF != "none" || a.Cores != 1 || a.Degree != 1 {
		t.Fatalf("normalize left %+v", a)
	}
	b := RunSpec{Bench: "mcf", PF: "none", Cores: 1, Warmup: 1, Measure: 2, Degree: 1}
	if a.Key() != b.Key() {
		t.Errorf("equivalent specs key differently: %q vs %q", a.Key(), b.Key())
	}
	// Sampling is part of the identity (the stored series differs)...
	c := b
	c.SampleEvery = 1000
	if c.Key() == b.Key() {
		t.Error("SampleEvery did not change the key")
	}
	// ...but the invariant-check debug knob is not.
	d := b
	d.CheckEvery = 1000
	if d.Key() != b.Key() {
		t.Error("CheckEvery changed the key")
	}
}

func TestRunSpecValidate(t *testing.T) {
	for _, bad := range []RunSpec{
		{Bench: "bogus", PF: "none", Cores: 1, Measure: 1, Degree: 1},
		{Bench: "mcf", PF: "bogus", Cores: 1, Measure: 1, Degree: 1},
		{Bench: "mcf", PF: "none", Cores: 1, Measure: 0, Degree: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
}

// TestValidateMatchesBuild pins that Validate and BuildPrefetcher read
// one prefetcher table: over every table name, hybrids (the "triage"
// alias included) and unknown or non-composable names, Validate fails
// exactly when BuildPrefetcher does, with the same message.
func TestValidateMatchesBuild(t *testing.T) {
	names := []string{"triage+bo", "bo+sms", "triage-1m+bo", "bo+triage+sms",
		"triage", "foo", "bo+foo", "none+bo", "bo+stride-only", "bo+", "+"}
	for n := range prefetcherTable {
		names = append(names, n)
	}
	sort.Strings(names)
	m := config.Default(1)
	for _, n := range names {
		_, buildErr := BuildPrefetcher(n, m, 1)
		spec := RunSpec{Bench: "mcf", PF: n, Measure: 1}
		spec.Normalize()
		valErr := spec.Validate()
		if (buildErr == nil) != (valErr == nil) || (buildErr != nil && buildErr.Error() != valErr.Error()) {
			t.Errorf("%q: BuildPrefetcher error %v, Validate error %v", n, buildErr, valErr)
		}
	}
	for _, bad := range []string{"foo", "bo+foo", "none+bo", "triage"} {
		if _, err := BuildPrefetcher(bad, m, 1); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// TestValidateBuildsNothing bounds Validate's allocation: checking a
// Triage spec must look the name up, not construct a prefetcher (and
// its multi-megabyte metadata store) only to throw it away.
func TestValidateBuildsNothing(t *testing.T) {
	spec := RunSpec{Bench: "mcf", PF: "triage-1m", Measure: 1}
	spec.Normalize()
	const calls = 100
	perCall := uint64(1 << 62)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / calls; b < perCall {
			perCall = b
		}
	}
	if perCall >= 64<<10 {
		t.Errorf("Validate allocates %d bytes per call, want under 64 KiB", perCall)
	}
}

// TestRunSpecDeterministic pins the service's core guarantee at the
// spec level: the same spec runs to an identical encoded result, and
// the JSON encoding round-trips byte-exactly.
func TestRunSpecDeterministic(t *testing.T) {
	rs := RunSpec{Bench: "mcf", PF: "nextline", Cores: 1, Warmup: 20_000, Measure: 50_000, Seed: 42, Degree: 1}
	r1, err := rs.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rs.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := EncodeResult(r1), EncodeResult(r2)
	if !bytes.Equal(b1, b2) {
		t.Error("same spec produced different encoded results")
	}
}

func TestRunSpecSamplerHooks(t *testing.T) {
	rs := RunSpec{Bench: "mcf", PF: "none", Cores: 1, Warmup: 0, Measure: 40_000, Seed: 42, Degree: 1, SampleEvery: 10_000}
	hooks := &telemetry.Hooks{Sampler: telemetry.NewSampler(rs.SampleEvery)}
	if _, err := rs.Run(hooks); err != nil {
		t.Fatal(err)
	}
	if len(hooks.Sampler.Samples()) == 0 {
		t.Error("sampler recorded no samples")
	}
}

package bench

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/flat"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/replacement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Layer-driver sizing: the recorded stream length, how many generators
// it is drawn from at most, the timed batch size, and the time the
// drivers spend repeating their rounds.
const (
	driverRecords    = 1 << 19
	driverGenerators = 24
	driverBatch      = 4096
	driverBudget     = 3 * time.Second
)

// generator is one of a workload's instruction streams.
type generator struct {
	class workload.Class
	new   func() trace.Reader
}

// workloadGenerators lists the instruction streams a workload's
// simulations read, constructed exactly as the program constructs them
// (same seeds and address bases), capped at driverGenerators.
func workloadGenerators(name string, seed uint64, workdir string) ([]generator, error) {
	var gens []generator
	add := func(spec workload.Spec, s uint64, base mem.Addr) {
		gens = append(gens, generator{spec.Class, func() trace.Reader { return spec.New(s, base) }})
	}
	switch name {
	case "figs-single":
		for _, spec := range append(workload.IrregularSuite(), workload.RegularSuite()...) {
			add(spec, FigureParams(seed, 0, 1).Seed, 0)
		}
	case "figs-multi":
		set := figureSets[name]
		for b := 0; b < set.batches; b++ {
			p := FigureParams(seed, b, set.batches)
			mixes := workload.Mixes(p.Mixes, 4, p.Seed, true)
			for _, cores := range []int{2, 4, 8, 16} {
				mixes = append(mixes, workload.Mixes(max(p.Mixes/2, 2), cores, p.Seed+uint64(cores), true)...)
			}
			for _, mix := range mixes {
				for c, spec := range mix.Specs {
					add(spec, p.Seed+uint64(c)*7919, mem.Addr(c+1)<<40)
				}
			}
		}
	case "svc-local", "svc-cluster":
		ids, err := BuildCorpus(filepath.Join(workdir, "corpus"), seed)
		if err != nil {
			return nil, err
		}
		if err := experiments.SetTraceCorpus(filepath.Join(workdir, "corpus")); err != nil {
			return nil, err
		}
		for _, j := range Stream(seed, ids) {
			switch {
			case j.Kind == KindRepeat:
			case j.Spec.Trace != "":
				id := j.Spec.Trace
				add(workload.Replay("replay", experiments.TraceCorpus(), id, workload.Server), 0, 0)
			case len(j.Spec.Mix) > 0:
				for c, entry := range j.Spec.Mix {
					if spec, ok := workload.ByName(entry); ok {
						add(spec, j.Spec.Seed+uint64(c)*104729, mem.Addr(c+1)<<40)
					}
				}
			default:
				spec, _ := workload.ByName(j.Spec.Bench)
				add(spec, j.Spec.Seed, 1<<40)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if len(gens) > driverGenerators {
		gens = gens[:driverGenerators]
	}
	return gens, nil
}

// access is one memory reference of the recorded stream.
type access struct {
	line  mem.Line
	pc    uint64
	store bool
}

// costs collects per-operation costs in nanoseconds by metric name.
type costs map[string][]float64

// batches runs fn for i in [0, n) in batches of driverBatch; fn returns
// how many operations call i made. Each batch's nanoseconds per
// operation are recorded under key, unless key is empty.
func (c costs) batches(key string, n int, fn func(i int) int) {
	for lo := 0; lo < n; lo += driverBatch {
		hi := min(lo+driverBatch, n)
		ops := 0
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			ops += fn(i)
		}
		if ops > 0 && key != "" {
			c[key] = append(c[key], float64(time.Since(t0).Nanoseconds())/float64(ops))
		}
	}
}

// RunDrivers records a stream from the workload's own generators and
// replays it through the public functions of each layer, timing whole
// batches. It returns the per-call costs as per-layer metrics: the
// median over every batch of every round.
func RunDrivers(name string, seed uint64, workdir string) (map[string]float64, error) {
	gens, err := workloadGenerators(name, seed, workdir)
	if err != nil {
		return nil, err
	}
	samples := make(costs)
	recs := recordStream(gens, samples)
	var lines []access
	for _, r := range recs {
		if r.Op == trace.Load || r.Op == trace.Store {
			lines = append(lines, access{mem.LineOf(r.Addr), r.PC, r.Op == trace.Store})
		}
	}
	deadline := time.Now().Add(driverBudget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		if err := driverRound(recs, lines, samples); err != nil {
			return nil, err
		}
		if round >= 20 {
			break
		}
	}
	out := make(map[string]float64)
	for _, k := range []string{
		"workload.chase_ns_per_record", "workload.stride_ns_per_record",
		"cache.l2_ns_per_access", "cache.llc1_ns_per_access", "cache.llc16_ns_per_access",
		"replacement.hawkeye_ns_per_access", "dram.simple_ns_per_access", "dram.detailed_ns_per_access",
		"core.triage_ns_per_train", "prefetch.misb_ns_per_train", "prefetch.bo_ns_per_train",
		"flat.map_ns_per_op", "trace.encode_mb_per_s", "trace.decode_mb_per_s",
	} {
		// A workload without stride generators has no stride samples;
		// its row reads 0.
		out[k] = Median(samples[k])
	}
	return out, nil
}

// recordStream draws driverRecords records from the generators, an
// equal share from each in turn, timing each generator's Next by class
// (chase for the irregular benchmarks, stride for the regular ones).
func recordStream(gens []generator, samples costs) []trace.Record {
	per := driverRecords / len(gens)
	recs := make([]trace.Record, 0, per*len(gens))
	for _, g := range gens {
		r := g.new()
		buf := make([]trace.Record, per)
		key := ""
		switch g.class {
		case workload.Irregular:
			key = "workload.chase_ns_per_record"
		case workload.Regular:
			key = "workload.stride_ns_per_record"
		}
		samples.batches(key, per, func(i int) int {
			buf[i], _ = r.Next()
			return 1
		})
		recs = append(recs, buf...)
	}
	return recs
}

// driverRound runs every layer driver once on fresh structures.
func driverRound(recs []trace.Record, lines []access, samples costs) error {
	m1, m16 := config.Default(1), config.Default(16)
	replay := func(key string, c *cache.Cache, in []access) []access {
		var misses []access
		samples.batches(key, len(in), func(i int) int {
			a := in[i]
			acc := replacement.Access{Line: a.line, PC: a.pc}
			if !c.Access(a.line, acc, uint64(i)).Hit {
				c.Fill(a.line, acc, a.store, uint64(i))
				misses = append(misses, a)
			}
			return 1
		})
		return misses
	}
	// The L1 only filters the stream the way the hierarchy does; its own
	// cost is not reported.
	l1miss := replay("", cache.New("l1", m1.L1Sets(), m1.L1Ways, replacement.NewLRU(m1.L1Sets(), m1.L1Ways)), lines)
	l2miss := replay("cache.l2_ns_per_access", cache.New("l2", m1.L2Sets(), m1.L2Ways, replacement.NewLRU(m1.L2Sets(), m1.L2Ways)), l1miss)
	llcMiss := replay("cache.llc1_ns_per_access", cache.New("llc", m1.LLCSets(), m1.LLCWays, replacement.NewLRU(m1.LLCSets(), m1.LLCWays)), l2miss)
	replay("cache.llc16_ns_per_access", cache.New("llc", m16.LLCSets(), m16.LLCWays, replacement.NewLRU(m16.LLCSets(), m16.LLCWays)), l2miss)
	replay("replacement.hawkeye_ns_per_access", cache.New("llc", m1.LLCSets(), m1.LLCWays, replacement.NewHawkeye(m1.LLCSets(), m1.LLCWays, 64, 13)), l2miss)

	for _, d := range []struct {
		key string
		ram *dram.DRAM
	}{{"dram.simple_ns_per_access", dram.New(m1, false)}, {"dram.detailed_ns_per_access", dram.New(m16, true)}} {
		samples.batches(d.key, len(llcMiss), func(i int) int {
			d.ram.Access(uint64(i)*40, llcMiss[i].line, dram.DemandRead)
			return 1
		})
	}

	for _, p := range []struct{ key, name string }{
		{"core.triage_ns_per_train", "triage-dyn"}, {"prefetch.misb_ns_per_train", "misb"}, {"prefetch.bo_ns_per_train", "bo"},
	} {
		pf, err := experiments.BuildPrefetcher(p.name, m1, 1)
		if err != nil {
			return err
		}
		if eu, ok := pf.(prefetch.EnvUser); ok {
			eu.Bind(prefetch.NopEnv{})
		}
		samples.batches(p.key, len(l2miss), func(i int) int {
			a := l2miss[i]
			pf.Train(prefetch.Event{PC: a.pc, Line: a.line, Miss: true, Store: a.store, Tick: uint64(i) * 40})
			return 1
		})
	}

	fm := flat.NewMap(1 << 12)
	samples.batches("flat.map_ns_per_op", len(l2miss), func(i int) int {
		a := l2miss[i]
		if _, ok := fm.Get(uint64(a.line)); ok {
			return 1
		}
		fm.Set(uint64(a.line), a.pc)
		return 2
	})

	var enc bytes.Buffer
	t0 := time.Now()
	w := trace.NewWriterV2(&enc)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	encS := time.Since(t0).Seconds()
	t0 = time.Now()
	rd := trace.NewReaderV2(bytes.NewReader(enc.Bytes()))
	n := 0
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
		n++
	}
	decS := time.Since(t0).Seconds()
	if err := rd.Err(); err != nil || n != len(recs) {
		return fmt.Errorf("trace round trip: %d of %d records, err %v", n, len(recs), err)
	}
	mb := float64(enc.Len()) / 1e6
	samples["trace.encode_mb_per_s"] = append(samples["trace.encode_mb_per_s"], mb/encS)
	samples["trace.decode_mb_per_s"] = append(samples["trace.decode_mb_per_s"], mb/decS)
	return nil
}

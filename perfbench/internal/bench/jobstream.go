package bench

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Kinds of job in a service stream.
const (
	// KindFresh is a single-core spec seen for the first time: a write
	// (simulate, then fsync into the result store).
	KindFresh = "fresh"
	// KindRepeat resubmits an earlier job's spec: a read, served by
	// in-flight dedup or from the store.
	KindRepeat = "repeat"
	// KindReplay replays a corpus trace (TRC2 decode on every run).
	KindReplay = "replay"
	// KindMix is a small 4-core multi-programmed mix.
	KindMix = "mix"
)

// StreamShares is the declared composition of every job stream. The
// total is at least 200 so that ten samples lie beyond p95.
var StreamShares = map[string]int{KindFresh: 150, KindRepeat: 48, KindReplay: 36, KindMix: 6}

// Windows of the generated specs, in instructions per core. A replay
// costs about twice a generator run per instruction (TRC2 decode), so
// replays get half the window: the tail then comes from the whole
// stream rather than from the replays alone.
const (
	singleWarmup  = 200_000
	singleMeasure = 200_000
	replayWarmup  = 100_000
	replayMeasure = 100_000
	mixWarmup     = 30_000
	mixMeasure    = 30_000
)

// streamPFs are the prefetchers fresh and replay jobs draw from.
var streamPFs = []string{"none", "bo", "sms", "triage-512k", "triage-1m", "triage-dyn", "misb"}

// StreamJob is one submission of a service stream.
type StreamJob struct {
	Kind string
	Spec experiments.RunSpec
	// Ref is the index of the job a repeat resubmits; -1 otherwise.
	Ref int
}

// rng is a seeded xorshift64* stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	// splitmix64 scrambles small seeds into a well-mixed nonzero state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// deck returns n indices into a list of m items, each item dealt
// ⌊n/m⌋ or ⌈n/m⌉ times, in seeded order. Dealing from a deck instead of
// drawing independently keeps the stream's composition (and so its
// cost) nearly the same for every seed; the seed picks the order, the
// pairings and which items get the extra deal.
func (r *rng) deck(n, m int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	r.shuffle(perm)
	d := make([]int, n)
	for i := range d {
		d[i] = perm[i%m]
	}
	r.shuffle(d)
	return d
}

func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Stream generates the seeded job stream for a service workload. The
// kinds appear in the exact counts of StreamShares, in a seeded order.
// Benchmarks, prefetchers and traces are dealt from decks (see deck).
// Every fresh, replay and mix spec is distinct (a unique spec seed),
// and every repeat refers to an earlier non-repeat job: half to the one
// just before it, which is likely still running (dedup), half to a
// random earlier one. traces are the corpus ids replays and mixes draw
// from.
func Stream(seed uint64, traces []string) []StreamJob {
	r := newRNG(seed)
	var kinds []string
	for _, k := range []string{KindFresh, KindRepeat, KindReplay, KindMix} {
		for i := 0; i < StreamShares[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	if kinds[0] == KindRepeat {
		for i, k := range kinds {
			if k != KindRepeat {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	names := workload.Names()
	nFresh, nReplay, nMix := StreamShares[KindFresh], StreamShares[KindReplay], StreamShares[KindMix]
	benches := r.deck(nFresh+3*nMix, len(names))
	pfs := r.deck(nFresh+nReplay+nMix, len(streamPFs))
	replayTraces := r.deck(nReplay+nMix, len(traces))
	deal := func(d *[]int) int {
		v := (*d)[0]
		*d = (*d)[1:]
		return v
	}
	specSeed := seed << 16
	jobs := make([]StreamJob, 0, len(kinds))
	var originals []int
	for i, k := range kinds {
		specSeed++
		j := StreamJob{Kind: k, Ref: -1}
		switch k {
		case KindFresh:
			j.Spec = experiments.RunSpec{Bench: names[deal(&benches)], PF: streamPFs[deal(&pfs)],
				Warmup: singleWarmup, Measure: singleMeasure, Seed: specSeed}
		case KindReplay:
			j.Spec = experiments.RunSpec{Trace: traces[deal(&replayTraces)], PF: streamPFs[deal(&pfs)],
				Warmup: replayWarmup, Measure: replayMeasure, Seed: specSeed}
		case KindMix:
			mix := make([]string, 4)
			tracePos := r.intn(len(mix))
			for c := range mix {
				if c == tracePos {
					mix[c] = traces[deal(&replayTraces)]
				} else {
					mix[c] = names[deal(&benches)]
				}
			}
			j.Spec = experiments.RunSpec{Mix: mix, PF: streamPFs[deal(&pfs)],
				Warmup: mixWarmup, Measure: mixMeasure, Seed: specSeed}
		case KindRepeat:
			if r.intn(2) == 0 {
				j.Ref = originals[len(originals)-1]
			} else {
				j.Ref = originals[r.intn(len(originals))]
			}
			j.Spec = jobs[j.Ref].Spec
			j.Spec.Mix = append([]string(nil), j.Spec.Mix...)
		}
		if k != KindRepeat {
			originals = append(originals, i)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// Corpus shape: a few irregular-benchmark captures, built at set-up.
const (
	corpusTraces  = 12
	corpusRecords = 100_000
)

// BuildCorpus captures the seeded corpus traces into the
// content-addressed corpus at dir and returns their ids in capture
// order. The same seed always yields the same ids.
func BuildCorpus(dir string, seed uint64) ([]string, error) {
	c, err := trace.OpenCorpus(dir)
	if err != nil {
		return nil, err
	}
	suite := workload.IrregularSuite()
	picks := newRNG(seed^0xc0ffee).deck(corpusTraces, len(suite))
	ids := make([]string, 0, corpusTraces)
	for i, pick := range picks {
		spec := suite[pick]
		src := spec.New(seed+uint64(i), 0)
		w, err := c.Create()
		if err != nil {
			return nil, err
		}
		for n := 0; n < corpusRecords; n++ {
			rec, ok := src.Next()
			if !ok {
				w.Abort()
				return nil, fmt.Errorf("corpus: generator %s ended early", spec.Name)
			}
			if err := w.Write(rec); err != nil {
				w.Abort()
				return nil, err
			}
		}
		id, err := w.Commit()
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

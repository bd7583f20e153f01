package bench

import (
	"reflect"
	"testing"
)

var testTraces = []string{
	"sha256:" + "11111111111111111111111111111111111111111111111111111111111111aa",
	"sha256:" + "22222222222222222222222222222222222222222222222222222222222222bb",
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, b := Stream(7, testTraces), Stream(7, testTraces)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different streams")
	}
	if reflect.DeepEqual(a, Stream(8, testTraces)) {
		t.Fatal("different seeds produced the same stream")
	}
}

func TestStreamShares(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		jobs := Stream(seed, testTraces)
		if len(jobs) < 200 {
			t.Fatalf("seed %d: %d jobs; p95 needs at least 200", seed, len(jobs))
		}
		counts := make(map[string]int)
		keys := make(map[string]bool)
		for i, j := range jobs {
			counts[j.Kind]++
			s := j.Spec
			s.Mix = append([]string(nil), s.Mix...)
			s.Normalize()
			if err := s.Validate(); err != nil && j.Spec.Trace == "" && len(j.Spec.Mix) == 0 {
				t.Errorf("seed %d job %d: invalid spec: %v", seed, i, err)
			}
			switch j.Kind {
			case KindRepeat:
				if j.Ref < 0 || j.Ref >= i || jobs[j.Ref].Kind == KindRepeat {
					t.Errorf("seed %d job %d: repeat refers to job %d", seed, i, j.Ref)
				} else if !reflect.DeepEqual(j.Spec, jobs[j.Ref].Spec) {
					t.Errorf("seed %d job %d: repeat spec differs from job %d", seed, i, j.Ref)
				}
			default:
				if keys[s.Key()] {
					t.Errorf("seed %d job %d: %s spec %s is not new", seed, i, j.Kind, s.Key())
				}
				keys[s.Key()] = true
			}
			switch {
			case j.Kind == KindReplay && j.Spec.Trace == "",
				j.Kind == KindMix && len(j.Spec.Mix) != 4,
				j.Kind == KindFresh && (j.Spec.Trace != "" || len(j.Spec.Mix) > 0):
				t.Errorf("seed %d job %d: %s job has spec %+v", seed, i, j.Kind, j.Spec)
			}
		}
		if !reflect.DeepEqual(counts, StreamShares) {
			t.Errorf("seed %d: kinds %v, declared %v", seed, counts, StreamShares)
		}
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	a, err := BuildCorpus(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(a) != corpusTraces {
		t.Fatalf("corpus ids differ or are short: %v vs %v", a, b)
	}
}

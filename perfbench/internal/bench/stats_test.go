package bench

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		ok     bool
	}{
		{200, 95, true},
		{199, 94, true},
		{240, 95, true},
		{1000, 99, true},
		{20, 50, true},
		{19, 0, false},
	} {
		pct, v, ok := HighestTail(seq(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: got p%d ok=%v, want p%d ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if ok {
			if _, beyond := NearestRank(seq(c.n), pct); beyond < 10 {
				t.Errorf("n=%d: p%d has %d samples beyond it", c.n, pct, beyond)
			}
			if want := float64((pct*c.n + 99) / 100); v != want {
				t.Errorf("n=%d: p%d = %v, want %v", c.n, pct, v, want)
			}
		}
	}
}

func TestNearestRankP95Of200(t *testing.T) {
	v, beyond := NearestRank(seq(200), 95)
	if v != 190 || beyond != 10 {
		t.Fatalf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestLatencySummaryFallsBackToSlowest(t *testing.T) {
	if p50, tail := latencySummary([]float64{5, 1, 9}); p50 != 5 || tail != 9 {
		t.Errorf("3 samples: p50 %v tail %v, want 5 and the slowest, 9", p50, tail)
	}
	if _, tail := latencySummary(seq(240)); tail != 228 {
		t.Errorf("240 samples: tail %v, want p95 = 228", tail)
	}
}

package bench

import "sort"

// Median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// NearestRank returns the nearest-rank pct-th percentile of xs (pct
// in 1..100) and how many samples lie beyond it. The rank is computed
// in integers so that, say, p95 of 200 samples is exactly rank 190.
func NearestRank(xs []float64, pct int) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	rank := (pct*len(s) + 99) / 100
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// HighestTail returns the highest whole percentile, from 99 down to
// 50, that has at least minBeyond samples beyond it, with its value.
// ok is false when even the median lacks that many.
func HighestTail(xs []float64) (pct int, v float64, ok bool) {
	for pct = 99; pct >= 50; pct-- {
		v, beyond := NearestRank(xs, pct)
		if beyond >= minBeyond {
			return pct, v, true
		}
	}
	return 0, 0, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p50Gmean is the geometric mean over the groups of each group's
// median. Over a mix of instances of very different size, the median
// of all samples falls between two instances' latency clusters and
// jumps with the slowest solve of the one below; each instance's own
// median does not.
func p50Gmean(groups map[string][]float64) float64 {
	logs := 0.0
	for _, xs := range groups {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(groups)))
}

// pooled returns every group's samples in one slice.
func pooled(groups map[string][]float64) []float64 {
	var all []float64
	for _, xs := range groups {
		all = append(all, xs...)
	}
	return all
}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest of the percentiles 90, 99 and 99.9
// with at least minBeyond of n samples beyond it, or 0 when even p90
// has fewer (n < 100).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// beyond is the number of samples ranked above percentile p of n
// samples.
func beyond(n int, p float64) int { return n - int(math.Ceil(float64(n)*p/100-1e-9)) }

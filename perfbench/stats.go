package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method of Python's
// statistics.quantiles). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest whole percentile p (at most 99) that
// leaves at least minBeyond samples above it out of n, or 0 when even
// the median leaves fewer: a tail figure is only reported with enough
// samples to estimate it.
func tailPercentile(n, minBeyond int) int {
	for p := 99; p >= 50; p-- {
		if float64(n)*float64(100-p)/100 >= float64(minBeyond) {
			return p
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks: rank q·(n−1), so q=0 is the
// minimum, q=1 the maximum and q=0.5 the usual median. xs is not modified.
// It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

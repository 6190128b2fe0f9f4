package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[int(p*float64(len(s)-1)+0.5)]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// midmean is the mean of xs without its lowest and highest tenth — at
// least one value from each end, given three or more. Where the spread of
// the iterations is input spread it is nearly as steady as the mean, and a
// stalled iteration moves it no more than it moves the median.
func midmean(xs []float64) float64 {
	s := sorted(xs)
	if n := len(s); n >= 3 {
		k := max(1, n/10)
		s = s[k : n-k]
	}
	return mean(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method) — the rule the benchmark contract judges run-to-run spread by.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over a run's reps.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of xs. Quartiles use the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so a spread
// computed here matches one computed from the printed values.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := quartiles(s)
	return summary{Median: med, Q1: q[0], Q3: q[2], N: n}
}

// quartiles implements statistics.quantiles(sorted, n=4, method="exclusive").
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	var out [3]float64
	if n == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

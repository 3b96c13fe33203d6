package main

import (
	"math"
	"sort"

	"exysim/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, one outlier moves the figure.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly beyond it. xs need not
// be sorted and is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle of xs by internal/stats' percentile rule,
// which averages the two middle values of an even count; 0 for none.
func median(xs []float64) float64 {
	var p stats.Population
	for _, x := range xs {
		p.Add(x)
	}
	return p.Percentile(50)
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4)
// (method "exclusive"), so spreads computed inside a run follow the same
// rule as spreads computed over runs. It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return q, false
	}
	s := sorted(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

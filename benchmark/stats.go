package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values, 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// percentileLadder is the fixed set of percentiles the benchmark reports
// from, each with the share of samples beyond it as one in beyond;
// tailPercentile picks the highest one the sample supports.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10_000}}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of the n samples beyond it, 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, l := range percentileLadder {
		if n >= 10*l.beyond {
			best = l.p
		}
	}
	return best
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the spread rule in the benchmark contract is written against.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// sliceRates counts the events in each whole one-second slice of
// [lo, hi) and returns the per-second rates. Times are nanoseconds.
func sliceRates(ends []int64, lo, hi int64) []float64 {
	const sec = int64(1e9)
	n := int((hi - lo) / sec)
	rates := make([]float64, n)
	for _, e := range ends {
		if i := (e - lo) / sec; e >= lo && i < int64(n) {
			rates[i]++
		}
	}
	return rates
}

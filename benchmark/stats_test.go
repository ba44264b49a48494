package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSliceMedianThroughput(t *testing.T) {
	const sec = int64(1e9)
	// Slices hold 3, 1 and 5 completions; a completion before the window,
	// one in the trailing partial slice and one after it do not count.
	ends := []int64{
		10*sec - 1,
		10 * sec, 10*sec + 1, 11*sec - 1,
		11*sec + 5,
		12 * sec, 12*sec + 1, 12*sec + 2, 12*sec + 3, 13*sec - 1,
		13*sec + 1, 14 * sec,
	}
	rates := sliceRates(ends, 10*sec, 13*sec+sec/2)
	if len(rates) != 3 || rates[0] != 3 || rates[1] != 1 || rates[2] != 5 {
		t.Fatalf("rates = %v, want [3 1 5]", rates)
	}
	if m := median(rates); m != 3 {
		t.Errorf("median rate = %v, want 3", m)
	}
}

// The spread rule is stated against Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4, 6}, 3, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (iqr 5.5 over median 5.5)", s)
	}
}

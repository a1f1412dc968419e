package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) and statistics.median of the same lists.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 7, 9.5},
		{[]float64{2.5, 3.5, 1.5, 9, 4, 4, 6}, 2.5, 4, 6},
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
	}
	for _, c := range cases {
		got := summarize(c.xs)
		if got.N != len(c.xs) || !near(got.Q1, c.q1) || !near(got.Median, c.med) || !near(got.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, got, c.q1, c.med, c.q3)
		}
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
	if got := summarize([]float64{3}); got != (summary{N: 1, Median: 3, Q1: 3, Q3: 3}) {
		t.Errorf("summarize([3]) = %+v", got)
	}
	// Two samples: the exclusive method extrapolates to 0.5 and 3.5; the
	// quartiles are clamped to the data.
	if got := summarize([]float64{1, 3}); got != (summary{N: 2, Median: 2, Q1: 1, Q3: 3}) {
		t.Errorf("summarize([1 3]) = %+v", got)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	v, ok := percentile(xs, 95)
	if v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %g, %v; want 190 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:199], 95); ok {
		t.Error("p95 of 199 samples has only 9 beyond it and must not be reported")
	}
	if v, ok := percentile(xs, 50); v != 100 || !ok {
		t.Errorf("p50 of 1..200 = %g, %v", v, ok)
	}
	if _, ok := percentile(xs[:15], 50); ok {
		t.Error("p50 of 15 samples has 7 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
	for _, p := range []float64{50, 90, 95, 99} {
		n := samplesFor(p)
		if _, ok := percentile(make([]float64, n), p); !ok {
			t.Errorf("samplesFor(%g) = %d is too few", p, n)
		}
		if _, ok := percentile(make([]float64, n-1), p); ok {
			t.Errorf("samplesFor(%g) = %d is not the smallest count", p, n)
		}
	}
}

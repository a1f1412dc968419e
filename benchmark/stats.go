package main

import (
	"math"
	"sort"

	"nwids/internal/metrics"
)

// summary is how a timing is reported: the median over its samples with
// the quartiles and the sample count.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so the
// spreads printed here are the ones the driver computes from repeated runs.
// With a handful of samples that method extrapolates past the data; the
// quartiles are then clamped to the smallest and largest sample. Fewer than
// two samples have no spread: the quartiles equal the median.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return math.Max(s[0], math.Min(s[n-1], (s[j-1]*(4-delta)+s[j]*delta)/4))
	}
	return summary{N: n, Median: med, Q1: quart(1), Q3: quart(3)}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	return max(1, min(n, int(math.Ceil(p/100*float64(n)))))
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// and whether at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	k := rank(n, p)
	return s[k-1], n-k >= minBeyond
}

// samplesFor is the smallest sample count for which percentile(p) is
// supported by minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for n-rank(n, p) < minBeyond {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is the arithmetic mean, and 0 of nothing.
func mean(xs []float64) float64 {
	m, _ := metrics.MeanOK(xs)
	return m
}

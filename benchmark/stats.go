package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail resting on fewer is one or two outliers.
const minBeyond = 10

// tailPercentiles are the tail candidates the benchmark may report, from
// the highest down.
var tailPercentiles = []float64{99.99, 99.9, 99, 90}

// supportedTail returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or 50 when even p90 does not.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// beyond counts the samples of n strictly above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples, the rule internal/metrics uses for its own quantiles. The
// epsilon keeps float error in p/100·n from pushing an exact rank up one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of the samples,
// sorting a copy; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle of the samples (mean of the two middle values
// for an even count); 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

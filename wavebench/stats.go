package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before it may be reported as the tail: a p99 over 40 samples is
// one sample, not a distribution.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (the mean of the two middles for an even
// count), or NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank index of percentile p over n samples.
// The epsilon keeps float error in p·n/100 (99.9·10000/100 is not exactly
// 9990) from pushing the rank up one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// tail returns the highest ladder percentile with at least minBeyond
// samples strictly beyond its nearest rank, and the sample at that rank.
// ok is false when there are too few samples for any of them.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		r := rank(p, n)
		if n-r >= minBeyond {
			return p, s[r-1], true
		}
	}
	return 0, 0, false
}

// mean is the arithmetic mean of xs, or NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

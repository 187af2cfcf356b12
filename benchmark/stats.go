package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as supported (choosing-metrics §1).
const minBeyond = 10

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// slice: the smallest sample with at least p·n samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tail is a high percentile steadied against one-off stalls: samples,
// in the order the operations were issued, are cut into as many
// equal-count consecutive segments as still leave minBeyond samples
// beyond the percentile in each, and the median of the per-segment
// percentiles is reported. A stall that pollutes one stretch of the run
// moves one segment, not the figure; a slower tail moves every segment.
type tail struct {
	value    float64
	segments int
	beyond   int // samples beyond the percentile in each segment
}

func tailPercentile(inOrder []float64, p float64) tail {
	n := len(inOrder)
	if n == 0 {
		return tail{}
	}
	need := int(math.Ceil(minBeyond / (1 - p))) // samples per segment for minBeyond beyond
	segs := n / need
	if segs < 1 {
		segs = 1
	}
	per := n / segs
	vals := make([]float64, segs)
	for s := range vals {
		vals[s] = percentile(sortedCopy(inOrder[s*per:(s+1)*per]), p)
	}
	return tail{value: median(vals), segments: segs, beyond: beyond(per, p)}
}

// quartileSpread is (Q3 − Q1) ÷ median with the "exclusive" quartiles
// Python's statistics.quantiles(values, n=4) gives, which is how the
// driver judges a metric's run-to-run spread.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

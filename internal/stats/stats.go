// Package stats provides the small statistics toolkit used by the
// evaluation harness: means and percentiles (Fig 7 plots per-node
// bandwidth consumption at percentiles of its CDF).
package stats

import (
	"math"
	"sort"
)

// Sample is an immutable collection of float64 observations.
type Sample struct {
	sorted []float64
}

// NewSample copies xs and returns a Sample; the input slice is not retained.
func NewSample(xs []float64) Sample {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return Sample{sorted: cp}
}

// Len returns the number of observations.
func (s Sample) Len() int { return len(s.sorted) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s Sample) Mean() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.sorted {
		sum += x
	}
	return sum / float64(len(s.sorted))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s Sample) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s Sample) Max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. An empty sample yields 0.
func (s Sample) Percentile(p float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Median is Percentile(50).
func (s Sample) Median() float64 { return s.Percentile(50) }

// ChiSquareUniform returns the chi-square statistic of observed bucket
// counts against a uniform expectation. It is used by membership tests to
// sanity-check that successor/monitor selection is close to uniform.
func ChiSquareUniform(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	expected := float64(total) / float64(len(counts))
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

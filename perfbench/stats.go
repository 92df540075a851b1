package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks, the rule numpy and R type 7 use.
// It returns NaN for an empty sample and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

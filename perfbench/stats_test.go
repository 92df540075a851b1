package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{xs, 0, 15},
		{xs, 100, 50},
		{xs, 50, 35},
		{xs, 25, 20},
		{xs, 40, 29},   // position 1.6: 20 + 0.6*15
		{xs, 90, 46},   // position 3.6: 40 + 0.6*10
		{xs, 99, 49.6}, // position 3.96
		{[]float64{3, 1, 2, 4}, 50, 2.5},
		{[]float64{7}, 99, 7},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %v, want NaN", got)
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestSeedMean checks that every seed weighs the same: a seed with more
// samples does not pull the figure towards its values.
func TestSeedMean(t *testing.T) {
	bySeed := [][]float64{{1, 2, 9}, {4}, {}, {10, 10}}
	got, n := seedMean(bySeed, func(x float64) float64 { return x })
	if want := (2.0 + 4 + 10) / 3; math.Abs(got-want) > 1e-12 || n != 6 {
		t.Errorf("seedMean = %v over %d samples, want %v over 6", got, n, want)
	}
}

// TestLoopRunsWholePasses checks that a run covers every seed equally
// often and stops at a pass boundary once the budget is spent.
func TestLoopRunsWholePasses(t *testing.T) {
	c := config{w: workload{seeds: 3}, budget: 30 * time.Millisecond}
	counts := make([]int, 3)
	passes := 0
	loop(c, func(pass, i int) {
		counts[i]++
		passes = pass + 1
		time.Sleep(4 * time.Millisecond)
	})
	for i, n := range counts {
		if n != passes {
			t.Errorf("seed %d ran %d times in %d passes", i, n, passes)
		}
	}
	if passes < 1 || passes > 3 {
		t.Errorf("ran %d passes of about 12 ms in a 30 ms budget", passes)
	}
}

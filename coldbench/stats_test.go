package main

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{4}, 0.95, 4},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		// rank 0.95·(5−1) = 3.8: 4 + 0.8·(5−4)
		{[]float64{5, 1, 4, 2, 3}, 0.95, 4.8},
		// rank 0.25·(11−1) = 2.5 over 0..10 ×10
		{[]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.25, 25},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{start: 10 * ms, end: 30 * ms}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 20 * ms},
		{"one child", []span{{start: 12 * ms, end: 17 * ms}}, 15 * ms},
		{"disjoint children", []span{{start: 12 * ms, end: 14 * ms}, {start: 20 * ms, end: 25 * ms}}, 13 * ms},
		{"overlapping parallel children", []span{{start: 12 * ms, end: 20 * ms}, {start: 15 * ms, end: 22 * ms}}, 10 * ms},
		{"nested children", []span{{start: 12 * ms, end: 28 * ms}, {start: 14 * ms, end: 16 * ms}}, 4 * ms},
		{"child sticking out", []span{{start: 5 * ms, end: 15 * ms}, {start: 25 * ms, end: 40 * ms}}, 10 * ms},
		{"child outside", []span{{start: 31 * ms, end: 35 * ms}}, 20 * ms},
		{"unsorted touching children", []span{{start: 20 * ms, end: 30 * ms}, {start: 10 * ms, end: 20 * ms}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	five := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 10, 1},
		{ten, 1, 1},
		{five, 5, 15},
		{five, 30, 20},
		{five, 40, 20},
		{five, 50, 35},
		{five, 100, 50},
		{[]float64{7}, 90, 7},
	} {
		if got := nearestRank(tc.sorted, tc.p); got != tc.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got) {
		t.Errorf("nearestRank(nil) = %v, want NaN", got)
	}
}

func TestOpQuantilesNeedsHundredOps(t *testing.T) {
	lat := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64((i*37)%n + 1) // 1..n, shuffled
		}
		return out
	}
	for _, tc := range []struct {
		n        int
		ok       bool
		p50, p90 float64
	}{
		{0, false, 0, 0},
		{3, false, 0, 0},
		{99, false, 0, 0},
		{100, true, 50, 90},
		{1000, true, 500, 900},
	} {
		samples := lat(tc.n)
		p50, p90, err := opQuantiles(samples, minTailOps)
		if (err == nil) != tc.ok {
			t.Fatalf("%d ops: err = %v, want ok = %v", tc.n, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if p50 != tc.p50 || p90 != tc.p90 {
			t.Errorf("%d ops: p50, p90 = %v, %v, want %v, %v", tc.n, p50, p90, tc.p50, tc.p90)
		}
		beyond := 0
		for _, v := range samples {
			if v > p90 {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("%d ops: %d samples beyond p90, want at least 10", tc.n, beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2}, summary{1, 1, 2}},
		{[]float64{3, 1, 4, 1, 5}, summary{1, 3, 4}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{3, 5, 8}},
		{[]float64{4}, summary{4, 4, 4}},
	} {
		in := slices.Clone(tc.xs)
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
		if !slices.Equal(in, tc.xs) {
			t.Errorf("summarize reordered its input: %v", tc.xs)
		}
	}
	if got := summarize(nil); !math.IsNaN(got.Median) {
		t.Errorf("summarize(nil) = %+v, want NaN", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 75},
		{"past the end", []interval{{90, 120}}, 90},
		{"outside", []interval{{120, 130}}, 100},
		{"covering", []interval{{-10, 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWindowRates(t *testing.T) {
	s := time.Second
	for _, tc := range []struct {
		name  string
		done  []time.Duration
		items []int
		wall  time.Duration
		want  []float64
	}{
		{"short phase is one sample", []time.Duration{s / 2, s}, []int{3, 5}, 3 * s / 2, []float64{8 / 1.5}},
		{"whole windows", []time.Duration{s / 2, s / 2, 3 * s / 2}, []int{2, 3, 4}, 2 * s, []float64{5, 4}},
		{"partial last window dropped", []time.Duration{s / 2, 3 * s / 2, 5 * s / 2}, []int{1, 2, 7}, 5 * s / 2, []float64{1, 2}},
		{"empty window", []time.Duration{s / 2, 5 * s / 2}, []int{1, 1}, 3 * s, []float64{1, 0, 1}},
	} {
		if got := windowRates(tc.done, tc.items, tc.wall, s); !slices.Equal(got, tc.want) {
			t.Errorf("%s: windowRates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// An aggregated child's calls run on the parent's goroutine, so its
// busy time, not its first-to-last interval, comes off the parent.
func TestFinalizeSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 100, Count: 1},
		{ID: 2, Parent: 1, Name: "read", Start: 0, End: 20, Count: 1},
		{ID: 3, Parent: 1, Name: "encode", Start: 30, End: 90, Count: 20, Busy: 25},
		{ID: 4, Parent: 2, Name: "inner", Start: 5, End: 10, Count: 1},
	}}
	want := map[string]time.Duration{"op": 55, "read": 15, "encode": 25, "inner": 5}
	for _, s := range tr.finalize() {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

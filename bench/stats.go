package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailOps is the fewest samples op_p90_ms is reported from: with at
// least 100 ops, at least 10 samples lie beyond the nearest-rank p90.
const minTailOps = 100

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank method: the smallest sample with at
// least p% of all samples at or below it. It is always a measured
// value, never an interpolation.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// opQuantiles returns the nearest-rank p50 and p90 of the op
// latencies. It refuses to report a p90 from fewer than minOps
// samples; minTailOps leaves at least ten samples beyond it.
func opQuantiles(lat []float64, minOps int) (p50, p90 float64, err error) {
	if len(lat) < minOps {
		return 0, 0, fmt.Errorf("op_p90_ms needs at least %d ops, measured %d", minOps, len(lat))
	}
	s := sortedCopy(lat)
	return nearestRank(s, 50), nearestRank(s, 90), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is a median with its quartiles.
type summary struct {
	Q1, Median, Q3 float64
}

// summarize returns the nearest-rank p25, p50 and p75 of xs.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Q1: nearestRank(s, 25), Median: nearestRank(s, 50), Q3: nearestRank(s, 75)}
}

// median of sorted samples: the middle one, or the mean of the two
// middle ones.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// interval is a closed span of time on one clock.
type interval struct {
	start, end time.Duration
}

// selfTime is the part of parent's duration that none of its children
// covers: the duration minus the union of the children's intervals,
// each clipped to the parent. Overlapping children (work fanned out in
// parallel) are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// windowRates cuts a phase of length wall into whole windows of length
// win and returns each window's throughput: the items of the ops that
// completed in it (op i completed at done[i] with items[i]) per second.
// A phase shorter than two windows is one sample, its overall rate.
func windowRates(done []time.Duration, items []int, wall, win time.Duration) []float64 {
	n := int(wall / win)
	if n < 2 {
		total := 0
		for _, k := range items {
			total += k
		}
		return []float64{float64(total) / wall.Seconds()}
	}
	counts := make([]int, n)
	for i, d := range done {
		if w := int(d / win); w < n {
			counts[w] += items[i]
		}
	}
	out := make([]float64, n)
	for w, c := range counts {
		out[w] = float64(c) / win.Seconds()
	}
	return out
}

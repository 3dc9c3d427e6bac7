package soc

import (
	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

// phaseCursor tracks which workload phase the clock is in. Workloads
// loop (time wraps modulo the total duration, like benchmarks rerun
// during power measurements), and the tick loop advances time by one
// fixed sample interval per iteration — so the active phase can be
// maintained incrementally in amortized O(1) per tick instead of
// re-deriving it with a modulo and a scan over all phases.
//
// The cursor reproduces the reference mapping exactly: after advancing
// to time t, index() equals the first i such that t mod total falls
// inside phase i (a sample landing on a boundary belongs to the next
// phase).
type phaseCursor struct {
	phases []workload.Phase
	total  sim.Time
	idx    int      // active phase index
	into   sim.Time // time elapsed inside the active phase, < its duration
}

func newPhaseCursor(w workload.Workload) phaseCursor {
	return phaseCursor{phases: w.Phases, total: w.TotalDuration()}
}

// index returns the active phase index.
func (c *phaseCursor) index() int { return c.idx }

// phase returns the active phase, in place in the workload's phase
// slice.
func (c *phaseCursor) phase() *workload.Phase { return &c.phases[c.idx] }

// nextBoundary returns the time remaining until the cursor leaves the
// active phase — the span-batched core's phase-edge bound. It is always
// positive (the cursor's invariant is into < the active duration), and
// a sample taken exactly nextBoundary() from now belongs to the next
// phase (boundary samples map to the following phase, matching
// advance's wrap rule).
func (c *phaseCursor) nextBoundary() sim.Time {
	return c.phases[c.idx].Duration - c.into
}

// advance moves the cursor forward by dt.
func (c *phaseCursor) advance(dt sim.Time) {
	if c.total <= 0 || dt <= 0 {
		return
	}
	// Positions are modular: collapse whole loop iterations up front so
	// a dt exceeding the loop length (short workloads) stays cheap.
	c.into += dt % c.total
	for c.into >= c.phases[c.idx].Duration {
		c.into -= c.phases[c.idx].Duration
		c.idx++
		if c.idx == len(c.phases) {
			c.idx = 0
		}
	}
}

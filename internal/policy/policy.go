// Package policy implements the power-management governors evaluated in
// the paper: the fixed worst-case baseline, the static multi-domain
// DVFS setup of the §3 motivation experiments, SysScale itself, and the
// two prior-work comparators MemScale [16] and CoScale [14] with their
// -Redist variants (§6).
//
// All governors implement soc.Policy and observe the platform only
// through the PolicyContext — counters, CSRs and the budget table —
// never through oracle workload knowledge.
package policy

import (
	"sysscale/internal/dram"
	"sysscale/internal/memctrl"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// Baseline is the evaluation baseline: SysScale disabled. The IO and
// memory domains stay at the highest operating point with worst-case
// reservations forever (Observations 1-2).
type Baseline struct{}

// NewBaseline returns the baseline governor.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements soc.Policy.
func (*Baseline) Name() string { return "baseline" }

// Reset implements soc.Policy.
func (*Baseline) Reset() {}

// Clone implements soc.Policy.
func (*Baseline) Clone() soc.Policy { return &Baseline{} }

// Decide implements soc.Policy: always the top point, always worst-case
// reservations.
func (*Baseline) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	return soc.PolicyDecision{
		Target:       ctx.Ladder[0],
		OptimizedMRC: true,
		IOBudget:     ctx.Reserve[0].IO,
		MemBudget:    ctx.Reserve[0].Mem,
	}
}

// StaticPoint pins the IO and memory domains at a fixed ladder point —
// the crude static emulation of SysScale used for the motivation
// experiments on Broadwell (§3, §6 "Methodology for Collecting
// Motivational Data") and the Fig. 4 MRC study.
type StaticPoint struct {
	// PointIndex selects the ladder entry to pin.
	PointIndex int
	// OptimizedMRC controls whether per-frequency register images are
	// used; false reproduces the unoptimized-MRC runs of Fig. 4.
	OptimizedMRC bool
	// Redistribute resizes the domain reservations to the pinned point
	// (giving compute the freed budget). The §3 experiments first
	// measure without redistribution (power savings only), then with
	// the saved budget moved to the cores (the 1.3GHz runs).
	Redistribute bool
}

// NewStaticPoint pins the ladder point at index with optimized MRC.
func NewStaticPoint(index int, redistribute bool) *StaticPoint {
	return &StaticPoint{PointIndex: index, OptimizedMRC: true, Redistribute: redistribute}
}

// Name implements soc.Policy.
func (s *StaticPoint) Name() string {
	n := "static-point"
	if !s.OptimizedMRC {
		n += "-unopt-mrc"
	}
	if s.Redistribute {
		n += "-redist"
	}
	return n
}

// Reset implements soc.Policy.
func (*StaticPoint) Reset() {}

// Clone implements soc.Policy.
func (s *StaticPoint) Clone() soc.Policy {
	c := *s
	return &c
}

// Decide implements soc.Policy.
func (s *StaticPoint) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	idx := s.PointIndex
	if idx < 0 || idx >= len(ctx.Ladder) {
		idx = 0
	}
	budget := ctx.Reserve[0]
	if s.Redistribute {
		budget = ctx.Reserve[idx]
	}
	return soc.PolicyDecision{
		Target:       ctx.Ladder[idx],
		OptimizedMRC: s.OptimizedMRC,
		IOBudget:     budget.IO,
		MemBudget:    budget.Mem,
	}
}

// defaultStaticBWThr derives STATIC_BW_THR from the ladder: the static
// (configuration-determined) demand the low point can absorb while
// leaving headroom for dynamic traffic. Beyond ~45% of the low point's
// usable bandwidth, isochronous static streams alone make the low
// point unsafe.
func defaultStaticBWThr(ladder []vf.OperatingPoint) float64 {
	low := ladder[len(ladder)-1]
	return 0.45 * peakUsable(low)
}

// peakUsable returns the usable memory bandwidth at an operating point
// on the default platform (peak × scheduler efficiency).
func peakUsable(op vf.OperatingPoint) float64 {
	return dram.DefaultGeometry().PeakBandwidth(op.DDR) * memctrl.DefaultParams().SchedulingEff
}

package soc

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Result is the outcome of one simulation run — the quantities the
// paper reports per workload: performance, average power, energy, EDP,
// plus the model-internal telemetry the experiments and tests need.
type Result struct {
	Workload string
	Policy   string
	Duration sim.Time

	// Score is work completed per second (1.0 = the workload's
	// reference progress rate sustained continuously in C0). For
	// throughput workloads, relative Scores are the paper's
	// performance ratios; for battery workloads Score stays at the
	// fixed demand as long as the demand is met.
	Score float64
	// ActiveScore is progress per active (C0) second — the
	// instantaneous performance level during active phases.
	ActiveScore float64
	// PerfMet reports whether a fixed-demand (battery) workload met
	// its performance demand throughout.
	PerfMet bool

	AvgPower power.Watt
	Energy   power.Joule
	// EDP is energy × delay per unit of work (J·s per work unit²),
	// the §2.4 efficiency metric: lower is better.
	EDP float64

	RailAvg [vf.NumRails]power.Watt

	// DVFS telemetry.
	Transitions    int
	TransitionTime sim.Time
	MaxTransition  sim.Time
	// PointResidency[i] is the fraction of run time spent at
	// ladder point i. Time at a point off the ladder (MemScale's and
	// CoScale's derived targets) is booked to the first ladder point
	// with the same DDR bin, or to point 0 when none has it.
	PointResidency []float64

	// Compute telemetry.
	AvgCoreFreq vf.Hz
	AvgGfxFreq  vf.Hz

	// CounterAvg is the run-average counter sample.
	CounterAvg perfcounters.Sample
}

// Check verifies the physics a Result must obey, each to relative
// tolerance tol:
//
//   - Energy equals AvgPower × Duration;
//   - the rail averages sum to AvgPower;
//   - PointResidency sums to 1;
//   - Score does not exceed ActiveScore (work per elapsed second
//     cannot beat work per active second).
//
// It reports every violated invariant, or nil.
func (r Result) Check(tol float64) error {
	var errs []error
	// The comparisons are written so that a NaN fails them.
	near := func(what string, got, want float64) {
		if d := math.Abs(got - want); !(d <= tol*max(math.Abs(got), math.Abs(want))) {
			errs = append(errs, fmt.Errorf("soc: %s: got %g, want %g", what, got, want))
		}
	}
	near("Energy = AvgPower × Duration", float64(r.Energy), float64(r.AvgPower)*r.Duration.Seconds())
	var rails power.Watt
	for _, w := range r.RailAvg {
		rails += w
	}
	near("sum of RailAvg = AvgPower", float64(rails), float64(r.AvgPower))
	var resid float64
	for _, f := range r.PointResidency {
		resid += f
	}
	near("sum of PointResidency = 1", resid, 1)
	if !(r.Score <= r.ActiveScore*(1+tol)) {
		errs = append(errs, fmt.Errorf("soc: Score %g exceeds ActiveScore %g", r.Score, r.ActiveScore))
	}
	return errors.Join(errs...)
}

// Summary renders a one-line digest.
func (r Result) Summary() string {
	return fmt.Sprintf("%s/%s: score %.4f, avg %.3fW, EDP %.4g, low-point %.0f%%, %d transitions",
		r.Workload, r.Policy, r.Score, r.AvgPower, r.EDP, r.lowResidency()*100, r.Transitions)
}

func (r Result) lowResidency() float64 {
	if len(r.PointResidency) < 2 {
		return 0
	}
	var f float64
	for _, v := range r.PointResidency[1:] {
		f += v
	}
	return f
}

// String renders a multi-line report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload  %s\npolicy    %s\nduration  %v\n", r.Workload, r.Policy, r.Duration)
	fmt.Fprintf(&b, "score     %.4f (active %.4f, perf-met %v)\n", r.Score, r.ActiveScore, r.PerfMet)
	fmt.Fprintf(&b, "avg power %.3fW  energy %.3fJ  EDP %.4g\n", r.AvgPower, r.Energy, r.EDP)
	for i, w := range r.RailAvg {
		fmt.Fprintf(&b, "  %-7s %.3fW\n", vf.RailID(i), w)
	}
	fmt.Fprintf(&b, "core freq %v  gfx freq %v\n", r.AvgCoreFreq, r.AvgGfxFreq)
	fmt.Fprintf(&b, "transitions %d (total %v, max %v)\n", r.Transitions, r.TransitionTime, r.MaxTransition)
	for i, res := range r.PointResidency {
		fmt.Fprintf(&b, "  point[%d] residency %.1f%%\n", i, res*100)
	}
	return b.String()
}

// PerfImprovement returns (r/base - 1) of the Scores: the paper's
// performance-improvement metric.
func PerfImprovement(r, base Result) float64 {
	if base.Score == 0 {
		return 0
	}
	return r.Score/base.Score - 1
}

// PowerReduction returns (1 - r/base) of the average powers: the
// paper's battery-life metric.
func PowerReduction(r, base Result) float64 {
	if base.AvgPower == 0 {
		return 0
	}
	return 1 - float64(r.AvgPower/base.AvgPower)
}

// EnergyReduction returns (1 - r/base) of the per-work energies.
func EnergyReduction(r, base Result) float64 {
	if base.Score == 0 || r.Score == 0 || base.AvgPower == 0 {
		return 0
	}
	ePerWork := float64(r.AvgPower) / r.Score
	basePerWork := float64(base.AvgPower) / base.Score
	return 1 - ePerWork/basePerWork
}

// EDPImprovement returns (1 - r/base) of EDP (positive = better).
func EDPImprovement(r, base Result) float64 {
	if base.EDP == 0 {
		return 0
	}
	return 1 - r.EDP/base.EDP
}

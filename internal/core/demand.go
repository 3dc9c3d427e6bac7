// Package core implements SysScale's primary contribution: the demand
// prediction mechanism and the holistic power-management decision
// algorithm (§4.2-4.3 of the paper).
//
// Prediction is split the way the paper splits it:
//
//   - Static demand derives deterministically from peripheral
//     configuration registers (number of active displays, resolution,
//     refresh rate, camera streams). A firmware table maps every
//     configuration to its bandwidth demand.
//   - Dynamic demand derives from four performance counters
//     (GFX_LLC_MISSES, LLC_Occupancy_Tracer, LLC_STALLS, IO_RPQ),
//     compared against thresholds calibrated offline as µ+σ of the
//     counter values observed on runs whose degradation stayed below
//     the bound.
//
// The decision algorithm moves the SoC to the high operating point if
// any of the five conditions of §4.3 holds, and to the low point
// otherwise. By construction (thresholds chosen from the safe
// population) the algorithm has no false positives: it never picks the
// low point when the true degradation exceeds the bound — a property
// the Fig. 6 experiment checks explicitly.
package core

import (
	"fmt"

	"sysscale/internal/ioengine"
	"sysscale/internal/perfcounters"
)

// StaticDemand is the configuration-derived demand estimate.
type StaticDemand struct {
	DisplayBW float64 // bytes/s for all active panels
	CameraBW  float64 // bytes/s for the ISP stream
}

// Total returns the aggregate static bandwidth demand.
func (d StaticDemand) Total() float64 { return d.DisplayBW + d.CameraBW }

// StaticEstimator is the firmware table mapping peripheral
// configuration to demand (§4.2: "SysScale maintains a table inside
// the firmware of the PMU that maps every possible configuration of
// peripherals ... to IO and memory bandwidth/latency demand values").
// The table is keyed by the CSR contents the estimator reads.
type StaticEstimator struct{}

// Estimate reads the IO CSRs and returns the static demand. The
// estimate is exact because a peripheral configuration's demand is
// deterministic (a 60Hz 4K panel always scans the same bytes).
func (StaticEstimator) Estimate(csr ioengine.CSR) StaticDemand {
	return StaticDemand{
		DisplayBW: csr.DisplayBandwidth(),
		CameraBW:  csr.Camera.Bandwidth(),
	}
}

// Thresholds holds the per-counter decision thresholds, in the counter
// order of perfcounters.SysScaleCounters.
type Thresholds struct {
	GfxMisses   float64 // GFX_THR
	OccTracer   float64 // Core_THR
	LLCStalls   float64 // LAT_THR
	IORPQ       float64 // IO_THR
	StaticBWThr float64 // STATIC_BW_THR (bytes/s)
	DegradBound float64 // acceptable degradation bound (e.g. 0.01)
}

// Validate checks the thresholds are usable.
func (t Thresholds) Validate() error {
	if t.DegradBound <= 0 || t.DegradBound >= 1 {
		return fmt.Errorf("core: degradation bound %.3f outside (0,1)", t.DegradBound)
	}
	if t.StaticBWThr <= 0 {
		return fmt.Errorf("core: non-positive static bandwidth threshold")
	}
	for _, v := range []float64{t.GfxMisses, t.OccTracer, t.LLCStalls, t.IORPQ} {
		if v < 0 {
			return fmt.Errorf("core: negative counter threshold")
		}
	}
	return nil
}

// Decision is the algorithm's output for one evaluation interval.
type Decision struct {
	// High is true when the SoC must (stay at / move to) the
	// high-performance operating point.
	High bool
	// Reasons records which of the five conditions fired, for
	// explainability and tests. Empty when High is false.
	Reasons Conditions
}

// Conditions is a set of the five §4.3 conditions, one bit each, so a
// decision records its reasons without allocating.
type Conditions uint8

// Has reports whether c is in the set.
func (s Conditions) Has(c Condition) bool { return s&(1<<c) != 0 }

// add returns the set with c added.
func (s Conditions) add(c Condition) Conditions { return s | 1<<c }

// Condition identifies one of the five §4.3 conditions.
type Condition int

// The five conditions, in the paper's order.
const (
	CondStaticBW Condition = iota + 1
	CondGfxBandwidth
	CondCoreBandwidth
	CondMemLatency
	CondIOLatency
)

func (c Condition) String() string {
	switch c {
	case CondStaticBW:
		return "static-demand>STATIC_BW_THR"
	case CondGfxBandwidth:
		return "GFX_LLC_Misses>GFX_THR"
	case CondCoreBandwidth:
		return "LLC_Occupancy_Tracer>Core_THR"
	case CondMemLatency:
		return "LLC_STALLS>LAT_THR"
	case CondIOLatency:
		return "IO_RPQ>IO_THR"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Decide applies the five-condition rule to one interval's averaged
// counters and static demand.
func Decide(t Thresholds, static StaticDemand, counters perfcounters.Sample) Decision {
	var d Decision
	if static.Total() > t.StaticBWThr {
		d.Reasons = d.Reasons.add(CondStaticBW)
	}
	if counters.Get(perfcounters.GfxLLCMisses) > t.GfxMisses {
		d.Reasons = d.Reasons.add(CondGfxBandwidth)
	}
	if counters.Get(perfcounters.LLCOccupancyTracer) > t.OccTracer {
		d.Reasons = d.Reasons.add(CondCoreBandwidth)
	}
	if counters.Get(perfcounters.LLCStalls) > t.LLCStalls {
		d.Reasons = d.Reasons.add(CondMemLatency)
	}
	if counters.Get(perfcounters.IORPQ) > t.IORPQ {
		d.Reasons = d.Reasons.add(CondIOLatency)
	}
	d.High = d.Reasons != 0
	return d
}

package soc

import (
	"sysscale/internal/compute"
	"sysscale/internal/dram"
	"sysscale/internal/memctrl"
	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// This file implements the paper's §6 comparison methodology for
// MemScale-Redist and CoScale-Redist. No real system implements either
// technique, so the paper *projects* their performance: (1) estimate
// each technique's average power savings from per-component
// measurements, (2) map a compute-budget increase to a frequency
// increase through a performance/power model, and (3) scale by the
// workload's measured performance scalability. We reproduce that
// projection here, feeding it with the baseline run's measured
// utilizations — alongside the honest closed-loop policy simulations in
// internal/policy, which additionally expose the penalties (detuned
// registers, shared-rail limits) the projection ignores.

// MemScaleProjectedSavings estimates the average power MemScale would
// save on the workload of a baseline run: the frequency-only savings of
// the components it scales (memory controller clock, DRAM background,
// DDRIO clock), at the baseline's measured utilization, over the
// DRAM-active share of time. Voltage terms are excluded because the
// V_SA and V_IO rails are shared with unscaled components (§2.1), and
// register-detuning penalties are excluded because the projection—like
// the paper's—is generous to the prior work.
func MemScaleProjectedSavings(base Result, high, low vf.OperatingPoint) power.Watt {
	bw := base.CounterAvg.Get(perfcounters.MemReadBytes) + base.CounterAvg.Get(perfcounters.MemWriteBytes)
	geom := dram.DefaultGeometry()
	mcp := memctrl.DefaultParams()
	usableHigh := geom.PeakBandwidth(high.DDR) * mcp.SchedulingEff
	util := 0.0
	if usableHigh > 0 {
		util = bw / usableHigh
	}
	if util > 1 {
		util = 1
	}
	activity := 0.18 + 0.82*util

	// Memory controller: clock scales, V_SA cannot.
	mcHigh := power.Dynamic(mcp.Cdyn, high.VSA, high.MC, activity)
	mcLow := power.Dynamic(mcp.Cdyn, high.VSA, low.MC, activity)

	// DRAM background power scales linearly with the transfer rate.
	pp := dram.DefaultPowerParams()
	bgHigh := power.Watt(float64(pp.BackgroundPerHz) * float64(high.DDR))
	bgLow := power.Watt(float64(pp.BackgroundPerHz) * float64(low.DDR))

	// DDRIO digital: clock scales, V_IO cannot.
	dd := newDDRIO()
	ddHigh := power.Dynamic(dd.cdyn, high.VIO, high.DDR/2, 0.25+0.75*util)
	ddLow := power.Dynamic(dd.cdyn, high.VIO, low.DDR/2, 0.25+0.75*util)

	save := (mcHigh - mcLow) + (bgHigh - bgLow) + (ddHigh - ddLow)
	if save < 0 {
		save = 0
	}
	return power.Watt(float64(save) * dramActiveShare(base))
}

// CoScaleProjectedSavings adds CoScale's CPU half: during the fraction
// of time the workload stalls on memory, the coordinated search runs
// the cores one notch lower, saving a share of core dynamic power.
func CoScaleProjectedSavings(base Result, high, low vf.OperatingPoint) power.Watt {
	mem := MemScaleProjectedSavings(base, high, low)
	stallFrac := base.CounterAvg.Get(perfcounters.LLCStalls) / 100
	if stallFrac > 1 {
		stallFrac = 1
	}
	// One demotion notch (~20% clock) near-cubically reduces core power
	// on the sloped part of the V/F curve; 45% is the per-notch saving
	// CoScale's gradient search typically realizes.
	coreSave := float64(base.RailAvg[vf.RailVCore]) * stallFrac * 0.45
	return mem + power.Watt(coreSave)
}

// dramActiveShare estimates the share of run time with DRAM out of
// self-refresh from the result's counter telemetry: battery workloads
// only expose savings during C0/C2 (§7.3).
func dramActiveShare(base Result) float64 {
	// CoreCycles counts only active time; its ratio to the granted
	// frequency recovers the C0 share. Memory stays active in C2 as
	// well; the display's C2 traffic is a small addition, so the C0
	// share is a slightly conservative proxy.
	if base.AvgCoreFreq <= 0 {
		return 1
	}
	share := base.CounterAvg.Get(perfcounters.CoreCycles) / float64(base.AvgCoreFreq)
	if share > 1 {
		share = 1
	}
	if share < 0 {
		share = 0
	}
	return share
}

// ProjectedPerfGain runs the paper's projection steps 2 and 3: convert
// the savings into a compute-budget increase, the budget into a
// frequency increase (through the same V/F machinery the PBM uses),
// and the frequency increase into performance using the workload's
// measured scalability scal (see Scalability).
//
// gfx selects the graphics projection (Fig. 8) instead of the CPU one.
func ProjectedPerfGain(base Result, scal float64, savings power.Watt, gfx bool) (float64, error) {
	if savings <= 0 {
		return 0, nil
	}
	if gfx {
		g, err := compute.NewGfx(compute.DefaultGfxParams())
		if err != nil {
			return 0, err
		}
		// The graphics engines hold ~85% of the compute budget on
		// graphics workloads (§7.2).
		f0 := float64(base.AvgGfxFreq)
		budget0 := g.PlannedPower(vf.Hz(f0), 0.85)
		f1 := float64(g.FreqForBudget(budget0+savings, 0.85))
		if f0 <= 0 {
			return 0, nil
		}
		return scal * (f1/f0 - 1), nil
	}
	c, err := compute.NewCores(compute.DefaultCoreParams())
	if err != nil {
		return 0, err
	}
	f0 := float64(base.AvgCoreFreq)
	active := 1
	budget0 := c.PlannedPower(vf.Hz(f0), active, 0.75)
	f1 := float64(c.FreqForBudget(budget0+savings, active, 0.75))
	if f0 <= 0 {
		return 0, nil
	}
	return scal * (f1/f0 - 1), nil
}

// scalabilityBump is the relative clock raise of the probe run.
const scalabilityBump = 1.10

// ScalabilityProbeConfig returns the configuration of the scalability
// probe (footnote 8): the baseline rerun with the relevant clock
// raised 10%. ok is false when the base run exposes no relevant clock;
// the scalability is then defined as 0.
func ScalabilityProbeConfig(cfg Config, base Result, gfx bool) (probe Config, ok bool) {
	probe = cfg
	if gfx {
		if base.AvgGfxFreq <= 0 {
			return probe, false
		}
		probe.FixedGfxFreq = vf.Hz(float64(base.AvgGfxFreq) * scalabilityBump)
		probe.FixedCoreFreq = base.AvgCoreFreq
	} else {
		if base.AvgCoreFreq <= 0 {
			return probe, false
		}
		probe.FixedCoreFreq = vf.Hz(float64(base.AvgCoreFreq) * scalabilityBump)
	}
	return probe, true
}

// Scalability is the workload's performance scalability with compute
// frequency (footnote 8): the relative score change of the probe run
// (see ScalabilityProbeConfig) per relative frequency change, clamped
// to [0, 1].
func Scalability(base, probe Result) float64 {
	if base.Score <= 0 {
		return 0
	}
	scal := (probe.Score/base.Score - 1) / (scalabilityBump - 1)
	if scal < 0 {
		scal = 0
	}
	if scal > 1 {
		scal = 1
	}
	return scal
}

// ProjectedPowerReduction is the battery-life analogue (Fig. 9): the
// technique's projected savings as a fraction of the baseline's
// average power.
func ProjectedPowerReduction(base Result, savings power.Watt) float64 {
	if base.AvgPower <= 0 {
		return 0
	}
	frac := float64(savings / base.AvgPower)
	if frac < 0 {
		frac = 0
	}
	return frac
}

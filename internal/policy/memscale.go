package policy

import (
	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// MemScale reimplements the MemScale governor [16] at epoch
// granularity: memory-subsystem-only DVFS under a slack target. On this
// platform that means scaling the DRAM device, the DDRIO clock and the
// memory controller clock — but, unlike SysScale:
//
//   - the IO interconnect keeps its full clock, and since it shares
//     V_SA with the memory controller, V_SA cannot be lowered;
//   - the DDRIO-digital voltage (V_IO) is likewise untouched (§2.4:
//     prior schemes scale frequencies, with voltage reduced only for
//     the controller — impossible here because of the shared rail);
//   - configuration registers are NOT retrained per frequency
//     (Observation 4): the boot image runs detuned at the low bin.
//
// The -Redist variant adds the paper's §6 projection: the measured
// average IO+memory power saving is credited to the compute budget.
type MemScale struct {
	// Redistribute enables the -Redist projection.
	Redistribute bool
	// UtilTarget is the bandwidth utilization below which the governor
	// considers the memory subsystem over-provisioned (MemScale's
	// slack-based control translated to the epoch model).
	UtilTarget float64
	// StallThr guards latency slack: above it the governor stays high.
	StallThr float64

	credit savingsCredit
	memo   memPointMemo
}

// NewMemScale returns the plain (power-saving only) governor.
func NewMemScale() *MemScale {
	return &MemScale{UtilTarget: 0.33, StallThr: 20.0}
}

// NewMemScaleRedist returns the MemScale-Redist comparator of §6.
func NewMemScaleRedist() *MemScale {
	m := NewMemScale()
	m.Redistribute = true
	return m
}

// Name implements soc.Policy.
func (m *MemScale) Name() string {
	if m.Redistribute {
		return "memscale-redist"
	}
	return "memscale"
}

// Reset implements soc.Policy.
func (m *MemScale) Reset() { m.credit = savingsCredit{} }

// Clone implements soc.Policy: the copy keeps the tuning knobs but
// starts with an empty savings credit.
func (m *MemScale) Clone() soc.Policy {
	c := *m
	c.Reset()
	return &c
}

// Decide implements soc.Policy.
func (m *MemScale) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	top := ctx.Ladder[0]
	lowIdx := 1
	if lowIdx >= len(ctx.Ladder) {
		lowIdx = 0
	}
	memLow := m.memo.point(ctx.Ladder[lowIdx], top)

	goLow := m.wantLow(ctx, top)
	target := top
	atLow := ctx.Current.DDR < top.DDR
	if goLow {
		target = memLow
	}

	dec := soc.PolicyDecision{
		Target:       target,
		OptimizedMRC: false, // keeps the boot image (Observation 4)
		IOBudget:     ctx.Reserve[0].IO,
		MemBudget:    ctx.Reserve[0].Mem,
	}
	if m.Redistribute {
		m.credit.observe(atLow, ctx.IOMemPower)
		dec.ComputeBonus = m.credit.bonus(goLow)
	}
	return dec
}

// wantLow applies MemScale's slack test using observable counters: the
// memory subsystem is over-provisioned when measured bandwidth
// utilization and latency pressure are both low.
func (m *MemScale) wantLow(ctx soc.PolicyContext, top vf.OperatingPoint) bool {
	return slackAvailable(ctx, top, m.UtilTarget, m.StallThr)
}

// slackAvailable is the shared MemScale/CoScale slack test. A naive
// "achieved bandwidth below target" rule self-traps at the low point
// (serving less convinces the governor demand is low), so the test is
// point-aware: from the top point it compares demand against the top's
// usable bandwidth; from the low point it returns to the top when
// measured traffic fills more than half of the low point's (detuned)
// usable bandwidth.
func slackAvailable(ctx soc.PolicyContext, top vf.OperatingPoint, utilTarget, stallThr float64) bool {
	if ctx.Warmup {
		return ctx.Current.DDR < top.DDR // hold the current point
	}
	bw := ctx.Counters.Get(perfcounters.MemReadBytes) + ctx.Counters.Get(perfcounters.MemWriteBytes)
	stalls := ctx.Counters.Get(perfcounters.LLCStalls)
	atLow := ctx.Current.DDR < top.DDR
	if !atLow {
		return bw < utilTarget*peakUsable(top) && stalls < stallThr
	}
	lowIdx := 1
	if lowIdx >= len(ctx.Ladder) {
		lowIdx = 0
	}
	lowUsable := peakUsable(ctx.Ladder[lowIdx]) * detunedInterfaceEff
	return bw < 0.5*lowUsable && stalls < stallThr*1.5
}

// detunedInterfaceEff mirrors the bandwidth loss of running the boot
// MRC image at the low bin (Observation 4), which these governors
// suffer by design.
const detunedInterfaceEff = 0.9

// memOnlyPoint derives MemScale's operating point: the low point's
// memory clocks with the top point's interconnect clock and voltages
// (the shared rails cannot move).
func memOnlyPoint(low, top vf.OperatingPoint) vf.OperatingPoint {
	return vf.OperatingPoint{
		Name:    "mem-" + low.Name,
		DDR:     low.DDR,
		MC:      low.MC,
		Interco: top.Interco,
		VSA:     top.VSA,
		VIO:     top.VIO,
	}
}

// memPointMemo is a one-slot cache over memOnlyPoint. Ladders are
// fixed for the life of a run, so after the first epoch every Decide
// reuses the composed point — and, critically, its allocated Name
// string: the naked concat was one heap allocation per policy epoch
// on the sweep hot path. Keyed on both inputs, so a memo copied by
// Clone (or carried across Reset) can never serve a stale point.
type memPointMemo struct {
	low, top vf.OperatingPoint
	pt       vf.OperatingPoint
	ok       bool
}

func (m *memPointMemo) point(low, top vf.OperatingPoint) vf.OperatingPoint {
	if !m.ok || m.low != low || m.top != top {
		m.low, m.top, m.pt, m.ok = low, top, memOnlyPoint(low, top), true
	}
	return m.pt
}

// savingsCredit tracks the measured IO+memory power at the high and
// low points (EWMA) and converts the difference into the §6 projection
// credit when running low.
type savingsCredit struct {
	highW, lowW    float64
	haveHi, haveLo bool
}

const creditAlpha = 0.2

func (c *savingsCredit) observe(atLow bool, ioMem power.Watt) {
	v := float64(ioMem)
	if v <= 0 {
		return
	}
	if atLow {
		if !c.haveLo {
			c.lowW = v
			c.haveLo = true
		} else {
			c.lowW += creditAlpha * (v - c.lowW)
		}
	} else {
		if !c.haveHi {
			c.highW = v
			c.haveHi = true
		} else {
			c.highW += creditAlpha * (v - c.highW)
		}
	}
}

func (c *savingsCredit) bonus(goingLow bool) power.Watt {
	if !goingLow || !c.haveHi || !c.haveLo {
		return 0
	}
	d := c.highW - c.lowW
	if d < 0 {
		return 0
	}
	return power.Watt(d)
}

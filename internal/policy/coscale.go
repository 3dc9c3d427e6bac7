package policy

import (
	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// CoScale reimplements the CoScale governor [14] at epoch granularity:
// coordinated CPU + memory-subsystem DVFS under a joint performance
// constraint. Relative to MemScale it adds the CPU half of the search:
// when the interval is heavily memory bound, lowering the core clock
// costs little performance, so CoScale demotes the cores and banks the
// saved compute power. Because the coordination bounds the combined
// slowdown, CoScale can also afford a looser memory slack target than
// MemScale alone.
//
// Like MemScale, CoScale does not touch the IO interconnect, cannot
// lower the shared V_SA / V_IO rails, and does not retrain the DRAM
// configuration registers per frequency (§8's drawbacks list).
//
// The -Redist variant projects both credits (memory savings and banked
// core savings) onto the compute budget, per §6.
type CoScale struct {
	Redistribute bool
	// UtilTarget mirrors MemScale's but looser (joint slack).
	UtilTarget float64
	StallThr   float64
	// MemBoundThr is the stall level above which the cores are
	// demoted.
	MemBoundThr float64
	// DemoteRatio is the core-clock reduction applied when demoting.
	DemoteRatio float64
	// FloorFreq bounds demotion (Pn: cores never go below their most
	// efficient frequency — which is why CoScale degenerates to
	// MemScale on graphics and battery workloads, §7.2-7.3).
	FloorFreq vf.Hz

	credit     savingsCredit
	coreCredit float64
	demoted    vf.Hz // sticky demotion target while memory bound
	memo       memPointMemo
}

// NewCoScale returns the plain governor.
func NewCoScale() *CoScale {
	return &CoScale{
		UtilTarget:  0.42,
		StallThr:    24.0,
		MemBoundThr: 60.0,
		DemoteRatio: 0.80,
		FloorFreq:   1.2 * vf.GHz,
	}
}

// NewCoScaleRedist returns the CoScale-Redist comparator of §6.
func NewCoScaleRedist() *CoScale {
	c := NewCoScale()
	c.Redistribute = true
	return c
}

// Name implements soc.Policy.
func (c *CoScale) Name() string {
	if c.Redistribute {
		return "coscale-redist"
	}
	return "coscale"
}

// Reset implements soc.Policy.
func (c *CoScale) Reset() {
	c.credit = savingsCredit{}
	c.coreCredit = 0
	c.demoted = 0
}

// Clone implements soc.Policy: the copy keeps the tuning knobs but
// starts with empty credits and no sticky demotion.
func (c *CoScale) Clone() soc.Policy {
	cp := *c
	cp.Reset()
	return &cp
}

// Decide implements soc.Policy.
func (c *CoScale) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	top := ctx.Ladder[0]
	lowIdx := 1
	if lowIdx >= len(ctx.Ladder) {
		lowIdx = 0
	}
	memLow := c.memo.point(ctx.Ladder[lowIdx], top)

	stalls := ctx.Counters.Get(perfcounters.LLCStalls)
	goLow := slackAvailable(ctx, top, c.UtilTarget, c.StallThr)
	atLow := ctx.Current.DDR < top.DDR
	target := top
	if goLow {
		target = memLow
	}

	dec := soc.PolicyDecision{
		Target:       target,
		OptimizedMRC: false,
		IOBudget:     ctx.Reserve[0].IO,
		MemBudget:    ctx.Reserve[0].Mem,
	}

	// CPU half of the coordinated search: demote the cores during
	// memory-bound intervals and bank the unused compute budget. The
	// demotion target is sticky (one notch off the undemoted grant) so
	// consecutive memory-bound intervals do not compound the cut.
	if stalls > c.MemBoundThr && ctx.CoreFreq > 0 {
		if c.demoted == 0 {
			c.demoted = vf.Hz(float64(ctx.CoreFreq) * c.DemoteRatio)
		}
		if c.demoted < c.FloorFreq {
			c.demoted = c.FloorFreq
		}
		if c.demoted < ctx.CoreFreq {
			dec.CoreFreqReq = c.demoted
		}
	} else {
		c.demoted = 0
	}
	if c.Redistribute {
		c.credit.observe(atLow, ctx.IOMemPower)
		// Bank whatever compute budget the demoted cores left unused
		// last interval (running-average power limiting lets later
		// intervals spend it).
		unused := float64(ctx.ComputeBudget - ctx.ComputePower)
		if dec.CoreFreqReq > 0 && unused > 0 {
			c.coreCredit += creditAlpha * (unused - c.coreCredit)
		} else {
			c.coreCredit *= 1 - creditAlpha
		}
		dec.ComputeBonus = c.credit.bonus(goLow) + power.Watt(c.coreCredit)
	}
	return dec
}

package policy

import (
	"sysscale/internal/core"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// SysScale is the paper's governor (§4): every evaluation interval it
// estimates static demand from the CSRs, applies the five-condition
// rule over the window-averaged counters, moves the IO and memory
// domains between adjacent ladder points accordingly, reloads optimized
// MRC images on every move, and re-reserves the domain budgets at the
// chosen point so the PBM can redistribute the difference to compute.
type SysScale struct {
	// Thr are the calibrated decision thresholds (offline µ+σ, §4.2).
	Thr core.Thresholds
	// HighScale inflates the thresholds when judged from a lower
	// operating point: counters measured at the low point are larger
	// for the same demand (loaded latency is higher), so the
	// stay-low/go-high comparison uses dedicated thresholds per
	// adjacent pair (§4.3 "with dedicated thresholds").
	HighScale float64

	estimator core.StaticEstimator
}

// NewSysScale builds the governor with calibrated thresholds.
func NewSysScale(thr core.Thresholds) *SysScale {
	return &SysScale{Thr: thr, HighScale: defaultHighScale}
}

// NewSysScaleDefault builds the governor with the baked default
// calibration for the Table 2 platform (see DefaultThresholds).
func NewSysScaleDefault() *SysScale {
	return NewSysScale(DefaultThresholds())
}

// defaultHighScale is the threshold inflation for decisions taken at
// the low point, matching the loaded-latency ratio between the points.
const defaultHighScale = 1.5

// Name implements soc.Policy.
func (*SysScale) Name() string { return "sysscale" }

// Reset implements soc.Policy.
func (*SysScale) Reset() {}

// Clone implements soc.Policy.
func (s *SysScale) Clone() soc.Policy {
	c := *s
	return &c
}

// calibCoreFreq is the core clock at which the default thresholds were
// calibrated. The traffic-proportional counters (occupancy, stall
// share) scale with the core clock for a given workload, so the
// firmware normalizes the thresholds by the granted P-state — without
// this a 15W part running 3.6GHz under-detects memory pressure and a
// 3.5W part running 1.7GHz over-detects it.
const calibCoreFreq vf.Hz = 2.4 * vf.GHz

// Decide implements soc.Policy.
func (s *SysScale) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	cur := ladderIndex(ctx)
	if ctx.Warmup {
		// No counter samples yet (first interval after reset): hold the
		// boot point rather than deciding on empty counters.
		return soc.PolicyDecision{
			Target:       ctx.Current,
			OptimizedMRC: true,
			IOBudget:     ctx.Reserve[cur].IO,
			MemBudget:    ctx.Reserve[cur].Mem,
		}
	}
	static := s.estimator.Estimate(ctx.CSR)

	thr := s.Thr
	if ctx.CoreFreq > 0 {
		norm := float64(calibCoreFreq) / float64(ctx.CoreFreq)
		if norm < 0.55 {
			norm = 0.55
		}
		if norm > 1.7 {
			norm = 1.7
		}
		thr.OccTracer *= norm
		thr.LLCStalls *= norm
	}
	if cur > 0 {
		// Judged from a lower point: the occupancy-type counters (queue
		// occupancies, stall counts) inflate with the low point's higher
		// loaded latency, so the pair's dedicated thresholds scale them
		// up. GFX_LLC_MISSES is a rate counter and needs no scaling.
		scale := s.HighScale
		if scale <= 0 {
			scale = defaultHighScale
		}
		thr.OccTracer *= scale
		thr.LLCStalls *= scale
		thr.IORPQ *= scale
	}
	d := core.Decide(thr, static, ctx.Counters)

	// Move one step at a time between adjacent points (§4.3: "the
	// above algorithm decides between two adjacent operating points").
	next := cur
	if d.High {
		if cur > 0 {
			next = cur - 1
		}
	} else {
		if cur < len(ctx.Ladder)-1 {
			next = cur + 1
		}
	}
	return soc.PolicyDecision{
		Target:       ctx.Ladder[next],
		OptimizedMRC: true,
		IOBudget:     ctx.Reserve[next].IO,
		MemBudget:    ctx.Reserve[next].Mem,
	}
}

// ladderIndex locates the current point in the ladder (0 when not
// found, which only happens on malformed ladders).
func ladderIndex(ctx soc.PolicyContext) int {
	for i, op := range ctx.Ladder {
		if op == ctx.Current {
			return i
		}
	}
	return 0
}

// DefaultThresholds returns the baked calibration for the default
// platform. The values were derived with the offline procedure of §4.2
// (µ+σ over the below-bound population of a calibration sweep, then
// the zero-false-positive guard pass — reproducible via
// experiments.Calibrate) and then hand-adjusted against the SPEC,
// 3DMark and battery suites, the same way production firmware tunes
// fused thresholds after the statistical pass.
//
// Units: GfxMisses is a miss rate (events/s); OccTracer is a queue
// occupancy (requests); LLCStalls is a stall-cycle percentage; IORPQ
// is a queue occupancy; StaticBWThr is bytes/s.
func DefaultThresholds() core.Thresholds {
	return core.Thresholds{
		GfxMisses:   150e6,
		OccTracer:   5.5,
		LLCStalls:   18.0,
		IORPQ:       4.0,
		StaticBWThr: 6.5e9,
		DegradBound: 0.03,
	}
}

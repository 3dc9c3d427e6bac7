package policy

import (
	"testing"

	"sysscale/internal/ioengine"
	"sysscale/internal/perfcounters"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// testCtx builds a policy context with canned budget tables.
func testCtx(current vf.OperatingPoint, counters perfcounters.Sample) soc.PolicyContext {
	return soc.PolicyContext{
		Counters: counters,
		Current:  current,
		Ladder:   vf.TwoPointLadder(),
		CoreFreq: 2.4 * vf.GHz,
		Reserve:  []soc.Reservation{{IO: 0.9, Mem: 1.7}, {IO: 0.3, Mem: 1.0}},
	}
}

func quietCounters() perfcounters.Sample {
	var s perfcounters.Sample
	s[perfcounters.MemReadBytes] = 1e9
	s[perfcounters.MemWriteBytes] = 0.5e9
	return s
}

func busyCounters() perfcounters.Sample {
	var s perfcounters.Sample
	s[perfcounters.GfxLLCMisses] = 300e6
	s[perfcounters.LLCOccupancyTracer] = 12
	s[perfcounters.LLCStalls] = 45
	s[perfcounters.IORPQ] = 6
	s[perfcounters.MemReadBytes] = 12e9
	s[perfcounters.MemWriteBytes] = 5e9
	return s
}

func TestBaselineAlwaysHigh(t *testing.T) {
	p := NewBaseline()
	for _, c := range []perfcounters.Sample{quietCounters(), busyCounters()} {
		d := p.Decide(testCtx(vf.LowPoint(), c))
		if d.Target != vf.HighPoint() {
			t.Fatal("baseline left the high point")
		}
		if d.IOBudget != 0.9 || d.MemBudget != 1.7 {
			t.Fatal("baseline did not reserve worst case")
		}
	}
	if p.Name() != "baseline" {
		t.Fatal("name wrong")
	}
	p.Reset() // must not panic
}

func TestSysScaleGoesLowWhenQuiet(t *testing.T) {
	p := NewSysScaleDefault()
	d := p.Decide(testCtx(vf.HighPoint(), quietCounters()))
	if d.Target != vf.LowPoint() {
		t.Fatalf("quiet system not sent low: %v", d.Target.Name)
	}
	if !d.OptimizedMRC {
		t.Fatal("SysScale must reload optimized MRC images")
	}
	// Redistribution: low-point reservations.
	if d.IOBudget != 0.3 || d.MemBudget != 1.0 {
		t.Fatal("budgets not re-reserved at the low point")
	}
}

func TestSysScaleStaysHighWhenBusy(t *testing.T) {
	p := NewSysScaleDefault()
	d := p.Decide(testCtx(vf.HighPoint(), busyCounters()))
	if d.Target != vf.HighPoint() {
		t.Fatal("busy system sent low")
	}
}

func TestSysScaleReturnsHighFromLow(t *testing.T) {
	p := NewSysScaleDefault()
	d := p.Decide(testCtx(vf.LowPoint(), busyCounters()))
	if d.Target != vf.HighPoint() {
		t.Fatal("busy system kept low")
	}
}

func TestSysScaleStaticDemandForcesHigh(t *testing.T) {
	p := NewSysScaleDefault()
	ctx := testCtx(vf.HighPoint(), quietCounters())
	// A 4K panel's static demand alone exceeds STATIC_BW_THR.
	csr := ctx.CSR
	csr.Panels[0] = ioengine.Panel{Res: ioengine.Display4K, RefreshHz: 60}
	ctx.CSR = csr
	d := p.Decide(ctx)
	if d.Target != vf.HighPoint() {
		t.Fatal("4K display sent low despite static demand (condition 1)")
	}
}

func TestSysScaleWarmupHolds(t *testing.T) {
	p := NewSysScaleDefault()
	ctx := testCtx(vf.HighPoint(), perfcounters.Sample{})
	ctx.Warmup = true
	d := p.Decide(ctx)
	if d.Target != vf.HighPoint() {
		t.Fatal("warmup decision moved the operating point")
	}
}

func TestSysScaleFreqNormalization(t *testing.T) {
	p := NewSysScaleDefault()
	// Borderline counters that pass at the calibration clock.
	var s perfcounters.Sample
	s[perfcounters.LLCOccupancyTracer] = 5.0 // just under the 5.5 default
	ctx := testCtx(vf.HighPoint(), s)
	if d := p.Decide(ctx); d.Target != vf.LowPoint() {
		t.Fatal("borderline workload not sent low at calibration clock")
	}
	// At 3.6GHz the same counter value indicates much more pressure per
	// unit of work: thresholds normalize down and the system stays high.
	ctx.CoreFreq = 3.6 * vf.GHz
	if d := p.Decide(ctx); d.Target != vf.HighPoint() {
		t.Fatal("frequency normalization missing")
	}
}

func TestStaticPoint(t *testing.T) {
	p := NewStaticPoint(1, false)
	d := p.Decide(testCtx(vf.HighPoint(), busyCounters()))
	if d.Target != vf.LowPoint() {
		t.Fatal("static point ignored index")
	}
	// Without redistribution, budgets stay at the high reservations.
	if d.IOBudget != 0.9 || d.MemBudget != 1.7 {
		t.Fatal("non-redistributing static policy resized budgets")
	}
	pr := NewStaticPoint(1, true)
	dr := pr.Decide(testCtx(vf.HighPoint(), busyCounters()))
	if dr.IOBudget != 0.3 || dr.MemBudget != 1.0 {
		t.Fatal("redistributing static policy kept high budgets")
	}
	// Out-of-range index falls back to the top point.
	if d := NewStaticPoint(99, false).Decide(testCtx(vf.HighPoint(), quietCounters())); d.Target != vf.HighPoint() {
		t.Fatal("bad index not clamped")
	}
}

func TestMemScaleScalesMemoryOnly(t *testing.T) {
	p := NewMemScale()
	d := p.Decide(testCtx(vf.HighPoint(), quietCounters()))
	// MemScale's point keeps the interconnect clock and both shared
	// voltages at their high values (§2.4, §8).
	if d.Target.DDR != vf.LowPoint().DDR {
		t.Fatal("memory not scaled")
	}
	if d.Target.Interco != vf.HighPoint().Interco {
		t.Fatal("MemScale scaled the IO interconnect")
	}
	if d.Target.VSA != vf.HighPoint().VSA || d.Target.VIO != vf.HighPoint().VIO {
		t.Fatal("MemScale scaled a shared rail")
	}
	if d.OptimizedMRC {
		t.Fatal("MemScale must not retrain MRC (Observation 4)")
	}
}

func TestMemScaleStaysHighUnderLoad(t *testing.T) {
	p := NewMemScale()
	d := p.Decide(testCtx(vf.HighPoint(), busyCounters()))
	if d.Target.DDR != vf.HighPoint().DDR {
		t.Fatal("busy system scaled down")
	}
}

func TestMemScaleEscapesLowPointTrap(t *testing.T) {
	// At the low point, achieved bandwidth is capped by the (detuned)
	// low ceiling; the governor must still detect pressure and return
	// high rather than self-trap.
	p := NewMemScale()
	memLow := memOnlyPoint(vf.LowPoint(), vf.HighPoint())
	var s perfcounters.Sample
	s[perfcounters.MemReadBytes] = 7e9
	s[perfcounters.MemWriteBytes] = 3e9 // 10GB/s >> half the low ceiling
	d := p.Decide(testCtx(memLow, s))
	if d.Target.DDR != vf.HighPoint().DDR {
		t.Fatal("governor trapped at the low point")
	}
}

func TestMemScaleRedistCredit(t *testing.T) {
	p := NewMemScaleRedist()
	ctxHigh := testCtx(vf.HighPoint(), quietCounters())
	ctxHigh.IOMemPower = 1.0
	d := p.Decide(ctxHigh) // observes high power, decides low
	if d.ComputeBonus != 0 {
		t.Fatal("credit granted before both points observed")
	}
	memLow := memOnlyPoint(vf.LowPoint(), vf.HighPoint())
	ctxLow := testCtx(memLow, quietCounters())
	ctxLow.IOMemPower = 0.8
	d = p.Decide(ctxLow)
	if d.ComputeBonus <= 0 {
		t.Fatal("measured savings not credited")
	}
	p.Reset()
	d = p.Decide(ctxLow)
	if d.ComputeBonus != 0 {
		t.Fatal("reset did not clear the credit")
	}
}

func TestCoScaleDemotesWhenMemoryBound(t *testing.T) {
	p := NewCoScaleRedist()
	s := busyCounters()
	s[perfcounters.LLCStalls] = 70 // above MemBoundThr
	ctx := testCtx(vf.HighPoint(), s)
	d := p.Decide(ctx)
	if d.CoreFreqReq == 0 || d.CoreFreqReq >= ctx.CoreFreq {
		t.Fatal("memory-bound interval not demoted")
	}
	first := d.CoreFreqReq
	// Sticky: a second memory-bound interval must not compound the cut.
	ctx.CoreFreq = first
	d2 := p.Decide(ctx)
	if d2.CoreFreqReq != 0 && d2.CoreFreqReq < first {
		t.Fatalf("demotion compounded: %v -> %v", first, d2.CoreFreqReq)
	}
	// Clearing the pressure clears the demotion.
	d3 := p.Decide(testCtx(vf.HighPoint(), quietCounters()))
	if d3.CoreFreqReq != 0 {
		t.Fatal("demotion not cleared")
	}
}

func TestCoScaleFloor(t *testing.T) {
	p := NewCoScale()
	s := busyCounters()
	s[perfcounters.LLCStalls] = 70
	ctx := testCtx(vf.HighPoint(), s)
	ctx.CoreFreq = 1.2 * vf.GHz // already at Pn
	d := p.Decide(ctx)
	if d.CoreFreqReq != 0 {
		t.Fatal("CoScale demoted below the Pn floor (§7.2-7.3)")
	}
}

func TestWrappers(t *testing.T) {
	base := NewSysScaleDefault()
	noMRC := WithoutOptimizedMRC(base)
	d := noMRC.Decide(testCtx(vf.HighPoint(), quietCounters()))
	if d.OptimizedMRC {
		t.Fatal("wrapper did not disable MRC reload")
	}
	noRed := WithoutRedistribution(NewSysScaleDefault())
	d = noRed.Decide(testCtx(vf.HighPoint(), quietCounters()))
	if d.IOBudget != 0.9 || d.MemBudget != 1.7 {
		t.Fatal("wrapper did not pin baseline budgets")
	}
	if d.Target != vf.LowPoint() {
		t.Fatal("wrapper changed the scaling decision")
	}
	for _, p := range []soc.Policy{noMRC, noRed} {
		if p.Name() == "" {
			t.Fatal("wrapper name empty")
		}
		p.Reset()
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]soc.Policy{
		"sysscale":        NewSysScaleDefault(),
		"memscale":        NewMemScale(),
		"memscale-redist": NewMemScaleRedist(),
		"coscale":         NewCoScale(),
		"coscale-redist":  NewCoScaleRedist(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("name = %q, want %q", p.Name(), want)
		}
	}
}

func TestDefaultThresholdsValid(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
}

package soc

import (
	"context"
	"errors"
	"math"
	"testing"

	"sysscale/internal/dram"
	"sysscale/internal/ioengine"
	"sysscale/internal/memctrl"
	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// testPolicy pins the ladder point like policy.StaticPoint but lives
// here to keep the soc package free of a policy dependency cycle.
type testPolicy struct {
	index        int
	redistribute bool
	optimizedMRC bool
}

func (p *testPolicy) Name() string { return "test-static" }
func (p *testPolicy) Reset()       {}
func (p *testPolicy) Clone() Policy {
	c := *p
	return &c
}
func (p *testPolicy) Decide(ctx PolicyContext) PolicyDecision {
	idx := p.index
	if idx < 0 || idx >= len(ctx.Ladder) {
		idx = 0
	}
	target := ctx.Ladder[idx]
	budget := ctx.Ladder[0]
	if p.redistribute {
		budget = target
	}
	return PolicyDecision{
		Target:       target,
		OptimizedMRC: p.optimizedMRC,
		IOBudget:     ctx.WorstIO(budget),
		MemBudget:    ctx.WorstMem(budget),
	}
}

// mustRun is Run that fails the test on error, for configs the test
// builds known-good.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func highPin() *testPolicy { return &testPolicy{index: 0, optimizedMRC: true} }
func lowPin(redist bool) *testPolicy {
	return &testPolicy{index: 1, redistribute: redist, optimizedMRC: true}
}

func testConfig(t *testing.T, wlName string) Config {
	t.Helper()
	w, err := workload.SPEC(wlName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPin()
	cfg.Duration = 1 * sim.Second
	return cfg
}

func TestRunBasicSanity(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 || res.Score > 1.5 {
		t.Fatalf("score = %v", res.Score)
	}
	if res.AvgPower <= 0 || res.AvgPower > cfg.TDP {
		t.Fatalf("avg power = %v outside (0, TDP]", res.AvgPower)
	}
	var railSum power.Watt
	for _, w := range res.RailAvg {
		if w < 0 {
			t.Fatal("negative rail power")
		}
		railSum += w
	}
	if math.Abs(float64(railSum-res.AvgPower)) > 1e-6 {
		t.Fatalf("rails (%v) do not sum to package (%v)", railSum, res.AvgPower)
	}
	wantEnergy := float64(res.AvgPower) * cfg.Duration.Seconds()
	if math.Abs(float64(res.Energy)-wantEnergy) > 1e-6 {
		t.Fatal("energy != avg power x time")
	}
	if res.EDP <= 0 {
		t.Fatal("EDP missing")
	}
	if res.Workload != "416.gamess" || res.Policy != "test-static" {
		t.Fatal("result labels wrong")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(t, "403.gcc")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.AvgPower != b.AvgPower || a.Energy != b.Energy {
		t.Fatal("identical configs produced different results")
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, "416.gamess")
	bad := good
	bad.TDP = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero TDP accepted")
	}
	bad = good
	bad.Policy = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad = good
	bad.Ladder = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("empty ladder accepted")
	}
	bad = good
	bad.Duration = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad = good
	bad.Duration = bad.SampleInterval / 2
	if err := bad.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("sub-tick duration: Validate = %v, want ErrInvalidConfig", err)
	}
	bad = good
	bad.SampleInterval = bad.EvalInterval * 2
	if _, err := Run(bad); err == nil {
		t.Fatal("sample > eval interval accepted")
	}
	bad = good
	bad.Ladder = []vf.OperatingPoint{vf.MakeOperatingPoint("x", 1.23*vf.GHz, 0.8*vf.GHz)}
	if _, err := Run(bad); err == nil {
		t.Fatal("unsupported DRAM bin accepted")
	}
}

func TestLowPointSavesPowerOnLightWorkload(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	cfg.FixedCoreFreq = 1.2 * vf.GHz
	base := mustRun(t, cfg)
	cfg.Policy = lowPin(false)
	low := mustRun(t, cfg)
	if low.AvgPower >= base.AvgPower {
		t.Fatalf("low point did not save power: %v vs %v", low.AvgPower, base.AvgPower)
	}
	// A compute-bound workload barely slows down.
	if drop := 1 - low.Score/base.Score; drop > 0.02 {
		t.Fatalf("gamess lost %.1f%% at the low point", drop*100)
	}
}

func TestLowPointHurtsMemoryBoundWorkload(t *testing.T) {
	cfg := testConfig(t, "470.lbm")
	cfg.FixedCoreFreq = 1.2 * vf.GHz
	base := mustRun(t, cfg)
	cfg.Policy = lowPin(false)
	low := mustRun(t, cfg)
	if drop := 1 - low.Score/base.Score; drop < 0.03 {
		t.Fatalf("lbm lost only %.1f%% at the low point; expected a real penalty", drop*100)
	}
}

func TestRedistributionRaisesCoreFrequency(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	base := mustRun(t, cfg)
	cfg.Policy = lowPin(true)
	red := mustRun(t, cfg)
	if red.AvgCoreFreq <= base.AvgCoreFreq {
		t.Fatalf("redistribution did not raise the cores: %v vs %v", red.AvgCoreFreq, base.AvgCoreFreq)
	}
	if red.Score <= base.Score {
		t.Fatal("redistribution did not improve performance")
	}
}

func TestTransitionsAreCountedAndBounded(t *testing.T) {
	// Alternate pin: force transitions each interval.
	w, _ := workload.SPEC("416.gamess")
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Duration = 300 * sim.Millisecond
	cfg.Policy = &alternatingPolicy{}
	res := mustRun(t, cfg)
	if res.Transitions < 5 {
		t.Fatalf("transitions = %d, want several", res.Transitions)
	}
	if res.MaxTransition >= 10*sim.Microsecond {
		t.Fatalf("a transition exceeded the 10us bound: %v", res.MaxTransition)
	}
}

type alternatingPolicy struct{ flip bool }

func (p *alternatingPolicy) Name() string  { return "alternating" }
func (p *alternatingPolicy) Reset()        { p.flip = false }
func (p *alternatingPolicy) Clone() Policy { return &alternatingPolicy{} }
func (p *alternatingPolicy) Decide(ctx PolicyContext) PolicyDecision {
	p.flip = !p.flip
	idx := 0
	if p.flip {
		idx = 1
	}
	target := ctx.Ladder[idx]
	return PolicyDecision{
		Target:       target,
		OptimizedMRC: true,
		IOBudget:     ctx.WorstIO(target),
		MemBudget:    ctx.WorstMem(target),
	}
}

func TestBatteryWorkloadMeetsDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.VideoPlayback()
	cfg.Policy = lowPin(true)
	cfg.Duration = 1 * sim.Second
	res := mustRun(t, cfg)
	if !res.PerfMet {
		t.Fatal("video playback missed its fixed demand at the low point")
	}
	// Fixed-demand workloads hold their score (work per second) as long
	// as the demand is met.
	base := cfg
	base.Policy = highPin()
	b := mustRun(t, base)
	if math.Abs(res.Score-b.Score) > 0.02*b.Score {
		t.Fatalf("fixed demand score drifted: %v vs %v", res.Score, b.Score)
	}
}

func TestCountersScaleWithResidency(t *testing.T) {
	// A battery workload's counters are diluted by idle time.
	cfg := DefaultConfig()
	cfg.Policy = highPin()
	cfg.Duration = 500 * sim.Millisecond
	cfg.Workload = workload.LightGaming()
	gaming := mustRun(t, cfg)
	w, _ := workload.SPEC("434.zeusmp")
	cfg.Workload = w
	busy := mustRun(t, cfg)
	if gaming.CounterAvg.Get(perfcounters.LLCStalls) >= busy.CounterAvg.Get(perfcounters.LLCStalls) {
		t.Fatal("idle-heavy workload's stall counter not diluted")
	}
}

func TestWorstCaseBudgetsOrdered(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	high, low := vf.HighPoint(), vf.LowPoint()
	if p.WorstCaseIOBudget(low) >= p.WorstCaseIOBudget(high) {
		t.Fatal("low-point IO reservation not below high")
	}
	if p.WorstCaseMemBudget(low) >= p.WorstCaseMemBudget(high) {
		t.Fatal("low-point memory reservation not below high")
	}
	// The freed budget is the headline redistribution quantity: it must
	// be a substantial fraction of a 4.5W TDP.
	freed := (p.WorstCaseIOBudget(high) + p.WorstCaseMemBudget(high)) -
		(p.WorstCaseIOBudget(low) + p.WorstCaseMemBudget(low))
	if freed < 0.5 || freed > 2.0 {
		t.Fatalf("freed budget %vW implausible", freed)
	}
}

// TestWorstCaseTableMatchesFormula pins the reservation table to the
// formulas it caches: bit-for-bit on every point of the two-point,
// LPDDR3 and DDR4 ladders, after fresh assembly and after a pooled
// Reset onto a different ladder, so no row of the previous ladder
// survives. Rows match on a point's electrical fields, and a point off
// the ladder falls back to the formula.
func TestWorstCaseTableMatchesFormula(t *testing.T) {
	check := func(p *Platform, step string) {
		t.Helper()
		ladder := p.cfg.Ladder
		if len(p.worst) != len(ladder) {
			t.Fatalf("%s: table has %d rows for a %d-point ladder", step, len(p.worst), len(ladder))
		}
		for _, op := range ladder {
			wantIO, wantMem := p.WorstCaseIOBudget(op), p.WorstCaseMemBudget(op)
			renamed := op
			renamed.Name += "-renamed"
			for _, q := range []vf.OperatingPoint{op, renamed} {
				if p.worstRow(q) == nil {
					t.Fatalf("%s: %s has no table row", step, q.Name)
				}
				if got := p.worstIOFn(q); got != wantIO {
					t.Fatalf("%s: %s IO budget %v, formula %v", step, q.Name, got, wantIO)
				}
				if got := p.worstMemFn(q); got != wantMem {
					t.Fatalf("%s: %s memory budget %v, formula %v", step, q.Name, got, wantMem)
				}
			}
		}
		off := vf.MakeOperatingPoint("off-ladder", 1.2*vf.GHz, 0.6*vf.GHz)
		if p.worstRow(off) != nil {
			t.Fatalf("%s: off-ladder point matched a table row", step)
		}
		if p.worstIOFn(off) != p.WorstCaseIOBudget(off) || p.worstMemFn(off) != p.WorstCaseMemBudget(off) {
			t.Fatalf("%s: off-ladder point does not fall back to the formula", step)
		}
	}

	cfg := testConfig(t, "416.gamess")
	p, err := newPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(p, "two-point, fresh")

	cfg.Ladder = vf.LadderLPDDR3()
	if err := p.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	check(p, "LPDDR3, reset")

	cfg.Ladder = vf.TwoPointLadder()
	if err := p.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	check(p, "two-point, reset from LPDDR3")
	if p.worstRow(vf.LowestPoint()) != nil {
		t.Fatal("the previous ladder's lowest point survived the reset")
	}

	cfg.Ladder = vf.LadderLPDDR3()
	if p, err = newPlatform(cfg); err != nil {
		t.Fatal(err)
	}
	check(p, "LPDDR3, fresh")

	cfg.DRAMKind = dram.DDR4
	cfg.Ladder = []vf.OperatingPoint{vf.DDR4HighPoint(), vf.DDR4LowPoint()}
	if p, err = newPlatform(cfg); err != nil {
		t.Fatal(err)
	}
	check(p, "DDR4, fresh")
	cfg.Ladder = cfg.Ladder[1:]
	if err := p.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	check(p, "DDR4 low only, reset")
	if p.worstRow(vf.DDR4HighPoint()) != nil {
		t.Fatal("the previous ladder's high point survived the reset")
	}
}

// TestRefLatencyMatchesReferenceController checks each phase's
// reference latency against an independent reference memory system: a
// boot-point DRAM device and controller built fresh, evaluated at the
// phase's unloaded-point demand. It covers every phase of the shipped
// suites on LPDDR3 and DDR4, on a fresh platform and after a run and a
// Reset onto a ladder with a different boot point and a different CSR.
func TestRefLatencyMatchesReferenceController(t *testing.T) {
	var phases []workload.Phase
	for _, suite := range [][]workload.Workload{workload.SPECSuite(), workload.SPECSuiteMT(),
		workload.GraphicsSuite(), workload.BatterySuite(), workload.ProductivitySuite()} {
		for _, w := range suite {
			phases = append(phases, w.Phases...)
		}
	}
	check := func(p *Platform, step string) {
		t.Helper()
		boot := p.cfg.Ladder[0]
		dev, err := dram.NewDevice(p.cfg.DRAMKind, dram.DefaultGeometry(), boot.DDR)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := memctrl.New(memctrl.DefaultParams(), dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.SetOperatingPoint(boot.MC, boot.VSA); err != nil {
			t.Fatal(err)
		}
		static := p.ioeng.StaticBandwidth()
		for i := range phases {
			ph := &phases[i]
			want := mc.Evaluate(static + ph.MemBW).Latency
			if got := p.refLatOf(ph); got != want {
				t.Fatalf("%s: phase %d reference latency %g, reference controller %g", step, i, got, want)
			}
		}
	}
	camera := ioengine.SingleHDLaptop()
	camera.Camera = ioengine.Camera4K

	for _, pl := range []struct {
		kind          dram.Kind
		ladder, reset []vf.OperatingPoint
	}{
		{dram.LPDDR3, vf.TwoPointLadder(), []vf.OperatingPoint{vf.LowPoint(), vf.LowestPoint()}},
		{dram.DDR4, []vf.OperatingPoint{vf.DDR4HighPoint(), vf.DDR4LowPoint()}, []vf.OperatingPoint{vf.DDR4LowPoint()}},
	} {
		cfg := testConfig(t, "470.lbm")
		cfg.DRAMKind = pl.kind
		cfg.Ladder = pl.ladder
		cfg.Policy = &alternatingPolicy{}
		cfg.Duration = 300 * sim.Millisecond
		p, err := newPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(p, pl.kind.String()+", fresh")
		if _, err := p.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		cfg.Ladder = pl.reset
		cfg.CSR = camera
		if err := p.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		check(p, pl.kind.String()+", reset after a run")
	}
}

func TestReservationClamp(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	cfg.TDP = 3.5
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	io, mem := p.clampReservations(2.0, 2.0)
	if float64(io+mem) > 0.65*3.5+1e-9 {
		t.Fatalf("clamp failed: %v", io+mem)
	}
	// Proportional scaling.
	if math.Abs(float64(io/mem)-1.0) > 1e-9 {
		t.Fatal("clamp not proportional")
	}
	// No clamping below the cap.
	io2, mem2 := p.clampReservations(0.5, 0.5)
	if io2 != 0.5 || mem2 != 0.5 {
		t.Fatal("unnecessary clamp")
	}
}

func TestEventLogRecordsFlow(t *testing.T) {
	cfg := testConfig(t, "416.gamess")
	cfg.Policy = lowPin(false)
	cfg.recordEvents = true
	cfg.Duration = 200 * sim.Millisecond
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.EventLog().Find("self-refresh"); !ok {
		t.Fatal("flow events not recorded")
	}
}

func TestDDR4Platform(t *testing.T) {
	w, _ := workload.SPEC("416.gamess")
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.DRAMKind = dram.DDR4
	cfg.Ladder = []vf.OperatingPoint{vf.DDR4HighPoint(), vf.DDR4LowPoint()}
	cfg.Policy = highPin()
	cfg.Duration = 200 * sim.Millisecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestResultHelpers(t *testing.T) {
	a := Result{Score: 1.1, AvgPower: 2.0, EDP: 1.653}
	b := Result{Score: 1.0, AvgPower: 2.2, EDP: 2.2}
	if math.Abs(PerfImprovement(a, b)-0.1) > 1e-9 {
		t.Fatal("PerfImprovement wrong")
	}
	if math.Abs(PowerReduction(a, b)-(1-2.0/2.2)) > 1e-9 {
		t.Fatal("PowerReduction wrong")
	}
	if EDPImprovement(a, b) <= 0 {
		t.Fatal("EDPImprovement wrong")
	}
	if PerfImprovement(a, Result{}) != 0 || PowerReduction(a, Result{}) != 0 {
		t.Fatal("zero-base helpers must return 0")
	}
	if EnergyReduction(a, b) == 0 {
		t.Fatal("EnergyReduction wrong")
	}
	if a.Summary() == "" || a.String() == "" {
		t.Fatal("renderers empty")
	}
}

func TestProjectionSanity(t *testing.T) {
	cfg := testConfig(t, "445.gobmk")
	base := mustRun(t, cfg)
	high, low := vf.HighPoint(), vf.LowPoint()
	mem := MemScaleProjectedSavings(base, high, low)
	if mem <= 0 || mem > 0.5 {
		t.Fatalf("MemScale projected savings %vW implausible", mem)
	}
	co := CoScaleProjectedSavings(base, high, low)
	if co < mem {
		t.Fatal("CoScale projection below MemScale")
	}
	scal := measureScalability(t, cfg, base)
	gain, err := ProjectedPerfGain(base, scal, mem, false)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 || gain > 0.10 {
		t.Fatalf("projected gain %v implausible", gain)
	}
	if g, _ := ProjectedPerfGain(base, scal, 0, false); g != 0 {
		t.Fatal("zero savings projected nonzero gain")
	}
}

// measureScalability runs cfg's CPU scalability probe and returns the
// scalability it measures against base.
func measureScalability(t *testing.T, cfg Config, base Result) float64 {
	t.Helper()
	probe, ok := ScalabilityProbeConfig(cfg, base, false)
	if !ok {
		t.Fatalf("%s: no scalability probe", cfg.Workload.Name)
	}
	return Scalability(base, mustRun(t, probe))
}

func TestMeasureScalability(t *testing.T) {
	// gamess is nearly fully scalable; lbm nearly flat.
	cfgG := testConfig(t, "416.gamess")
	scalG := measureScalability(t, cfgG, mustRun(t, cfgG))
	cfgL := testConfig(t, "470.lbm")
	scalL := measureScalability(t, cfgL, mustRun(t, cfgL))
	if scalG < 0.7 {
		t.Fatalf("gamess scalability %v, want high", scalG)
	}
	if scalL > 0.4 {
		t.Fatalf("lbm scalability %v, want low", scalL)
	}
	if scalG <= scalL {
		t.Fatal("scalability ordering wrong")
	}
}

func TestGfxWorkloadCorePinnedNearPn(t *testing.T) {
	// §7.2: during graphics workloads the cores run near Pn while the
	// graphics engines take most of the compute budget.
	cfg := DefaultConfig()
	cfg.Workload = workload.ThreeDMark06()
	cfg.Policy = highPin()
	cfg.Duration = 500 * sim.Millisecond
	res := mustRun(t, cfg)
	if res.AvgCoreFreq > 1.4*vf.GHz {
		t.Fatalf("cores at %v during graphics; expected near Pn (1.2GHz)", res.AvgCoreFreq)
	}
	if res.AvgGfxFreq < 0.6*vf.GHz {
		t.Fatalf("graphics engines at %v; expected budget-boosted", res.AvgGfxFreq)
	}
}

func TestCameraRaisesStaticDemand(t *testing.T) {
	// Condition 1 (§4.3): a camera stream raises the configuration-
	// derived static demand and with it the IO domain's traffic.
	cfg := DefaultConfig()
	cfg.Workload = workload.VideoConferencing()
	cfg.Policy = highPin()
	cfg.Duration = 300 * sim.Millisecond
	noCam := mustRun(t, cfg)
	csr := cfg.CSR
	csr.Camera = ioengine.Camera4K
	cfg.CSR = csr
	cam := mustRun(t, cfg)
	if cam.AvgPower <= noCam.AvgPower {
		t.Fatal("4K camera stream did not raise IO/memory power")
	}
}

func TestTDPScalesBaselinePerformance(t *testing.T) {
	// More TDP, more compute budget, higher baseline score.
	w, _ := workload.SPEC("416.gamess")
	prev := 0.0
	for _, tdp := range []power.Watt{3.5, 4.5, 7} {
		cfg := DefaultConfig()
		cfg.Workload = w
		cfg.Policy = highPin()
		cfg.TDP = tdp
		cfg.Duration = 300 * sim.Millisecond
		res := mustRun(t, cfg)
		if res.Score <= prev {
			t.Fatalf("score did not grow with TDP at %vW", tdp)
		}
		prev = res.Score
	}
}

func TestEvalIntervalRespected(t *testing.T) {
	// A 30ms interval on a 300ms run gives the policy ~10 decisions;
	// the alternating policy therefore transitions ~10 times, not 300.
	w, _ := workload.SPEC("416.gamess")
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Duration = 300 * sim.Millisecond
	cfg.Policy = &alternatingPolicy{}
	res := mustRun(t, cfg)
	if res.Transitions < 8 || res.Transitions > 12 {
		t.Fatalf("transitions = %d, want ~10 at a 30ms interval", res.Transitions)
	}
}

package pmu

import (
	"testing"

	"sysscale/internal/compute"
	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/mrc"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

type flowRig struct {
	rails  *vf.Rails
	fabric *interconnect.Fabric
	mc     *memctrl.Controller
	dev    *dram.Device
	store  *mrc.Store
	log    *sim.EventLog
}

func newRig(t *testing.T) *flowRig {
	t.Helper()
	high := vf.HighPoint()
	dev, err := dram.NewDevice(dram.LPDDR3, dram.DefaultGeometry(), high.DDR)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.New(memctrl.DefaultParams(), dev)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := interconnect.New(interconnect.DefaultParams(), high.Interco, high.VSA)
	if err != nil {
		t.Fatal(err)
	}
	rails := vf.DefaultRails()
	if _, err := rails.Get(vf.RailVSA).Set(high.VSA); err != nil {
		t.Fatal(err)
	}
	if _, err := rails.Get(vf.RailVIO).Set(high.VIO); err != nil {
		t.Fatal(err)
	}
	return &flowRig{
		rails: rails, fabric: fab, mc: mc, dev: dev,
		store: mrc.MustTrain(dram.LPDDR3),
		log:   sim.NewEventLog(0),
	}
}

func (r *flowRig) flow(t *testing.T, opts FlowOptions) *Flow {
	t.Helper()
	f, err := NewFlow(r.rails, r.fabric, r.mc, r.dev, r.store, r.log, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlowLatencyBudget(t *testing.T) {
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	down, err := f.Transition(0, vf.LowPoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if down >= MaxTransitionLatency {
		t.Fatalf("down transition %v exceeds the 10us budget (§5)", down)
	}
	up, err := f.Transition(0, vf.HighPoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if up >= MaxTransitionLatency {
		t.Fatalf("up transition %v exceeds the 10us budget (§5)", up)
	}
	if f.Transitions() != 2 || f.TotalTime() != down+up {
		t.Fatal("flow statistics wrong")
	}
	if f.MaxTime() < down && f.MaxTime() < up {
		t.Fatal("max time wrong")
	}
}

func TestFlowStepOrdering(t *testing.T) {
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	// Fig. 5 ordering for a frequency decrease: drain before
	// self-refresh, MRC load after self-refresh entry, voltage
	// reduction after relock, release last.
	order := []string{"step3", "step4", "step5", "step6", "step7", "step8", "step9"}
	prev := -1
	for _, step := range order {
		idx := r.log.IndexOf(step)
		if idx < 0 {
			t.Fatalf("step %s missing from flow log", step)
		}
		if idx <= prev {
			t.Fatalf("step %s out of order", step)
		}
		prev = idx
	}
	// A decrease must not raise voltages first.
	if _, ok := r.log.Find("step2"); ok {
		t.Fatal("voltage raised on a frequency decrease")
	}
}

func TestFlowVoltageOrderOnIncrease(t *testing.T) {
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	r.log.Reset()
	if _, err := f.Transition(0, vf.HighPoint(), 0); err != nil {
		t.Fatal(err)
	}
	// Frequency increase: voltages rise BEFORE the clock change (step2
	// precedes step6) and no step7 occurs.
	i2, i6 := r.log.IndexOf("step2"), r.log.IndexOf("step6")
	if i2 < 0 || i6 < 0 || i2 >= i6 {
		t.Fatalf("step2 (%d) must precede step6 (%d) on an increase", i2, i6)
	}
	if _, ok := r.log.Find("step7"); ok {
		t.Fatal("voltage lowered on a frequency increase")
	}
}

func TestFlowLeavesSystemReleased(t *testing.T) {
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	if r.fabric.Blocked() || r.mc.Blocked() {
		t.Fatal("flow left the interconnect blocked")
	}
	if r.dev.State() != dram.Active {
		t.Fatal("flow left DRAM in self-refresh")
	}
	if r.dev.Frequency() != vf.LowPoint().DDR {
		t.Fatal("DRAM not retargeted")
	}
	if r.rails.Voltage(vf.RailVSA) != vf.LowPoint().VSA {
		t.Fatal("V_SA not programmed")
	}
	// Optimized MRC: trained image for the new bin.
	if r.dev.Timing().InterfaceEff != 1.0 || r.dev.Timing().ForFreq != vf.LowPoint().DDR {
		t.Fatal("optimized image not loaded")
	}
}

func TestFlowDetunedMode(t *testing.T) {
	r := newRig(t)
	opts := DefaultFlowOptions(1.6 * vf.GHz)
	opts.OptimizedMRC = false
	f := r.flow(t, opts)
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	if r.dev.Timing().InterfaceEff >= 1.0 {
		t.Fatal("detuned mode loaded a trained image")
	}
}

func TestFlowReconfigure(t *testing.T) {
	// The platform keeps one persistent flow per run and retargets its
	// options before each transition; cumulative statistics must
	// survive reconfiguration, and the new options must take effect.
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	if r.dev.Timing().InterfaceEff < 1.0 {
		t.Fatal("optimized mode loaded a detuned image")
	}

	opts := DefaultFlowOptions(1.6 * vf.GHz)
	opts.OptimizedMRC = false
	f.Reconfigure(opts)
	if got := f.Options(); !got.Overlap || got.OptimizedMRC {
		t.Fatalf("options not applied: %+v", got)
	}
	// Re-land on the low point: its frequency differs from the boot
	// image's, so a detuned load is observable in the timing trims.
	if _, err := f.Transition(0, vf.LowPoint(), 0); err != nil {
		t.Fatal(err)
	}
	if r.dev.Timing().InterfaceEff >= 1.0 {
		t.Fatal("reconfigured detuned mode still loaded a trained image")
	}

	if got := f.Transitions(); got != 2 {
		t.Fatalf("statistics reset by Reconfigure: %d transitions, want 2", got)
	}
	if f.TotalTime() < f.MaxTime() || f.MaxTime() <= 0 {
		t.Fatalf("implausible cumulative stats: total %v, max %v", f.TotalTime(), f.MaxTime())
	}
}

func TestFlowSequentialSlower(t *testing.T) {
	// Ablation: the overlapped flow must be faster than the serial one.
	rOv := newRig(t)
	fOv := rOv.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	dOv, err := fOv.Transition(0, vf.LowPoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rSeq := newRig(t)
	opts := DefaultFlowOptions(1.6 * vf.GHz)
	opts.Overlap = false
	fSeq := rSeq.flow(t, opts)
	dSeq, err := fSeq.Transition(0, vf.LowPoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dSeq <= dOv {
		t.Fatalf("serial flow (%v) not slower than overlapped (%v)", dSeq, dOv)
	}
}

func TestFlowRejectsBadTarget(t *testing.T) {
	r := newRig(t)
	f := r.flow(t, DefaultFlowOptions(1.6*vf.GHz))
	if _, err := f.Transition(0, vf.OperatingPoint{Name: "bad"}, 0); err == nil {
		t.Fatal("invalid target accepted")
	}
	if _, err := NewFlow(nil, r.fabric, r.mc, r.dev, r.store, r.log, DefaultFlowOptions(1.6*vf.GHz)); err == nil {
		t.Fatal("nil component accepted")
	}
}

// --- PBM ---

func newPBM(t *testing.T, tdp power.Watt) (*PBM, *compute.Cores, *compute.Gfx) {
	t.Helper()
	budget, err := power.NewBudget(tdp, 0.9, 1.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := compute.NewCores(compute.DefaultCoreParams())
	if err != nil {
		t.Fatal(err)
	}
	gfx, err := compute.NewGfx(compute.DefaultGfxParams())
	if err != nil {
		t.Fatal(err)
	}
	pbm, err := NewPBM(budget, cores, gfx)
	if err != nil {
		t.Fatal(err)
	}
	return pbm, cores, gfx
}

func TestPBMGrantsBudgetMax(t *testing.T) {
	pbm, cores, _ := newPBM(t, 4.5)
	coreF, _, err := pbm.Apply(Request{ActiveCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if coreF <= 1.2*vf.GHz {
		t.Fatalf("budget grant too low: %v", coreF)
	}
	if cores.Frequency() != coreF {
		t.Fatal("grant not programmed")
	}
}

func TestPBMRedistributionRaisesGrant(t *testing.T) {
	pbm, _, _ := newPBM(t, 4.5)
	f0, _, err := pbm.Apply(Request{ActiveCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SysScale's redistribution: shrink IO+memory reservations.
	if err := pbm.SetIOMemoryBudget(0.3, 0.9); err != nil {
		t.Fatal(err)
	}
	f1, _, err := pbm.Apply(Request{ActiveCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f1 <= f0 {
		t.Fatalf("redistribution did not raise the grant: %v -> %v", f0, f1)
	}
}

func TestPBMDemotesOverBudgetRequest(t *testing.T) {
	pbm, _, _ := newPBM(t, 3.0) // tight budget
	coreF, _, err := pbm.Apply(Request{ActiveCores: 2, CoreFreq: 3.6 * vf.GHz})
	if err != nil {
		t.Fatal(err)
	}
	if coreF >= 3.6*vf.GHz {
		t.Fatal("over-budget request not demoted (§4.4)")
	}
}

func TestPBMHonorsLowerRequest(t *testing.T) {
	pbm, _, _ := newPBM(t, 4.5)
	coreF, _, err := pbm.Apply(Request{ActiveCores: 1, CoreFreq: 1.3 * vf.GHz})
	if err != nil {
		t.Fatal(err)
	}
	if coreF != 1.3*vf.GHz {
		t.Fatalf("explicit low request not honored: %v", coreF)
	}
}

func TestPBMJointExplicitGrant(t *testing.T) {
	// Battery pattern: both requests explicit and low — granted
	// directly when they jointly fit.
	pbm, _, gfx := newPBM(t, 4.5)
	coreF, gfxF, err := pbm.Apply(Request{
		ActiveCores: 1, CoreFreq: 1.2 * vf.GHz, GfxFreq: 0.45 * vf.GHz, GfxShare: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coreF != 1.2*vf.GHz || gfxF != 0.45*vf.GHz {
		t.Fatalf("joint grant wrong: %v / %v", coreF, gfxF)
	}
	if gfx.Frequency() != 0.45*vf.GHz {
		t.Fatal("gfx not programmed")
	}
}

func TestPBMBonusBudget(t *testing.T) {
	pbm, _, _ := newPBM(t, 4.5)
	f0, _, err := pbm.Apply(Request{ActiveCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	f1, _, err := pbm.Apply(Request{ActiveCores: 1, BonusBudget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if f1 <= f0 {
		t.Fatal("bonus budget ignored")
	}
}

func TestPBMGfxShare(t *testing.T) {
	pbm, _, gfx := newPBM(t, 4.5)
	_, gfxF, err := pbm.Apply(Request{ActiveCores: 1, GfxShare: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if gfxF <= gfx.Params().BaseFreq {
		t.Fatalf("graphics share not converted to frequency: %v", gfxF)
	}
	// No share: graphics parked at base.
	_, gfxF0, err := pbm.Apply(Request{ActiveCores: 1, GfxShare: 0})
	if err != nil {
		t.Fatal(err)
	}
	if gfxF0 != gfx.Params().BaseFreq {
		t.Fatalf("idle graphics not at base: %v", gfxF0)
	}
}

func TestPBMConstruction(t *testing.T) {
	if _, err := NewPBM(nil, nil, nil); err == nil {
		t.Fatal("nil components accepted")
	}
}

func TestFirmwareCosts(t *testing.T) {
	// §5: ~0.6KB firmware.
	if FirmwareBytes > 700 || FirmwareBytes < 500 {
		t.Fatalf("firmware size %dB outside ~0.6KB", FirmwareBytes)
	}
}

func TestFlowDrainScalesWithFabricUtil(t *testing.T) {
	// Step 3 drains what the fabric holds: from the same state, a
	// transition out of a saturated fabric stalls longer than one out of
	// an idle fabric (floored at 10% of the maximum drain) by exactly
	// the difference in drain time.
	stall := func(util float64) sim.Time {
		r := newRig(t)
		d, err := r.flow(t, DefaultFlowOptions(1.6*vf.GHz)).Transition(0, vf.LowPoint(), util)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	idle, full := stall(0), stall(1)
	want := interconnect.DefaultParams().DrainLatencyMax * 9 / 10
	if got := full - idle; got != want {
		t.Fatalf("stall(1) - stall(0) = %v, want 0.9 x DrainLatencyMax = %v", got, want)
	}
}

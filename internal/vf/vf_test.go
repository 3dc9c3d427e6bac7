package vf

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/sim"
)

func TestCurveValidation(t *testing.T) {
	if _, err := NewCurve("empty"); err == nil {
		t.Fatal("empty curve accepted")
	}
	if _, err := NewCurve("dup", CurvePoint{1 * GHz, 0.7}, CurvePoint{1 * GHz, 0.8}); err == nil {
		t.Fatal("duplicate frequency accepted")
	}
	if _, err := NewCurve("nonmono", CurvePoint{1 * GHz, 0.9}, CurvePoint{2 * GHz, 0.7}); err == nil {
		t.Fatal("non-monotonic voltage accepted")
	}
	if _, err := NewCurve("neg", CurvePoint{-1 * GHz, 0.7}); err == nil {
		t.Fatal("negative frequency accepted")
	}
}

func TestCurveVminFloor(t *testing.T) {
	c := MustCurve("t", CurvePoint{1 * GHz, 0.6}, CurvePoint{2 * GHz, 0.9})
	if v := c.VoltageAt(0.2 * GHz); v != 0.6 {
		t.Fatalf("below floor: %v, want Vmin 0.6", v)
	}
	if c.Vmin() != 0.6 || c.VminFreq() != 1*GHz || c.Fmax() != 2*GHz {
		t.Fatal("curve bounds wrong")
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := MustCurve("t", CurvePoint{1 * GHz, 0.6}, CurvePoint{2 * GHz, 0.9})
	if v := c.VoltageAt(1.5 * GHz); math.Abs(float64(v)-0.75) > 1e-9 {
		t.Fatalf("midpoint = %v, want 0.75", v)
	}
	// Extrapolation above Fmax continues the last slope.
	if v := c.VoltageAt(2.5 * GHz); math.Abs(float64(v)-1.05) > 1e-9 {
		t.Fatalf("extrapolated = %v, want 1.05", v)
	}
}

func TestCurveFreqAtInverse(t *testing.T) {
	c := CoreCurve()
	err := quick.Check(func(raw uint16) bool {
		f := c.VminFreq() + Hz(raw)*(c.Fmax()-c.VminFreq())/Hz(math.MaxUint16)
		v := c.VoltageAt(f)
		back := c.FreqAt(v)
		// FreqAt returns the highest frequency at v; in the floor region
		// many frequencies share Vmin, so back >= f there.
		return back >= f-1 || math.Abs(float64(back-f)) < 1e6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FreqAt(c.Vmin() - 0.01); got != 0 {
		t.Fatalf("below Vmin must be unreachable, got %v", got)
	}
}

func TestCurveMonotonicVoltage(t *testing.T) {
	for _, c := range []*Curve{SACurve(), IOCurve(), CoreCurve(), GfxCurve()} {
		prev := Volt(0)
		for f := 0.1 * GHz; f <= c.Fmax(); f += 0.05 * GHz {
			v := c.VoltageAt(f)
			if v < prev {
				t.Fatalf("%s: voltage decreased at %v", c.Name(), f)
			}
			prev = v
		}
	}
}

func TestRegulatorTransitionTime(t *testing.T) {
	r, err := NewRegulator(RailVSA, 0.95, 0.050, 0.6, 1.1, true)
	if err != nil {
		t.Fatal(err)
	}
	// 100mV at 50mV/us = 2us (§5); allow 1ns of float rounding.
	d := r.TransitionTime(0.85)
	if d < 2*sim.Microsecond-2 || d > 2*sim.Microsecond+2 {
		t.Fatalf("transition time = %v, want ~2us", d)
	}
	if _, err := r.Set(0.85); err != nil {
		t.Fatal(err)
	}
	if r.Voltage() != 0.85 {
		t.Fatalf("voltage = %v", r.Voltage())
	}
}

func TestRegulatorBounds(t *testing.T) {
	r, err := NewRegulator(RailVIO, 1.0, 0.05, 0.6, 1.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Set(1.3); err == nil {
		t.Fatal("out-of-range voltage accepted")
	}
	if _, err := NewRegulator(RailVIO, 2.0, 0.05, 0.6, 1.15, true); err == nil {
		t.Fatal("initial out of range accepted")
	}
	if _, err := NewRegulator(RailVIO, 1.0, 0, 0.6, 1.15, true); err == nil {
		t.Fatal("zero slew accepted")
	}
}

func TestRegulatorNonScalable(t *testing.T) {
	r, err := NewRegulator(RailVDDQ, 1.2, 0.05, 1.2, 1.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Set(1.2); err != nil {
		t.Fatal("same-voltage set on fixed rail must succeed")
	}
	if r.Scalable() {
		t.Fatal("rail reports scalable")
	}
}

func TestRailsAssembly(t *testing.T) {
	rails := DefaultRails()
	for i := 0; i < NumRails; i++ {
		if rails.Get(RailID(i)) == nil {
			t.Fatalf("missing regulator %v", RailID(i))
		}
	}
	if rails.Voltage(RailVSA) != NominalVSA {
		t.Fatalf("V_SA = %v", rails.Voltage(RailVSA))
	}
	// VDDQ is not scalable on commodity DRAM (§2.4).
	if rails.Get(RailVDDQ).Scalable() {
		t.Fatal("VDDQ must not be scalable")
	}
}

func TestRailsErrors(t *testing.T) {
	if _, err := NewRails(nil); err == nil {
		t.Fatal("nil regulator accepted")
	}
	r1, _ := NewRegulator(RailVSA, 0.95, 0.05, 0.6, 1.1, true)
	if _, err := NewRails(r1); err == nil {
		t.Fatal("incomplete rail set accepted")
	}
	r2, _ := NewRegulator(RailVSA, 0.95, 0.05, 0.6, 1.1, true)
	if _, err := NewRails(r1, r2); err == nil {
		t.Fatal("duplicate rail accepted")
	}
}

func TestOperatingPointsMatchTable1(t *testing.T) {
	high, low := HighPoint(), LowPoint()
	if high.DDR != 1.6*GHz || low.DDR != 1.06*GHz {
		t.Fatalf("DDR points wrong: %v / %v", high.DDR, low.DDR)
	}
	if high.Interco != 0.8*GHz || low.Interco != 0.4*GHz {
		t.Fatalf("interconnect points wrong: %v / %v", high.Interco, low.Interco)
	}
	if high.MC != high.DDR/2 || low.MC != low.DDR/2 {
		t.Fatal("MC must run at half the DDR rate")
	}
	// Table 1: MD-DVFS at 0.8 x V_SA and 0.85 x V_IO.
	vsaRatio := float64(low.VSA / high.VSA)
	if math.Abs(vsaRatio-0.80) > 0.01 {
		t.Fatalf("V_SA ratio = %.3f, want 0.80", vsaRatio)
	}
	vioRatio := float64(low.VIO / high.VIO)
	if math.Abs(vioRatio-0.85) > 0.01 {
		t.Fatalf("V_IO ratio = %.3f, want 0.85", vioRatio)
	}
}

func TestLowestPointVminFloor(t *testing.T) {
	// §7.4: V_SA is already at Vmin at DDR 1.06GHz, so 0.8GHz saves no
	// further voltage.
	if LowestPoint().VSA != LowPoint().VSA {
		t.Fatalf("V_SA at 0.8GHz (%v) differs from 1.06GHz (%v)",
			LowestPoint().VSA, LowPoint().VSA)
	}
}

func TestLadders(t *testing.T) {
	two := TwoPointLadder()
	if len(two) != 2 || two[0].DDR <= two[1].DDR {
		t.Fatal("two-point ladder malformed")
	}
	three := LadderLPDDR3()
	if len(three) != 3 {
		t.Fatal("LPDDR3 ladder malformed")
	}
	for i := 1; i < len(three); i++ {
		if three[i].DDR >= three[i-1].DDR {
			t.Fatal("ladder not descending")
		}
	}
	for _, op := range three {
		if err := op.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOperatingPointValidate(t *testing.T) {
	bad := OperatingPoint{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero point accepted")
	}
	// A point must keep both rails inside their regulation ranges, or
	// the first transition to it fails mid-run.
	for _, mut := range []func(*OperatingPoint){
		func(op *OperatingPoint) { op.VSA = VSAMin - 0.01 },
		func(op *OperatingPoint) { op.VSA = VSAMax + 0.01 },
		func(op *OperatingPoint) { op.VIO = VIOMin - 0.01 },
		func(op *OperatingPoint) { op.VIO = VIOMax + 0.01 },
		func(op *OperatingPoint) { op.VSA = Volt(math.NaN()) },
	} {
		op := LowPoint()
		mut(&op)
		if err := op.Validate(); err == nil {
			t.Errorf("point %v accepted", op)
		}
	}
}

func TestHzString(t *testing.T) {
	if s := (1.6 * GHz).String(); s != "1.6GHz" {
		t.Fatalf("Hz string = %q", s)
	}
	if s := (300 * MHz).String(); s != "300MHz" {
		t.Fatalf("Hz string = %q", s)
	}
}

package power

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

func TestDynamicPower(t *testing.T) {
	// P = C V^2 f a: 1nF, 1V, 1GHz, full activity = 1W.
	if p := Dynamic(1e-9, 1.0, 1*vf.GHz, 1.0); math.Abs(float64(p)-1.0) > 1e-9 {
		t.Fatalf("Dynamic = %v, want 1W", p)
	}
	// Quadratic in V.
	p1 := Dynamic(1e-9, 0.5, 1*vf.GHz, 1.0)
	if math.Abs(float64(p1)-0.25) > 1e-9 {
		t.Fatalf("V^2 scaling broken: %v", p1)
	}
	// Activity clamped.
	if Dynamic(1e-9, 1, 1*vf.GHz, 2.0) != Dynamic(1e-9, 1, 1*vf.GHz, 1.0) {
		t.Fatal("activity not clamped high")
	}
	if Dynamic(1e-9, 1, 1*vf.GHz, -1) != 0 {
		t.Fatal("activity not clamped low")
	}
}

func TestLeakage(t *testing.T) {
	nom := Leakage(0.1, 1.0, 1.0)
	if math.Abs(float64(nom)-0.1) > 1e-9 {
		t.Fatalf("leakage at nominal = %v", nom)
	}
	// Super-linear in V: at 0.8x voltage, leakage is 0.64x.
	low := Leakage(0.1, 0.8, 1.0)
	if math.Abs(float64(low)-0.064) > 1e-9 {
		t.Fatalf("leakage scaling = %v, want 0.064", low)
	}
	if Leakage(0.1, 1.0, 0) != 0 {
		t.Fatal("zero nominal must yield zero")
	}
}

func TestEDP(t *testing.T) {
	if e := EDP(2.0, sim.Second); e != 2.0 {
		t.Fatalf("EDP = %v", e)
	}
}

func TestMeterIntegration(t *testing.T) {
	m := NewMeter("test")
	m.Accumulate(2.0, 500*sim.Millisecond)
	m.Accumulate(4.0, 500*sim.Millisecond)
	if e := m.Energy(); math.Abs(float64(e)-3.0) > 1e-9 {
		t.Fatalf("energy = %v, want 3J", e)
	}
	if a := m.Average(); math.Abs(float64(a)-3.0) > 1e-9 {
		t.Fatalf("average = %v, want 3W", a)
	}
	if m.Elapsed() != sim.Second {
		t.Fatalf("elapsed = %v", m.Elapsed())
	}
	m.Reset()
	if m.Energy() != 0 || m.Average() != 0 || m.Name() != "test" {
		t.Fatal("reset broken")
	}
}

func TestMeterNegativeInterval(t *testing.T) {
	m := NewMeter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Accumulate(1, -1)
}

func TestMeterBank(t *testing.T) {
	b := NewMeterBank()
	var rail [vf.NumRails]Watt
	rail[vf.RailVSA] = 1.0
	rail[vf.RailVCore] = 2.0
	b.Accumulate(rail, sim.Second)
	if got := b.Total().Average(); math.Abs(float64(got)-3.0) > 1e-9 {
		t.Fatalf("total = %v", got)
	}
	if got := b.Rail(vf.RailVCore).Average(); got != 2.0 {
		t.Fatalf("core rail = %v", got)
	}
	b.Reset()
	if b.Total().Energy() != 0 {
		t.Fatal("bank reset broken")
	}
}

func TestMeterEnergyAdditive(t *testing.T) {
	// Property: energy is additive over intervals.
	err := quick.Check(func(p1, p2 uint8, d1, d2 uint16) bool {
		m := NewMeter("q")
		m.Accumulate(Watt(p1), sim.Time(d1)*sim.Microsecond)
		m.Accumulate(Watt(p2), sim.Time(d2)*sim.Microsecond)
		want := float64(p1)*(float64(d1)*1e-6) + float64(p2)*(float64(d2)*1e-6)
		return math.Abs(float64(m.Energy())-want) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBudgetSplit(t *testing.T) {
	b, err := NewBudget(4.5, 1.0, 1.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Compute(); math.Abs(float64(got)-1.8) > 1e-9 {
		t.Fatalf("compute = %v, want 1.8", got)
	}
	if err := b.SetIOMemory(0.3, 0.9); err != nil {
		t.Fatal(err)
	}
	if got := b.Compute(); math.Abs(float64(got)-3.1) > 1e-9 {
		t.Fatalf("after redistribution compute = %v, want 3.1", got)
	}
	if b.IO() != 0.3 || b.Memory() != 0.9 {
		t.Fatalf("programmed split io=%v mem=%v, want io=0.3 mem=0.9", b.IO(), b.Memory())
	}
}

func TestBudgetRejections(t *testing.T) {
	if _, err := NewBudget(4.5, 3.0, 1.5, 0.2); err == nil {
		t.Fatal("exhausted TDP accepted")
	}
	b, _ := NewBudget(4.5, 1.0, 1.0, 0.2)
	if err := b.SetIOMemory(-1, 1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if err := b.SetIOMemory(4.0, 0.4); err == nil {
		t.Fatal("over-TDP split accepted")
	}
	// Failed set must not corrupt state.
	if b.IO() != 1.0 || b.Memory() != 1.0 {
		t.Fatal("failed set mutated budget")
	}
}

func TestBudgetInvariant(t *testing.T) {
	// Property: compute + io + memory + uncore == TDP for any accepted
	// split.
	b, _ := NewBudget(10, 1, 1, 0.5)
	err := quick.Check(func(ioRaw, memRaw uint8) bool {
		io := Watt(float64(ioRaw) / 255 * 4)
		mem := Watt(float64(memRaw) / 255 * 4)
		if err := b.SetIOMemory(io, mem); err != nil {
			return true // rejected splits are fine
		}
		sum := float64(b.Compute() + b.IO() + b.Memory() + b.Uncore())
		return math.Abs(sum-10) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

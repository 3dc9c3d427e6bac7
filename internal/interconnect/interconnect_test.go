package interconnect

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

func newFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(DefaultParams(), 0.8*vf.GHz, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConstruction(t *testing.T) {
	if _, err := New(DefaultParams(), 0, 0.95); err == nil {
		t.Fatal("zero clock accepted")
	}
	bad := DefaultParams()
	bad.BytesPerCycle = 0
	if _, err := New(bad, 0.8*vf.GHz, 0.95); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestCapacity(t *testing.T) {
	f := newFabric(t)
	// 32B/clk at 0.8GHz = 25.6GB/s.
	if got := f.Capacity(); math.Abs(got-25.6e9) > 1 {
		t.Fatalf("capacity = %v", got)
	}
	if err := f.SetOperatingPoint(0.4*vf.GHz, 0.76); err != nil {
		t.Fatal(err)
	}
	if got := f.Capacity(); math.Abs(got-12.8e9) > 1 {
		t.Fatalf("capacity at low = %v", got)
	}
}

func TestEvaluate(t *testing.T) {
	f := newFabric(t)
	ep := f.Evaluate(5e9)
	if ep.AchievedBytes != 5e9 {
		t.Fatal("under-capacity traffic dropped")
	}
	over := f.Evaluate(100e9)
	if math.Abs(over.AchievedBytes-f.Capacity()) > 1 {
		t.Fatal("over-capacity not clamped")
	}
	if f.Evaluate(-1).AchievedBytes != 0 {
		t.Fatal("negative demand served")
	}
}

func TestLatencyMonotone(t *testing.T) {
	f := newFabric(t)
	err := quick.Check(func(a, b uint16) bool {
		d1, d2 := float64(a)*3e5, float64(b)*3e5
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return f.Evaluate(d1).Latency <= f.Evaluate(d2).Latency+1e-15
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockAndDrain(t *testing.T) {
	f := newFabric(t)
	loaded := f.Evaluate(20e9) // load the buffers
	d := f.BlockAndDrain(loaded.Utilization)
	if d <= 0 || d > DefaultParams().DrainLatencyMax {
		t.Fatalf("drain latency = %v (max %v)", d, DefaultParams().DrainLatencyMax)
	}
	if !f.Blocked() {
		t.Fatal("not blocked after drain")
	}
	ep := f.Evaluate(1e9)
	if ep.AchievedBytes != 0 || !math.IsInf(ep.Latency, 1) {
		t.Fatal("blocked fabric served traffic")
	}
	f.Release()
	if f.Blocked() {
		t.Fatal("release failed")
	}
	// Idle drain is cheaper than loaded drain but not free.
	f2 := newFabric(t)
	idleDrain := f2.BlockAndDrain(f2.Evaluate(0).Utilization)
	if idleDrain <= 0 || idleDrain >= d {
		t.Fatalf("idle drain %v not below loaded drain %v", idleDrain, d)
	}
}

func TestDrainUnderBudget(t *testing.T) {
	// §5: draining IO interconnect request buffers takes under 1us.
	f := newFabric(t)
	full := f.Evaluate(f.Capacity()) // fully loaded
	if d := f.BlockAndDrain(full.Utilization); d >= sim.Microsecond {
		t.Fatalf("worst-case drain %v exceeds 1us budget", d)
	}
}

func TestPower(t *testing.T) {
	f := newFabric(t)
	idle := f.Power(0)
	busy := f.Power(1)
	if busy <= idle {
		t.Fatal("power not monotone in utilization")
	}
	if err := f.SetOperatingPoint(0.4*vf.GHz, 0.76); err != nil {
		t.Fatal(err)
	}
	if low := f.Power(1); low >= busy {
		t.Fatal("lower operating point did not reduce power")
	}
}

func TestRPQOccupancy(t *testing.T) {
	f := newFabric(t)
	ep := f.Evaluate(6.4e9)
	want := ep.AchievedBytes / 64 * ep.Latency
	if math.Abs(ep.RPQOccupancy-want) > 1e-6 {
		t.Fatalf("occupancy = %v, want %v", ep.RPQOccupancy, want)
	}
}

func TestQoSStrings(t *testing.T) {
	if BestEffort.String() != "best-effort" || Isochronous.String() != "isochronous" || Bandwidth.String() != "bandwidth" {
		t.Fatal("QoS strings wrong")
	}
}

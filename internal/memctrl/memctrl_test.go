package memctrl

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/dram"
	"sysscale/internal/vf"
)

func newMC(t *testing.T, ddr vf.Hz) *Controller {
	t.Helper()
	d, err := dram.NewDevice(dram.LPDDR3, dram.DefaultGeometry(), ddr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultParams(), d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConstruction(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	if c.Frequency() != 0.8*vf.GHz {
		t.Fatalf("MC clock = %v, want DDR/2", c.Frequency())
	}
	if _, err := New(DefaultParams(), nil); err == nil {
		t.Fatal("nil device accepted")
	}
	bad := DefaultParams()
	bad.SchedulingEff = 1.5
	if _, err := New(bad, c.Device()); err == nil {
		t.Fatal("bad efficiency accepted")
	}
}

func TestEvaluateServesUpToUsable(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	usable := c.UsableBandwidth()
	if math.Abs(usable-25.6e9*DefaultParams().SchedulingEff) > 1 {
		t.Fatalf("usable = %v", usable)
	}
	ep := c.Evaluate(5e9)
	if ep.AchievedBytes != 5e9 {
		t.Fatalf("under-capacity demand not fully served: %v", ep.AchievedBytes)
	}
	over := c.Evaluate(usable * 2)
	if math.Abs(over.AchievedBytes-usable) > 1 {
		t.Fatalf("over-capacity served %v, want %v", over.AchievedBytes, usable)
	}
	if over.Utilization < 0.99 {
		t.Fatalf("saturated utilization = %v", over.Utilization)
	}
	neg := c.Evaluate(-5)
	if neg.AchievedBytes != 0 {
		t.Fatal("negative demand served")
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	err := quick.Check(func(a, b uint16) bool {
		d1 := float64(a) * 3e5 // up to ~19.7GB/s
		d2 := float64(b) * 3e5
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		l1 := c.Evaluate(d1).Latency
		l2 := c.Evaluate(d2).Latency
		return l1 <= l2+1e-15
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLatencyGrowsAtLowerPoint(t *testing.T) {
	hi := newMC(t, 1.6*vf.GHz)
	lo := newMC(t, 1.06*vf.GHz)
	if err := lo.SetOperatingPoint(0.53*vf.GHz, 0.76); err != nil {
		t.Fatal(err)
	}
	const demand = 6e9
	lh := hi.Evaluate(demand).Latency
	ll := lo.Evaluate(demand).Latency
	if ll <= lh {
		t.Fatalf("low-point latency (%v) not above high-point (%v)", ll, lh)
	}
	// §2.4's trade-off is bounded: for a mid-range demand the loaded
	// latency grows tens of percent, not multiples.
	if ll > 1.6*lh {
		t.Fatalf("latency ratio %.2f unreasonably large", ll/lh)
	}
}

func TestBlockedServesNothing(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	c.Block()
	if !c.Blocked() {
		t.Fatal("not blocked")
	}
	ep := c.Evaluate(1e9)
	if ep.AchievedBytes != 0 || !math.IsInf(ep.Latency, 1) {
		t.Fatal("blocked controller served traffic")
	}
	c.Release()
	if c.Blocked() {
		t.Fatal("still blocked")
	}
	if c.Evaluate(1e9).AchievedBytes != 1e9 {
		t.Fatal("released controller did not serve")
	}
}

func TestSelfRefreshServesNothing(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	c.Device().EnterSelfRefresh()
	if ep := c.Evaluate(1e9); ep.AchievedBytes != 0 {
		t.Fatal("self-refresh DRAM served traffic")
	}
}

func TestRPQOccupancyLittlesLaw(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	ep := c.Evaluate(6.4e9) // 100M requests/s at 64B
	want := ep.AchievedBytes / 64 * ep.Latency
	if math.Abs(ep.RPQOccupancy-want) > 1e-6 {
		t.Fatalf("RPQ occupancy = %v, want %v", ep.RPQOccupancy, want)
	}
	// Saturated: capped at queue capacity.
	over := c.Evaluate(1e12)
	if over.RPQOccupancy > float64(DefaultParams().QueueCapacity) {
		t.Fatal("occupancy exceeds queue capacity")
	}
}

func TestDetunedInterfaceLowersUsable(t *testing.T) {
	c := newMC(t, 1.06*vf.GHz)
	opt := c.UsableBandwidth()
	if err := c.Device().LoadTiming(dram.DetunedTiming(dram.LPDDR3, 1.6*vf.GHz, 1.06*vf.GHz)); err != nil {
		t.Fatal(err)
	}
	if det := c.UsableBandwidth(); det >= opt {
		t.Fatal("detuned interface did not lower the bandwidth ceiling")
	}
}

func TestPowerScalesWithVoltageAndLoad(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	pIdle := c.Power(0)
	pBusy := c.Power(1)
	if pBusy <= pIdle {
		t.Fatal("power not monotone in utilization")
	}
	if err := c.SetOperatingPoint(0.53*vf.GHz, 0.76); err != nil {
		t.Fatal(err)
	}
	pLow := c.Power(1)
	if pLow >= pBusy {
		t.Fatal("lower V/F did not reduce power")
	}
	// Joint V+f reduction should save much more than linearly (§2.4:
	// "approximately by a cubic factor").
	ratio := float64(pLow / pBusy)
	if ratio > 0.55 {
		t.Fatalf("power ratio %.2f too high for joint V/F scaling", ratio)
	}
}

func TestSetOperatingPointValidation(t *testing.T) {
	c := newMC(t, 1.6*vf.GHz)
	if err := c.SetOperatingPoint(0, 0.9); err == nil {
		t.Fatal("zero clock accepted")
	}
	if err := c.SetOperatingPoint(0.8*vf.GHz, 0); err == nil {
		t.Fatal("zero voltage accepted")
	}
}

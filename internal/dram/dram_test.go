package dram

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/vf"
)

func TestKindBins(t *testing.T) {
	bins := LPDDR3.Bins()
	if len(bins) != 4 {
		t.Fatalf("LPDDR3 bins = %d, want 4 (incl. LPDDR3E 2.13)", len(bins))
	}
	for i := 1; i < len(bins); i++ {
		if bins[i] >= bins[i-1] {
			t.Fatal("bins not descending")
		}
	}
	if !LPDDR3.SupportsBin(1.06 * vf.GHz) {
		t.Fatal("1.06GHz missing")
	}
	if LPDDR3.SupportsBin(1.23 * vf.GHz) {
		t.Fatal("bogus bin supported")
	}
	if len(DDR4.Bins()) == 0 {
		t.Fatal("DDR4 has no bins")
	}
	if Kind(99).Bins() != nil {
		t.Fatal("unknown kind has bins")
	}
}

func TestGeometryPeakBandwidth(t *testing.T) {
	g := DefaultGeometry()
	// Dual-channel 64-bit at DDR 1.6GHz = 25.6GB/s (§3 / Fig. 3b).
	got := g.PeakBandwidth(1.6 * vf.GHz)
	if math.Abs(got-25.6e9) > 1 {
		t.Fatalf("peak = %v, want 25.6GB/s", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestDeviceCreation(t *testing.T) {
	if _, err := NewDevice(LPDDR3, DefaultGeometry(), 1.23*vf.GHz); err == nil {
		t.Fatal("unsupported bin accepted")
	}
	d, err := NewDevice(LPDDR3, DefaultGeometry(), 1.6*vf.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != Active || d.Frequency() != 1.6*vf.GHz {
		t.Fatal("fresh device state wrong")
	}
	if d.Timing().ForFreq != 1.6*vf.GHz {
		t.Fatal("device not booted with trained timing")
	}
}

func TestFrequencyChangeRequiresSelfRefresh(t *testing.T) {
	d, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.6*vf.GHz)
	if err := d.SetFrequency(1.06 * vf.GHz); err == nil {
		t.Fatal("frequency change outside self-refresh accepted")
	}
	d.EnterSelfRefresh()
	if d.State() != SelfRefresh {
		t.Fatal("not in self-refresh")
	}
	if err := d.SetFrequency(1.06 * vf.GHz); err != nil {
		t.Fatal(err)
	}
	if err := d.SetFrequency(1.23 * vf.GHz); err == nil {
		t.Fatal("unsupported bin accepted in self-refresh")
	}
	lat := d.ExitSelfRefresh()
	if lat <= 0 || lat > SelfRefreshExitLatency {
		t.Fatalf("exit latency = %v", lat)
	}
	if d.State() != Active {
		t.Fatal("did not exit self-refresh")
	}
	// Exiting while active is a no-op.
	if d.ExitSelfRefresh() != 0 {
		t.Fatal("double exit returned latency")
	}
}

func TestOptimalTimingScalesWithClock(t *testing.T) {
	fast := OptimalTiming(LPDDR3, 1.6*vf.GHz)
	slow := OptimalTiming(LPDDR3, 0.8*vf.GHz)
	// Cycle counts shrink with the clock (wall-clock latency constant).
	if slow.CL >= fast.CL {
		t.Fatalf("CL at 0.8GHz (%d) not below CL at 1.6GHz (%d)", slow.CL, fast.CL)
	}
	fastNs := fast.RandomAccessLatency(1.6 * vf.GHz)
	slowNs := slow.RandomAccessLatency(0.8 * vf.GHz)
	// Wall-clock access within ~25% across bins (ceil quantization).
	if slowNs < fastNs*0.8 || slowNs > fastNs*1.3 {
		t.Fatalf("access latency drifted: %.1fns vs %.1fns", slowNs*1e9, fastNs*1e9)
	}
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingValidate(t *testing.T) {
	bad := OptimalTiming(LPDDR3, 1.6*vf.GHz)
	bad.CL = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero CL accepted")
	}
	bad = OptimalTiming(LPDDR3, 1.6*vf.GHz)
	bad.InterfaceEff = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("interface efficiency > 1 accepted")
	}
	bad = OptimalTiming(LPDDR3, 1.6*vf.GHz)
	bad.ForFreq = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("untagged timing accepted")
	}
}

func TestDetunedTiming(t *testing.T) {
	// Same frequency: no detuning.
	same := DetunedTiming(LPDDR3, 1.6*vf.GHz, 1.6*vf.GHz)
	if same.InterfaceEff != 1.0 || same.TermEff != 1.0 {
		t.Fatal("same-frequency detuning applied penalties")
	}
	// Slower than trained: trained cycle counts are kept, so access
	// latency is longer than with a trained set; trims degraded.
	det := DetunedTiming(LPDDR3, 1.6*vf.GHz, 1.06*vf.GHz)
	opt := OptimalTiming(LPDDR3, 1.06*vf.GHz)
	if det.RandomAccessLatency(1.06*vf.GHz) <= opt.RandomAccessLatency(1.06*vf.GHz) {
		t.Fatal("detuned access latency not worse")
	}
	if det.InterfaceEff >= 1.0 {
		t.Fatal("detuned interface not derated")
	}
	if det.TermEff <= 1.0 {
		t.Fatal("detuned termination not penalized")
	}
	// Faster than trained: guard-banded counts.
	up := DetunedTiming(LPDDR3, 1.06*vf.GHz, 1.6*vf.GHz)
	trained := OptimalTiming(LPDDR3, 1.06*vf.GHz)
	if up.CL <= trained.CL {
		t.Fatal("faster-than-trained not guard-banded")
	}
}

func TestPowerStates(t *testing.T) {
	pp := DefaultPowerParams()
	d, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.6*vf.GHz)
	active := pp.Draw(d, 5e9, 0.25)
	d.EnterSelfRefresh()
	sr := pp.Draw(d, 0, 0)
	if sr != pp.SelfRefresh {
		t.Fatalf("self-refresh draw = %v", sr)
	}
	if active <= sr {
		t.Fatal("active draw not above self-refresh")
	}
}

func TestPowerComponents(t *testing.T) {
	pp := DefaultPowerParams()
	d, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.6*vf.GHz)
	idle := pp.Draw(d, 0, 0)
	busy := pp.Draw(d, 10e9, 0.5)
	if busy <= idle {
		t.Fatal("operation power missing")
	}
	// Background power drops with frequency (§2.4).
	dLow, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.06*vf.GHz)
	idleLow := pp.Draw(dLow, 0, 0)
	if idleLow >= idle {
		t.Fatalf("background power did not drop: %v vs %v", idleLow, idle)
	}
	// But per-byte IO energy grows at the lower bin, so the same heavy
	// traffic costs relatively more there (§2.4: read/write energy
	// increases as frequency drops).
	deltaHigh := float64(busy - idle)
	deltaLow := float64(pp.Draw(dLow, 10e9, 0.5*1.6/1.06) - idleLow)
	if deltaLow <= deltaHigh {
		t.Fatalf("per-access energy did not grow at the low bin: %v vs %v", deltaLow, deltaHigh)
	}
}

func TestPowerMonotoneInBandwidth(t *testing.T) {
	pp := DefaultPowerParams()
	d, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.6*vf.GHz)
	err := quick.Check(func(a, b uint16) bool {
		bw1, bw2 := float64(a)*1e6, float64(b)*1e6
		if bw1 > bw2 {
			bw1, bw2 = bw2, bw1
		}
		u1, u2 := bw1/25.6e9, bw2/25.6e9
		return pp.Draw(d, bw1, u1) <= pp.Draw(d, bw2, u2)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetunedTerminationCostsPower(t *testing.T) {
	pp := DefaultPowerParams()
	d, _ := NewDevice(LPDDR3, DefaultGeometry(), 1.06*vf.GHz)
	opt := pp.Draw(d, 10e9, 0.8)
	if err := d.LoadTiming(DetunedTiming(LPDDR3, 1.6*vf.GHz, 1.06*vf.GHz)); err != nil {
		t.Fatal(err)
	}
	det := pp.Draw(d, 10e9, 0.8)
	if det <= opt {
		t.Fatal("detuned image did not raise termination power (Observation 4)")
	}
}

func TestStateStrings(t *testing.T) {
	if Active.String() != "active" || SelfRefresh.String() != "self-refresh" || PowerDown.String() != "power-down" {
		t.Fatal("state strings wrong")
	}
	if LPDDR3.String() != "LPDDR3" || DDR4.String() != "DDR4" {
		t.Fatal("kind strings wrong")
	}
}

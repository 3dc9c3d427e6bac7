package cache

import (
	"math"
	"testing"
)

func TestConstruction(t *testing.T) {
	if _, err := New(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.CapacityBytes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestCounters(t *testing.T) {
	l, _ := New(DefaultParams())
	ep := l.Evaluate(Traffic{
		CoreMissBytes: 6.4e9, // 100M misses/s at 64B lines
		GfxMissBytes:  3.2e9, // 50M misses/s
		LatStallFrac:  0.35,
	}, 80e-9)
	if math.Abs(ep.GfxMisses-50e6) > 1 {
		t.Fatalf("GfxMisses = %v, want 50M/s", ep.GfxMisses)
	}
	wantOcc := 100e6 * 80e-9
	if math.Abs(ep.OccupancyTracer-wantOcc) > 1e-9 {
		t.Fatalf("OccupancyTracer = %v, want %v", ep.OccupancyTracer, wantOcc)
	}
	if math.Abs(ep.Stalls-35) > 1e-9 {
		t.Fatalf("Stalls = %v, want 35%%", ep.Stalls)
	}
	if ep.DemandBytes != 9.6e9 {
		t.Fatalf("DemandBytes = %v", ep.DemandBytes)
	}
}

func TestStallClamping(t *testing.T) {
	l, _ := New(DefaultParams())
	if ep := l.Evaluate(Traffic{LatStallFrac: 1.7}, 80e-9); ep.Stalls != 100 {
		t.Fatalf("stall not clamped high: %v", ep.Stalls)
	}
	if ep := l.Evaluate(Traffic{LatStallFrac: -0.2}, 80e-9); ep.Stalls != 0 {
		t.Fatalf("stall not clamped low: %v", ep.Stalls)
	}
}

func TestInfiniteLatencyZeroesOccupancy(t *testing.T) {
	l, _ := New(DefaultParams())
	ep := l.Evaluate(Traffic{CoreMissBytes: 6.4e9}, math.Inf(1))
	if ep.OccupancyTracer != 0 {
		t.Fatal("occupancy computed from infinite latency")
	}
}

func TestPower(t *testing.T) {
	l, _ := New(DefaultParams())
	idle := l.Power(0.65, 1.2e9, 0)
	busy := l.Power(0.65, 1.2e9, 30e9)
	if busy <= idle {
		t.Fatal("LLC power not monotone in throughput")
	}
	// Activity saturates.
	max1 := l.Power(0.65, 1.2e9, 40e9)
	max2 := l.Power(0.65, 1.2e9, 400e9)
	if max2 != max1 {
		t.Fatal("activity not clamped")
	}
}

func TestParamsAccessor(t *testing.T) {
	l, _ := New(DefaultParams())
	if l.Params().CapacityBytes != 4<<20 {
		t.Fatal("Table 2 LLC capacity wrong")
	}
}

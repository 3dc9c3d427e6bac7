package interconnect

import (
	"math"
	"testing"

	"sysscale/internal/vf"
)

// evaluateReference is Evaluate as first written, in one piece. It is
// the oracle TestEvaluateMatchesReference holds the split
// Terms/Resolve form to.
func evaluateReference(f *Fabric, demandBytes float64) Epoch {
	if demandBytes < 0 {
		demandBytes = 0
	}
	ep := Epoch{DemandBytes: demandBytes}
	if f.blocked {
		ep.Latency = math.Inf(1)
		return ep
	}
	cap := f.Capacity()
	ep.AchievedBytes = math.Min(demandBytes, cap)
	if cap > 0 {
		ep.Utilization = ep.AchievedBytes / cap
	}
	base := 12 / float64(f.freq)
	rho := ep.Utilization
	const rhoCap = 0.95
	if rho > rhoCap {
		rho = rhoCap
	}
	ep.Latency = base * (1 + rho/(1-rho))
	reqRate := ep.AchievedBytes / 64
	occ := reqRate * ep.Latency
	if occ > float64(f.params.BufferEntries) {
		occ = float64(f.params.BufferEntries)
	}
	ep.RPQOccupancy = occ
	return ep
}

// same reports whether a and b are the same float64: equal with equal
// signs (so -0 and +0 differ), or both NaN.
func same(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return a == b && math.Signbit(a) == math.Signbit(b)
}

func sameEpoch(a, b Epoch) bool {
	return same(a.DemandBytes, b.DemandBytes) && same(a.AchievedBytes, b.AchievedBytes) &&
		same(a.Utilization, b.Utilization) && same(a.Latency, b.Latency) &&
		same(a.RPQOccupancy, b.RPQOccupancy)
}

// TestEvaluateMatchesReference compares Evaluate and Resolve with the
// reference formula at the fabric clocks of the operating points,
// admitting and blocked, over demands that are negative, zero,
// mid-range, around and past the utilization cap, infinite and NaN.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, clock := range []vf.Hz{0.4 * vf.GHz, 0.5 * vf.GHz, 0.8 * vf.GHz} {
		f, err := New(DefaultParams(), clock, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		c := f.Capacity()
		demands := []float64{
			-1e9, math.Inf(-1), math.Copysign(0, -1), 0, 1, 1e6,
			0.3 * c, 0.9 * c, 0.95 * c, 0.96 * c, c, 2 * c, 1e13, math.Inf(1), math.NaN(),
		}
		for _, blocked := range []bool{false, true} {
			if blocked {
				f.BlockAndDrain()
			}
			terms := f.Terms()
			for _, d := range demands {
				want := evaluateReference(f, d)
				if got := f.Evaluate(d); !sameEpoch(got, want) {
					t.Fatalf("%v blocked=%v demand %g: Evaluate\n got %+v\nwant %+v", clock, blocked, d, got, want)
				}
				if got := f.LastEpoch(); !sameEpoch(got, want) {
					t.Fatalf("%v blocked=%v demand %g: LastEpoch %+v, want %+v", clock, blocked, d, got, want)
				}
				if got := f.Resolve(&terms, d); !sameEpoch(got, want) {
					t.Fatalf("%v blocked=%v demand %g: Resolve\n got %+v\nwant %+v", clock, blocked, d, got, want)
				}
			}
		}
	}
}

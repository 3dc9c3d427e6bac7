package memctrl

import (
	"math"
	"testing"

	"sysscale/internal/dram"
)

// evaluateReference is Evaluate as first written, in one piece: the
// ceiling, the unloaded latency and the queue cap are computed inside
// it, from a copy of the device's timing set. It is the oracle
// TestEvaluateMatchesReference holds the split Terms/Resolve form to.
func evaluateReference(c *Controller, demandBytes float64) Epoch {
	if demandBytes < 0 {
		demandBytes = 0
	}
	ep := Epoch{DemandBytes: demandBytes}
	if c.blocked || c.dev.State() != dram.Active {
		ep.Latency = math.Inf(1)
		return ep
	}

	usable := c.dev.PeakBandwidth() * c.params.SchedulingEff * c.dev.Timing().InterfaceEff
	ep.AchievedBytes = math.Min(demandBytes, usable)
	if usable > 0 {
		ep.Utilization = ep.AchievedBytes / usable
	}

	pipe := c.params.PipelineCycles / float64(c.freq)
	access := c.dev.Timing().RandomAccessLatency(c.dev.Frequency())
	burst := c.burstTime()
	ep.IdleLatency = pipe + access + burst

	rho := ep.Utilization
	const rhoCap = 0.96
	if rho > rhoCap {
		rho = rhoCap
	}
	queue := ep.IdleLatency * 0.5 * rho * rho * rho * rho
	maxQueue := float64(c.params.QueueCapacity) * burst
	if queue > maxQueue {
		queue = maxQueue
	}
	ep.Latency = ep.IdleLatency + queue

	reqRate := ep.AchievedBytes / float64(c.params.LineBytes)
	occ := reqRate * ep.Latency
	if occ > float64(c.params.QueueCapacity) {
		occ = float64(c.params.QueueCapacity)
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
		same(a.IdleLatency, b.IdleLatency) && same(a.RPQOccupancy, b.RPQOccupancy)
}

// TestEvaluateMatchesReference compares Evaluate, Resolve and
// Terms.Latency with the reference formula on both DRAM technologies
// at every bin, with the trained and a detuned timing image, serving,
// blocked and in self-refresh, over demands that are negative, zero,
// mid-range, around and past the utilization cap, infinite and NaN.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, kind := range []dram.Kind{dram.LPDDR3, dram.DDR4} {
		bins := kind.Bins()
		for _, bin := range bins {
			for _, detuned := range []bool{false, true} {
				dev, err := dram.NewDevice(kind, dram.DefaultGeometry(), bin)
				if err != nil {
					t.Fatal(err)
				}
				if detuned {
					if err := dev.LoadTiming(dram.DetunedTiming(kind, bins[0], bin)); err != nil {
						t.Fatal(err)
					}
				}
				c, err := New(DefaultParams(), dev)
				if err != nil {
					t.Fatal(err)
				}
				usable := c.UsableBandwidth()
				demands := []float64{
					-1e9, math.Inf(-1), math.Copysign(0, -1), 0, 1, 1e6,
					0.3 * usable, 0.8 * usable, 0.96 * usable, 0.97 * usable,
					usable, 1.5 * usable, 1e13, math.Inf(1), math.NaN(),
				}
				for _, state := range []string{"serving", "blocked", "self-refresh"} {
					switch state {
					case "blocked":
						c.Block()
					case "self-refresh":
						c.Release()
						dev.EnterSelfRefresh()
					}
					terms := c.Terms()
					for _, d := range demands {
						want := evaluateReference(c, d)
						if got := c.Evaluate(d); !sameEpoch(got, want) {
							t.Fatalf("%v %v detuned=%v %s demand %g: Evaluate\n got %+v\nwant %+v", kind, bin, detuned, state, d, got, want)
						}
						if got := c.LastEpoch(); !sameEpoch(got, want) {
							t.Fatalf("%v %v %s demand %g: LastEpoch %+v, want %+v", kind, bin, state, d, got, want)
						}
						if got := c.Resolve(&terms, d); !sameEpoch(got, want) {
							t.Fatalf("%v %v detuned=%v %s demand %g: Resolve\n got %+v\nwant %+v", kind, bin, detuned, state, d, got, want)
						}
						if got := terms.Latency(d); !same(got, want.Latency) {
							t.Fatalf("%v %v detuned=%v %s demand %g: Latency %g, want %g", kind, bin, detuned, state, d, got, want.Latency)
						}
					}
				}
				dev.ExitSelfRefresh()
			}
		}
	}
}

package pmu

import (
	"testing"

	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/mrc"
	"sysscale/internal/vf"
)

// BenchmarkFlowTransition measures the wall-clock cost of executing one
// Fig. 5 flow (not the simulated latency — that is fixed at <10us).
func BenchmarkFlowTransition(b *testing.B) {
	high := vf.HighPoint()
	dev, err := dram.NewDevice(dram.LPDDR3, dram.DefaultGeometry(), high.DDR)
	if err != nil {
		b.Fatal(err)
	}
	mc, _ := memctrl.New(memctrl.DefaultParams(), dev)
	fab, _ := interconnect.New(interconnect.DefaultParams(), high.Interco, high.VSA)
	rails := vf.DefaultRails()
	if _, err := rails.Get(vf.RailVSA).Set(high.VSA); err != nil {
		b.Fatal(err)
	}
	if _, err := rails.Get(vf.RailVIO).Set(high.VIO); err != nil {
		b.Fatal(err)
	}
	flow, err := NewFlow(rails, fab, mc, dev, mrc.MustTrain(dram.LPDDR3), nil, DefaultFlowOptions(high.DDR))
	if err != nil {
		b.Fatal(err)
	}
	targets := [2]vf.OperatingPoint{vf.LowPoint(), vf.HighPoint()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Transition(0, targets[i%2], 0); err != nil {
			b.Fatal(err)
		}
	}
}

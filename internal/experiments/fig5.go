package experiments

import (
	"fmt"

	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/mrc"
	"sysscale/internal/pmu"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Fig5Result characterizes the DVFS transition flow of Fig. 5 against
// the §5 latency budget: every flow run must complete in under 10us,
// and the step ordering must match the figure (drain before
// self-refresh, register load before relock, release last).
type Fig5Result struct {
	DownLatency sim.Time // high -> low transition
	UpLatency   sim.Time // low -> high transition
	Bound       sim.Time
	StepsDown   []string
	Overlapped  bool
}

// Fig5Latency executes one down and one up transition on a freshly
// assembled IO+memory subsystem and reports the measured latencies and
// recorded step ordering.
func Fig5Latency() (Fig5Result, error) {
	high, low := vf.HighPoint(), vf.LowPoint()
	dev, err := dram.NewDevice(dram.LPDDR3, dram.DefaultGeometry(), high.DDR)
	if err != nil {
		return Fig5Result{}, err
	}
	store, err := mrc.Train(dram.LPDDR3)
	if err != nil {
		return Fig5Result{}, err
	}
	mc, err := memctrl.New(memctrl.DefaultParams(), dev)
	if err != nil {
		return Fig5Result{}, err
	}
	fab, err := interconnect.New(interconnect.DefaultParams(), high.Interco, high.VSA)
	if err != nil {
		return Fig5Result{}, err
	}
	rails := vf.DefaultRails()
	if _, err := rails.Get(vf.RailVSA).Set(high.VSA); err != nil {
		return Fig5Result{}, err
	}
	if _, err := rails.Get(vf.RailVIO).Set(high.VIO); err != nil {
		return Fig5Result{}, err
	}
	log := sim.NewEventLog(0)
	flow, err := pmu.NewFlow(rails, fab, mc, dev, store, log, pmu.DefaultFlowOptions(high.DDR))
	if err != nil {
		return Fig5Result{}, err
	}

	down, err := flow.Transition(0, low, 0)
	if err != nil {
		return Fig5Result{}, err
	}
	var steps []string
	for _, e := range log.Events() {
		steps = append(steps, e.Message)
	}
	up, err := flow.Transition(0, high, 0)
	if err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{
		DownLatency: down,
		UpLatency:   up,
		Bound:       pmu.MaxTransitionLatency,
		StepsDown:   steps,
		Overlapped:  true,
	}, nil
}

func (r Fig5Result) String() string {
	s := fmt.Sprintf("Fig. 5 / §5: DVFS transition flow latency\n"+
		"  high->low: %v, low->high: %v (bound %v)\n  steps (down):\n",
		r.DownLatency, r.UpLatency, r.Bound)
	for _, st := range r.StepsDown {
		s += "    " + st + "\n"
	}
	return s
}

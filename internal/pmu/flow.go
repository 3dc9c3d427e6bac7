// Package pmu models the power-management unit firmware: the DVFS
// transition flow of Fig. 5 with the latency budget of §5, and the
// power-budget manager (PBM) that converts domain budgets into compute
// P-states (§4.3-4.4).
package pmu

import (
	"fmt"

	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/mrc"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Firmware cost constants (§5). The transition flow and algorithms fit
// in ~0.6KB of Pcode; the MRC images take ~0.5KB of SRAM (enforced in
// internal/mrc).
const (
	FirmwareBytes    = 614                  // ~0.6KB of PMU firmware
	FirmwareLatency  = 800 * sim.Nanosecond // flow bookkeeping (<1us, §5)
	PLLRelockLatency = 600 * sim.Nanosecond // PLL/DLL relock to new frequencies
)

// MaxTransitionLatency is the paper's bound on the whole flow (§5:
// "the actual latency of SysScale flow is less than 10us").
const MaxTransitionLatency = 10 * sim.Microsecond

// FlowOptions tune the transition flow. The defaults reproduce the
// shipped design; the alternatives exist for the ablation studies.
type FlowOptions struct {
	// OptimizedMRC selects per-frequency register images from the SRAM
	// store (the SysScale design). When false, the flow keeps the image
	// trained at boot frequency — the MemScale/CoScale behaviour and
	// the Observation 4 failure mode.
	OptimizedMRC bool
	// BootFreq is the frequency whose image is kept when OptimizedMRC
	// is false.
	BootFreq vf.Hz
	// Overlap applies DVFS steps of independent domains concurrently
	// (the SysScale design: "performing DVFS simultaneously in all
	// domains to overlap the DVFS latencies"). When false, latencies
	// add up serially — the naive flow the ablation quantifies.
	Overlap bool
}

// DefaultFlowOptions returns the shipped configuration.
func DefaultFlowOptions(bootFreq vf.Hz) FlowOptions {
	return FlowOptions{OptimizedMRC: true, BootFreq: bootFreq, Overlap: true}
}

// Flow executes the Fig. 5 power-management flow against the hardware
// models. It owns no state beyond its wiring; each Transition call is
// one complete flow run.
type Flow struct {
	rails  *vf.Rails
	fabric *interconnect.Fabric
	mc     *memctrl.Controller
	dev    *dram.Device
	store  *mrc.Store
	log    *sim.EventLog
	opts   FlowOptions

	transitions int
	totalTime   sim.Time
	maxTime     sim.Time
}

// NewFlow wires a flow instance.
func NewFlow(rails *vf.Rails, fabric *interconnect.Fabric, mc *memctrl.Controller, dev *dram.Device, store *mrc.Store, log *sim.EventLog, opts FlowOptions) (*Flow, error) {
	if rails == nil || fabric == nil || mc == nil || dev == nil || store == nil {
		return nil, fmt.Errorf("pmu: nil flow component")
	}
	return &Flow{rails: rails, fabric: fabric, mc: mc, dev: dev, store: store, log: log, opts: opts}, nil
}

// Reconfigure replaces the flow's options in place, keeping the wiring
// and the cumulative transition statistics. The platform owns one
// persistent Flow for a whole run and retargets it before each
// transition: the MRC mode is a per-decision policy choice (§4.3), but
// the flow hardware — and its stall accounting — is the same unit.
func (f *Flow) Reconfigure(opts FlowOptions) { f.opts = opts }

// Options returns the flow's current options.
func (f *Flow) Options() FlowOptions { return f.opts }

// ResetStats clears the cumulative transition statistics, keeping the
// wiring and options. Platform pooling calls it between runs so a
// recycled flow starts counting from zero like a freshly wired one.
func (f *Flow) ResetStats() {
	f.transitions = 0
	f.totalTime = 0
	f.maxTime = 0
}

// Transitions returns the number of completed flow runs.
func (f *Flow) Transitions() int { return f.transitions }

// TotalTime returns the cumulative stall time spent in flows.
func (f *Flow) TotalTime() sim.Time { return f.totalTime }

// MaxTime returns the longest single flow run.
func (f *Flow) MaxTime() sim.Time { return f.maxTime }

// Transition moves the IO and memory domains from their current
// operating point to target, following Fig. 5:
//
//	1 demand prediction decided the target (caller)
//	2 if increasing frequency: raise voltages first
//	3 block & drain IO interconnect and LLC→MC traffic
//	4 DRAM enters self-refresh
//	5 load optimized MRC values from SRAM
//	6 relock PLLs/DLLs to the new frequencies
//	7 if decreasing frequency: lower voltages after
//	8 DRAM exits self-refresh
//	9 release IO interconnect and LLC→MC traffic
//
// fabricUtil is the IO interconnect's utilization at the moment the
// flow starts: step 3 drains what it holds. It returns the total stall
// time charged to the SoC.
func (f *Flow) Transition(now sim.Time, target vf.OperatingPoint, fabricUtil float64) (sim.Time, error) {
	if err := target.Validate(); err != nil {
		return 0, err
	}
	increasing := target.DDR > f.dev.Frequency()
	// Step messages with arguments are built only when the log records:
	// boxing their arguments would cost allocations on every flow run.
	logOn := f.log.Enabled()
	var total sim.Time

	// Voltage moves for both scaled rails; with the overlapped flow the
	// two regulators slew concurrently, so the cost is the max.
	setVoltages := func() (sim.Time, error) {
		tSA, err := f.rails.Get(vf.RailVSA).Set(target.VSA)
		if err != nil {
			return 0, err
		}
		tIO, err := f.rails.Get(vf.RailVIO).Set(target.VIO)
		if err != nil {
			return 0, err
		}
		if f.opts.Overlap {
			return maxTime(tSA, tIO), nil
		}
		return tSA + tIO, nil
	}

	if increasing {
		d, err := setVoltages()
		if err != nil {
			return 0, err
		}
		total += d
		if logOn {
			f.logf(now, "step2: raised V_SA to %.3fV, V_IO to %.3fV (%v)", target.VSA, target.VIO, d)
		}
	}

	// Step 3: block and drain.
	drain := f.fabric.BlockAndDrain(fabricUtil)
	f.mc.Block()
	total += drain
	if logOn {
		f.logf(now, "step3: blocked+drained IO interconnect and LLC traffic (%v)", drain)
	}

	// Step 4: self-refresh entry.
	f.dev.EnterSelfRefresh()
	f.logf(now, "step4: DRAM entered self-refresh")

	// Step 5: retarget DRAM and load configuration registers.
	if err := f.dev.SetFrequency(target.DDR); err != nil {
		return 0, err
	}
	var loadLat sim.Time
	var err error
	if f.opts.OptimizedMRC {
		loadLat, err = f.store.Load(f.dev, target.DDR)
		if logOn {
			f.logf(now, "step5: loaded optimized MRC image for %v (%v)", target.DDR, loadLat)
		}
	} else {
		loadLat, err = f.store.LoadDetuned(f.dev, f.opts.BootFreq, target.DDR)
		if logOn {
			f.logf(now, "step5: kept boot MRC image (%v) at %v (%v)", f.opts.BootFreq, target.DDR, loadLat)
		}
	}
	if err != nil {
		return 0, err
	}

	// Step 6: PLL/DLL relock; overlapped with the register load in the
	// shipped flow (independent hardware).
	if f.opts.Overlap {
		total += maxTime(loadLat, PLLRelockLatency)
	} else {
		total += loadLat + PLLRelockLatency
	}
	if err := f.mc.SetOperatingPoint(target.MC, target.VSA); err != nil {
		return 0, err
	}
	if err := f.fabric.SetOperatingPoint(target.Interco, target.VSA); err != nil {
		return 0, err
	}
	if logOn {
		f.logf(now, "step6: relocked PLLs/DLLs (MC %v, interconnect %v)", target.MC, target.Interco)
	}

	if !increasing {
		d, err := setVoltages()
		if err != nil {
			return 0, err
		}
		total += d
		if logOn {
			f.logf(now, "step7: reduced V_SA to %.3fV, V_IO to %.3fV (%v)", target.VSA, target.VIO, d)
		}
	}

	// Step 8: self-refresh exit.
	total += f.dev.ExitSelfRefresh()
	f.logf(now, "step8: DRAM exited self-refresh")

	// Step 9: release traffic.
	f.fabric.Release()
	f.mc.Release()
	f.logf(now, "step9: released IO interconnect and LLC traffic")

	total += FirmwareLatency

	f.transitions++
	f.totalTime += total
	if total > f.maxTime {
		f.maxTime = total
	}
	return total, nil
}

// logf records one step message. A call with args sits behind an
// Enabled check (see Transition).
func (f *Flow) logf(at sim.Time, format string, args ...any) {
	f.log.Record(at, "pmu.flow", format, args...)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

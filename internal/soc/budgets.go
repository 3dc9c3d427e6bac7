package soc

import (
	"slices"

	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// The power-budget-management reservation table (Observation 1 / §4.3).
// A domain's reservation at an operating point is the worst-case power
// the domain can draw at that point — every component at full
// utilization — inflated by a guard band. The baseline keeps the IO and
// memory domains reserved at the *highest* point forever; SysScale
// re-reserves per operating point, and the difference is the budget it
// redistributes to the compute domain.

// budgetGuardband is the PBM's margin over modeled worst-case draw
// (regulator tolerance, temperature, aging).
const budgetGuardband = 1.25

// reservationTDPCap bounds the joint IO+memory reservation to a
// fraction of TDP: on severely TDP-constrained parts the PBM cannot
// hand three quarters of the package budget to the uncore domains or
// the cores could not run at all. Reservations above the cap are
// scaled down proportionally (see Platform.clampReservations).
const reservationTDPCap = 0.65

// WorstCaseIOBudget returns the IO-domain reservation at op: the IO
// interconnect plus all IO engines/controllers at full tilt.
func (p *Platform) WorstCaseIOBudget(op vf.OperatingPoint) power.Watt {
	fabric := interconnect.DefaultParams()
	dyn := power.Dynamic(fabric.Cdyn, op.VSA, op.Interco, 1)
	leak := power.Leakage(fabric.LeakAtNom, op.VSA, fabric.NomVolt)
	fabricW := dyn + leak

	// IO engines/controllers (display, ISP, USB, storage, PCIe...)
	// at worst-case streaming.
	engW := power.Dynamic(ioControllersCdyn, op.VSA, op.Interco, 1) +
		power.Leakage(ioControllersLeak, op.VSA, vf.NominalVSA)

	return power.Watt(float64(fabricW+engW) * budgetGuardband)
}

// Reservation is one ladder point's row of the PBM reservation table:
// the worst-case IO and memory budgets at that point.
type Reservation struct {
	IO, Mem power.Watt
}

// fillWorstCase rebuilds the reservation table for the configured
// ladder, reusing its backing array. Both budgets are pure functions
// of a point, so each is computed once per run instead of on every
// policy epoch that consults it.
func (p *Platform) fillWorstCase() {
	p.worst = slices.Grow(p.worst[:0], len(p.cfg.Ladder))
	for _, op := range p.cfg.Ladder {
		p.worst = append(p.worst, Reservation{IO: p.WorstCaseIOBudget(op), Mem: p.WorstCaseMemBudget(op)})
	}
}

// ioControllersCdyn/Leak cover the full IO controller complex (display,
// ISP, USB, storage, PCIe root), which is larger than the display+ISP
// engines the activity model tracks.
const (
	ioControllersCdyn = 0.70e-9
	ioControllersLeak = 0.050
)

// clampReservations applies the TDP-proportional cap to a requested
// IO/memory reservation pair.
func (p *Platform) clampReservations(io, mem power.Watt) (power.Watt, power.Watt) {
	cap := power.Watt(reservationTDPCap * float64(p.cfg.TDP))
	sum := io + mem
	if sum <= cap || sum <= 0 {
		return io, mem
	}
	scale := float64(cap) / float64(sum)
	return power.Watt(float64(io) * scale), power.Watt(float64(mem) * scale)
}

// WorstCaseMemBudget returns the memory-domain reservation at op: the
// memory controller, the DRAM device at the point's peak achievable
// bandwidth, and the DDRIO digital interface, all at full utilization.
// A detuned interface (MemScale-style operation) actually *raises* the
// worst case through termination waste; the reservation accounts for
// the trained interface, which is what the shipped SysScale reserves.
func (p *Platform) WorstCaseMemBudget(op vf.OperatingPoint) power.Watt {
	mcp := memctrl.DefaultParams()
	mcW := power.Dynamic(mcp.Cdyn, op.VSA, op.MC, 1) +
		power.Leakage(mcp.LeakAtNom, op.VSA, mcp.NominalVolt)

	geom := dram.DefaultGeometry()
	peakUsable := geom.PeakBandwidth(op.DDR) * mcp.SchedulingEff
	// Worst-case DRAM draw at this bin: full-rate traffic with trained
	// timing. Build the estimate from the power parameters directly.
	pp := p.dramPow
	bg := pp.BackgroundBase + power.Watt(float64(pp.BackgroundPerHz)*float64(op.DDR)) + pp.RefreshAvg
	array := power.Watt(pp.ArrayEnergyPerByte * peakUsable)
	ioScale := 1.0
	if op.DDR > 0 && op.DDR < pp.ReferenceFreq {
		ioScale = float64(pp.ReferenceFreq) / float64(op.DDR)
	}
	ioW := power.Watt(pp.IOEnergyPerByte * peakUsable * ioScale)
	dramW := bg + array + ioW + pp.TerminationMax + pp.RegisterPower

	ddrioW := p.ddrio.Power(op.VIO, op.DDR, 1)

	return power.Watt(float64(mcW+dramW+ddrioW) * budgetGuardband)
}

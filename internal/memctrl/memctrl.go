// Package memctrl models the memory controller: its clock and voltage
// domain (the MC runs at half the DDR rate and shares the V_SA rail
// with the IO interconnect, §2.1), its request queues, and an analytic
// bandwidth/latency model used by the epoch simulator.
//
// The latency model is the source of the paper's core performance
// trade-off: lowering memory frequency lengthens data bursts, slows the
// controller and the DRAM interface, and grows queueing delay (§2.4,
// "Impact of Memory DVFS on the SoC"). Bandwidth-hungry epochs push
// interface utilization toward 1, where the queueing term explodes —
// that is what makes lbm and cactusADM lose >10% under the static
// MD-DVFS setup of §3 while perlbench barely notices.
package memctrl

import (
	"fmt"
	"math"

	"sysscale/internal/dram"
	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// Params configure the controller model.
type Params struct {
	// SchedulingEff is the fraction of theoretical peak bandwidth a
	// real FR-FCFS scheduler sustains on mixed traffic (bank conflicts,
	// read/write turnarounds, refresh interference).
	SchedulingEff float64
	// PipelineCycles is the controller's internal pipeline depth in MC
	// clocks (queue lookup, scheduling, command serialization).
	PipelineCycles float64
	// QueueCapacity is the read-pending-queue capacity in requests,
	// used to cap the modeled occupancy counter.
	QueueCapacity int
	// LineBytes is the transfer granule (one LLC line).
	LineBytes int

	// Power model coefficients.
	Cdyn        float64 // effective switched capacitance (F)
	LeakAtNom   float64 // leakage current draw (A) at nominal V_SA
	NominalVolt vf.Volt
}

// DefaultParams returns the evaluated platform's controller model.
func DefaultParams() Params {
	return Params{
		SchedulingEff:  0.85,
		PipelineCycles: 8,
		QueueCapacity:  64,
		LineBytes:      64,
		Cdyn:           0.30e-9, // 0.30 nF -> ~0.22W at 0.95V, 0.8GHz, full activity
		LeakAtNom:      0.055,
		NominalVolt:    vf.NominalVSA,
	}
}

// Controller is the memory controller instance.
type Controller struct {
	params Params
	dev    *dram.Device

	freq vf.Hz   // MC clock (DDR/2)
	volt vf.Volt // V_SA

	blocked bool // traffic blocked during a DVFS transition

	// Rolling counters for the last evaluated epoch.
	lastEpoch Epoch
}

// Epoch is the controller's resolved state for one simulation epoch.
type Epoch struct {
	DemandBytes   float64 // bytes/s requested by all agents
	AchievedBytes float64 // bytes/s actually served
	Utilization   float64 // fraction of usable bandwidth consumed
	Latency       float64 // average loaded read latency (s)
	IdleLatency   float64 // unloaded latency at this operating point (s)
	RPQOccupancy  float64 // average read-pending-queue occupancy (requests)
}

// New creates a controller bound to a DRAM device.
func New(params Params, dev *dram.Device) (*Controller, error) {
	if params.SchedulingEff <= 0 || params.SchedulingEff > 1 {
		return nil, fmt.Errorf("memctrl: scheduling efficiency %.3f outside (0,1]", params.SchedulingEff)
	}
	if params.LineBytes <= 0 || params.QueueCapacity <= 0 {
		return nil, fmt.Errorf("memctrl: non-positive queue/line parameter")
	}
	if dev == nil {
		return nil, fmt.Errorf("memctrl: nil DRAM device")
	}
	return &Controller{
		params: params,
		dev:    dev,
		freq:   dev.Frequency() / 2,
		volt:   params.NominalVolt,
	}, nil
}

// Frequency returns the MC clock.
func (c *Controller) Frequency() vf.Hz { return c.freq }

// Voltage returns the controller's rail voltage (V_SA).
func (c *Controller) Voltage() vf.Volt { return c.volt }

// Device returns the attached DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// SetOperatingPoint retargets the controller clock and rail voltage.
// The DRAM device itself is reclocked separately (through its
// self-refresh flow); this call only affects the controller side.
func (c *Controller) SetOperatingPoint(mcClock vf.Hz, v vf.Volt) error {
	if mcClock <= 0 {
		return fmt.Errorf("memctrl: non-positive MC clock")
	}
	if v <= 0 {
		return fmt.Errorf("memctrl: non-positive voltage")
	}
	c.freq = mcClock
	c.volt = v
	return nil
}

// Block stops new traffic (step 3 of the Fig. 5 flow). While blocked,
// Evaluate serves nothing.
func (c *Controller) Block() { c.blocked = true }

// Release resumes traffic (step 9 of the Fig. 5 flow).
func (c *Controller) Release() { c.blocked = false }

// Blocked reports whether traffic is blocked.
func (c *Controller) Blocked() bool { return c.blocked }

// UsableBandwidth returns the bandwidth ceiling at the current
// operating point: peak × scheduler efficiency × trained interface
// efficiency. A detuned MRC image (InterfaceEff < 1) directly lowers
// the ceiling.
func (c *Controller) UsableBandwidth() float64 {
	return c.dev.PeakBandwidth() * c.params.SchedulingEff * c.dev.InterfaceEff()
}

// Terms are the demand-independent inputs of Evaluate at the
// controller's current operating point, DRAM timing image and
// blocking state. They stay valid until the controller or its device
// is reprogrammed, so a caller resolving many demands at one operating
// point (the simulator's per-tick progress-rate fixpoint) computes
// them once and reuses them through Latency and Resolve.
type Terms struct {
	serving  bool    // false while traffic is blocked or the DRAM is not active
	usable   float64 // usable bandwidth ceiling (bytes/s)
	idle     float64 // unloaded latency: pipeline + access + burst (s)
	maxQueue float64 // queueing-delay cap: queue capacity × burst (s)
}

// Terms returns the demand-independent inputs of Evaluate for the
// controller's present state.
func (c *Controller) Terms() Terms {
	// Unloaded latency: controller pipeline + DRAM access + burst.
	pipe := c.params.PipelineCycles / float64(c.freq)
	access := c.dev.AccessLatency()
	burst := c.burstTime()
	return Terms{
		serving:  !c.blocked && c.dev.State() == dram.Active,
		usable:   c.UsableBandwidth(),
		idle:     pipe + access + burst,
		maxQueue: float64(c.params.QueueCapacity) * burst,
	}
}

// Latency returns the loaded read latency Evaluate(demandBytes) would
// report at terms t, without resolving or recording the rest of the
// epoch.
func (t *Terms) Latency(demandBytes float64) float64 {
	if demandBytes < 0 {
		demandBytes = 0
	}
	if !t.serving {
		return math.Inf(1)
	}
	_, _, lat := t.load(demandBytes)
	return lat
}

// load is Evaluate's demand-dependent part for a serving controller:
// the achieved bandwidth, its utilization of the ceiling, and the
// loaded latency for a non-negative demand.
func (t *Terms) load(demandBytes float64) (achieved, util, latency float64) {
	achieved = min(demandBytes, t.usable)
	if t.usable > 0 {
		util = achieved / t.usable
	}

	// Queueing delay. An FR-FCFS controller with deep queues and bank
	// parallelism degrades far more gently than M/M/1 until the
	// interface is nearly saturated; a quartic term calibrated against
	// measured loaded-latency curves captures that: negligible below
	// 50% utilization, ~20% inflation at 80%, ~40% at saturation.
	// Beyond saturation the unserved demand shows up as back-pressure
	// (lost bandwidth) rather than unbounded latency.
	rho := util
	const rhoCap = 0.96
	if rho > rhoCap {
		rho = rhoCap
	}
	queue := t.idle * 0.5 * rho * rho * rho * rho
	if queue > t.maxQueue {
		queue = t.maxQueue
	}
	return achieved, util, t.idle + queue
}

// Evaluate resolves one epoch: given the aggregate bandwidth demand
// (bytes/s) from all agents, it computes achieved bandwidth, loaded
// latency and queue occupancy. Demand beyond the usable ceiling is
// simply not served (the agents stall, which the compute model turns
// into lost performance).
func (c *Controller) Evaluate(demandBytes float64) Epoch {
	t := c.Terms()
	return c.Resolve(&t, demandBytes)
}

// Resolve is Evaluate at terms t, which must be the controller's
// current Terms: it resolves the epoch for demandBytes and records it
// as the last evaluated one.
func (c *Controller) Resolve(t *Terms, demandBytes float64) Epoch {
	if demandBytes < 0 {
		demandBytes = 0
	}
	ep := Epoch{DemandBytes: demandBytes}
	if !t.serving {
		// No service; demand stalls entirely.
		ep.Latency = math.Inf(1)
		c.lastEpoch = ep
		return ep
	}
	ep.IdleLatency = t.idle
	ep.AchievedBytes, ep.Utilization, ep.Latency = t.load(demandBytes)

	// Little's law for the RPQ occupancy counter: requests in flight =
	// arrival rate × residence time.
	reqRate := ep.AchievedBytes / float64(c.params.LineBytes)
	occ := reqRate * ep.Latency
	if occ > float64(c.params.QueueCapacity) {
		occ = float64(c.params.QueueCapacity)
	}
	ep.RPQOccupancy = occ

	c.lastEpoch = ep
	return ep
}

// burstTime returns the time one cache-line burst occupies the
// interface at the current DRAM frequency.
func (c *Controller) burstTime() float64 {
	perChan := c.dev.PeakBandwidth() / float64(c.dev.Geometry().Channels)
	if perChan <= 0 {
		return 0
	}
	return float64(c.params.LineBytes) / perChan
}

// LastEpoch returns the most recently evaluated epoch.
func (c *Controller) LastEpoch() Epoch { return c.lastEpoch }

// RestoreEpoch reinstates ep as the rolling last-evaluated state, as
// if Evaluate had just resolved it. Used by the simulator's
// steady-state tick memo so that skipping Evaluate on a repeated tick
// leaves the controller's observable state identical to evaluating it.
func (c *Controller) RestoreEpoch(ep Epoch) { c.lastEpoch = ep }

// Power returns the controller's draw for an epoch with the given
// utilization. Dynamic power scales as V²f with activity following
// utilization (plus a scheduling floor); leakage scales with voltage —
// together the "approximately cubic" reduction of §2.4 when frequency
// and voltage drop jointly.
func (c *Controller) Power(utilization float64) power.Watt {
	activity := 0.18 + 0.82*clamp01(utilization)
	dyn := power.Dynamic(c.params.Cdyn, c.volt, c.freq, activity)
	leak := power.Leakage(c.params.LeakAtNom, c.volt, c.params.NominalVolt)
	return dyn + leak
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

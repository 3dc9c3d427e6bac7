// Package interconnect models the IO interconnect: the fabric linking
// the IO engines/controllers to the memory subsystem (Fig. 1). It runs
// on its own clock but shares the V_SA rail with the memory controller,
// which is why the paper aligns its clock with the MC's voltage level
// when scaling (§3), and it implements the block-and-drain protocol the
// DVFS transition flow depends on (§5, capability 1).
package interconnect

import (
	"fmt"
	"math"

	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// QoSClass labels traffic by its service requirement (§1: some IO
// components have strict latency QoS — isochronous traffic — and some
// have bandwidth QoS, like the display).
type QoSClass int

// Traffic classes.
const (
	BestEffort  QoSClass = iota
	Isochronous          // latency-critical (audio, camera sensor strobes)
	Bandwidth            // bandwidth-guaranteed (display refresh)
)

func (q QoSClass) String() string {
	switch q {
	case BestEffort:
		return "best-effort"
	case Isochronous:
		return "isochronous"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("QoSClass(%d)", int(q))
	}
}

// Params configure the fabric model.
type Params struct {
	// BytesPerCycle is the fabric's width: bytes moved per clock.
	BytesPerCycle float64
	// BufferEntries is the request-buffer depth (drained on block).
	BufferEntries int
	// DrainLatencyMax bounds the drain time (§5: "less than 1us").
	DrainLatencyMax sim.Time

	// Power coefficients (fabric shares V_SA).
	Cdyn      float64
	LeakAtNom float64
	NomVolt   vf.Volt
}

// DefaultParams returns the evaluated platform's fabric.
func DefaultParams() Params {
	return Params{
		BytesPerCycle:   32, // 32B/clk at 0.8GHz -> 25.6GB/s fabric ceiling
		BufferEntries:   48,
		DrainLatencyMax: 900 * sim.Nanosecond,
		Cdyn:            0.22e-9,
		LeakAtNom:       0.040,
		NomVolt:         vf.NominalVSA,
	}
}

// Epoch is the fabric's resolved state for one epoch.
type Epoch struct {
	DemandBytes   float64 // bytes/s offered by IO agents
	AchievedBytes float64
	Utilization   float64
	Latency       float64 // average fabric traversal latency (s)
	RPQOccupancy  float64 // IO read-pending-queue occupancy (the IO_RPQ counter)
}

// Fabric is the IO interconnect instance.
type Fabric struct {
	params  Params
	freq    vf.Hz
	volt    vf.Volt
	blocked bool
	last    Epoch
}

// New constructs a fabric at the given clock and voltage.
func New(params Params, freq vf.Hz, volt vf.Volt) (*Fabric, error) {
	if params.BytesPerCycle <= 0 || params.BufferEntries <= 0 {
		return nil, fmt.Errorf("interconnect: non-positive fabric parameter")
	}
	if freq <= 0 || volt <= 0 {
		return nil, fmt.Errorf("interconnect: non-positive clock or voltage")
	}
	return &Fabric{params: params, freq: freq, volt: volt}, nil
}

// Frequency returns the fabric clock.
func (f *Fabric) Frequency() vf.Hz { return f.freq }

// Voltage returns the fabric rail voltage (V_SA).
func (f *Fabric) Voltage() vf.Volt { return f.volt }

// SetOperatingPoint retargets clock and voltage.
func (f *Fabric) SetOperatingPoint(clock vf.Hz, v vf.Volt) error {
	if clock <= 0 || v <= 0 {
		return fmt.Errorf("interconnect: non-positive operating point")
	}
	f.freq = clock
	f.volt = v
	return nil
}

// Capacity returns the fabric bandwidth ceiling at the current clock.
func (f *Fabric) Capacity() float64 { return f.params.BytesPerCycle * float64(f.freq) }

// BlockAndDrain stops admission of new requests and completes all
// outstanding ones (step 3 of the Fig. 5 flow). The returned drain
// latency scales with how full the buffers were (last epoch's
// utilization) and is bounded by the parameterized maximum.
func (f *Fabric) BlockAndDrain() sim.Time {
	f.blocked = true
	frac := f.last.Utilization
	if frac < 0.1 {
		frac = 0.1 // draining an idle fabric still costs a handshake
	}
	if frac > 1 {
		frac = 1
	}
	return sim.Time(float64(f.params.DrainLatencyMax) * frac)
}

// Release resumes request admission (step 9 of the Fig. 5 flow).
func (f *Fabric) Release() { f.blocked = false }

// Blocked reports whether the fabric is blocked.
func (f *Fabric) Blocked() bool { return f.blocked }

// Terms are the demand-independent inputs of Evaluate at the fabric's
// current clock and blocking state. They stay valid until the fabric
// is reprogrammed, so a caller resolving several demands at one
// operating point computes them once and reuses them through Resolve.
type Terms struct {
	serving  bool    // false while admission is blocked
	capacity float64 // bandwidth ceiling (bytes/s)
	base     float64 // unloaded traversal latency (s)
}

// Terms returns the demand-independent inputs of Evaluate for the
// fabric's present state.
func (f *Fabric) Terms() Terms {
	return Terms{
		serving:  !f.blocked,
		capacity: f.Capacity(),
		// Traversal latency: a few fabric clocks, inflated by contention.
		base: 12 / float64(f.freq),
	}
}

// Evaluate resolves one epoch of IO traffic.
func (f *Fabric) Evaluate(demandBytes float64) Epoch {
	t := f.Terms()
	return f.Resolve(&t, demandBytes)
}

// Resolve is Evaluate at terms t, which must be the fabric's current
// Terms: it resolves the epoch for demandBytes and records it as the
// last evaluated one.
func (f *Fabric) Resolve(t *Terms, demandBytes float64) Epoch {
	if demandBytes < 0 {
		demandBytes = 0
	}
	ep := Epoch{DemandBytes: demandBytes}
	if !t.serving {
		ep.Latency = math.Inf(1)
		f.last = ep
		return ep
	}
	ep.AchievedBytes = min(demandBytes, t.capacity)
	if t.capacity > 0 {
		ep.Utilization = ep.AchievedBytes / t.capacity
	}
	rho := ep.Utilization
	const rhoCap = 0.95
	if rho > rhoCap {
		rho = rhoCap
	}
	ep.Latency = t.base * (1 + rho/(1-rho))
	// IO_RPQ occupancy by Little's law over 64B granules.
	reqRate := ep.AchievedBytes / 64
	occ := reqRate * ep.Latency
	if occ > float64(f.params.BufferEntries) {
		occ = float64(f.params.BufferEntries)
	}
	ep.RPQOccupancy = occ
	f.last = ep
	return ep
}

// LastEpoch returns the most recently evaluated epoch.
func (f *Fabric) LastEpoch() Epoch { return f.last }

// RestoreEpoch reinstates ep as the rolling last-evaluated state, as
// if Evaluate had just resolved it. The simulator's steady-state tick
// memo serves repeated ticks without re-running Evaluate; the rolling
// epoch feeds the drain latency of the next DVFS transition
// (BlockAndDrain), so a memoized tick must leave it exactly as a
// per-tick evaluation would.
func (f *Fabric) RestoreEpoch(ep Epoch) { f.last = ep }

// Power returns the fabric draw at the epoch's utilization.
func (f *Fabric) Power(utilization float64) power.Watt {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	activity := 0.12 + 0.88*utilization
	dyn := power.Dynamic(f.params.Cdyn, f.volt, f.freq, activity)
	leak := power.Leakage(f.params.LeakAtNom, f.volt, f.params.NomVolt)
	return dyn + leak
}

// Package cache models the last-level cache (LLC) shared by the CPU
// cores and graphics engines (Table 2: 4MB). At epoch granularity the
// LLC's job in this simulator is threefold: translate agent traffic
// into DRAM demand, maintain the counters SysScale's predictor samples
// (LLC_STALLS, LLC_Occupancy_Tracer, GFX_LLC_MISSES — §4.2), and
// contribute its share of compute-rail power.
package cache

import (
	"fmt"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// Params configure the LLC model.
type Params struct {
	CapacityBytes int
	Ways          int
	LineBytes     int

	// Power coefficients (LLC shares the core rail).
	Cdyn      float64
	LeakAtNom float64
	NomVolt   vf.Volt
}

// DefaultParams returns the evaluated platform's LLC (Table 2: 4MB).
func DefaultParams() Params {
	return Params{
		CapacityBytes: 4 << 20,
		Ways:          16,
		LineBytes:     64,
		Cdyn:          0.12e-9,
		LeakAtNom:     0.060,
		NomVolt:       0.65,
	}
}

// Traffic is the per-epoch LLC activity presented by the agents.
type Traffic struct {
	CoreMissBytes float64 // bytes/s of core-side misses (DRAM demand)
	GfxMissBytes  float64 // bytes/s of graphics-side misses
	CoreHitBytes  float64 // bytes/s served by the LLC (for activity/power)
	// LatStallFrac is the fraction of agent time actually spent stalled
	// on LLC-miss round trips during the epoch (serialized, dependent
	// misses — the quantity a cycle counter gated on "waiting for a
	// busy LLC" measures on real hardware).
	LatStallFrac float64
}

// Epoch is the LLC's resolved state for one epoch.
type Epoch struct {
	// DemandBytes is the total DRAM bandwidth demand emitted downstream.
	DemandBytes float64
	// GfxMisses is the GFX_LLC_MISSES counter rate (misses/s).
	GfxMisses float64
	// Stalls is the LLC_STALLS counter: the percentage of cycles the
	// CPU agents spent stalled waiting on a busy LLC — the paper's
	// memory-latency-bound indicator. It grows with loaded memory
	// latency because each dependent miss stalls for the full round
	// trip.
	Stalls float64
	// OccupancyTracer is the LLC_Occupancy_Tracer counter value: the
	// average number of CPU requests waiting for data to return from
	// the memory controller (a bandwidth-boundedness indicator).
	OccupancyTracer float64
}

// LLC is the last-level cache model.
type LLC struct {
	params Params
}

// New constructs an LLC.
func New(params Params) (*LLC, error) {
	if params.CapacityBytes <= 0 || params.LineBytes <= 0 || params.Ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive LLC geometry")
	}
	return &LLC{params: params}, nil
}

// Params returns the configuration.
func (l *LLC) Params() Params { return l.params }

// Evaluate resolves one epoch. memLatency is the loaded DRAM latency
// (seconds) reported by the memory controller for the epoch; it drives
// the stall and occupancy counters via Little's law: requests
// outstanding = miss rate × latency.
func (l *LLC) Evaluate(t Traffic, memLatency float64) Epoch {
	ep := Epoch{DemandBytes: t.CoreMissBytes + t.GfxMissBytes}
	line := float64(l.params.LineBytes)
	coreMissRate := t.CoreMissBytes / line
	gfxMissRate := t.GfxMissBytes / line
	ep.GfxMisses = gfxMissRate

	if memLatency > 0 && !isInf(memLatency) {
		ep.OccupancyTracer = coreMissRate * memLatency
	}
	stall := t.LatStallFrac
	if stall < 0 {
		stall = 0
	}
	if stall > 1 {
		stall = 1
	}
	ep.Stalls = 100 * stall
	return ep
}

// Power returns the LLC draw given the core-rail voltage and clock and
// the epoch's hit+miss activity (bytes/s through the cache).
func (l *LLC) Power(v vf.Volt, f vf.Hz, throughBytes float64) power.Watt {
	// Activity follows throughput; 40GB/s through a 4MB LLC is high.
	activity := throughBytes / 40e9
	if activity > 1 {
		activity = 1
	}
	dyn := power.Dynamic(l.params.Cdyn, v, f, activity)
	leak := power.Leakage(l.params.LeakAtNom, v, l.params.NomVolt)
	return dyn + leak
}

func isInf(x float64) bool { return x > 1e300 }

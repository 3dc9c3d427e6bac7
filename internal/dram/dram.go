// Package dram models the main-memory device of the SoC: its geometry,
// frequency bins, JEDEC-style timing parameters, power components
// (background, operation, termination — §2.3 of the paper), refresh,
// and the self-refresh state machine used by the DVFS transition flow.
//
// Commodity DRAM supports only a few discrete frequency bins (footnote
// 4: LPDDR3 supports 1.6, 1.06 and 0.8 GHz) and its array voltage
// (VDDQ) cannot be scaled (§2.4), both of which the model enforces.
package dram

import (
	"fmt"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Kind identifies a DRAM technology.
type Kind int

// Supported technologies.
const (
	LPDDR3 Kind = iota
	DDR4
)

func (k Kind) String() string {
	switch k {
	case LPDDR3:
		return "LPDDR3"
	case DDR4:
		return "DDR4"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bins returns the discrete transfer-rate bins the technology supports,
// highest first.
func (k Kind) Bins() []vf.Hz {
	switch k {
	case LPDDR3:
		// 2.13GHz is the LPDDR3E extension bin used by the paper's
		// third Fig. 6 frequency pair (2.13GHz -> 1.06GHz).
		return []vf.Hz{2.13 * vf.GHz, 1.6 * vf.GHz, 1.06 * vf.GHz, 0.8 * vf.GHz}
	case DDR4:
		return []vf.Hz{2.13 * vf.GHz, 1.86 * vf.GHz, 1.33 * vf.GHz}
	default:
		return nil
	}
}

// SupportsBin reports whether f is one of the technology's bins.
func (k Kind) SupportsBin(f vf.Hz) bool {
	for _, b := range k.Bins() {
		if b == f {
			return true
		}
	}
	return false
}

// Geometry describes the module configuration (Table 2: dual-channel,
// 8GB, non-ECC).
type Geometry struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	CapacityGB   int
	BusWidthBits int // per channel
	BurstLength  int
	ECC          bool
}

// DefaultGeometry returns the evaluated platform's module (Table 2).
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:     2,
		RanksPerChan: 1,
		BanksPerRank: 8,
		CapacityGB:   8,
		BusWidthBits: 64,
		BurstLength:  8,
		ECC:          false,
	}
}

// Validate checks the geometry for plausibility.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.RanksPerChan <= 0 || g.BanksPerRank <= 0 {
		return fmt.Errorf("dram: non-positive geometry field: %+v", g)
	}
	if g.CapacityGB <= 0 || g.BusWidthBits <= 0 || g.BurstLength <= 0 {
		return fmt.Errorf("dram: non-positive geometry field: %+v", g)
	}
	return nil
}

// PeakBandwidth returns the theoretical peak transfer bandwidth in
// bytes/second at transfer rate f: channels × width × rate. For the
// default dual-channel 64-bit module at DDR 1.6GHz this is 25.6 GB/s,
// the figure the paper uses in §3 (Fig. 3b).
func (g Geometry) PeakBandwidth(f vf.Hz) float64 {
	bytesPerTransfer := float64(g.BusWidthBits) / 8
	return float64(g.Channels) * bytesPerTransfer * float64(f)
}

// State is the DRAM power state.
type State int

// DRAM power states. Active covers normal operation (banks may be open
// or precharged — the epoch model does not track individual banks'
// open rows); SelfRefresh is the retention-only state entered during
// DVFS transitions and deep package C-states.
const (
	Active State = iota
	PowerDown
	SelfRefresh
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case PowerDown:
		return "power-down"
	case SelfRefresh:
		return "self-refresh"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Device is one DRAM subsystem instance (all channels).
type Device struct {
	kind  Kind
	geom  Geometry
	freq  vf.Hz
	state State

	timing Timing // active timing set (loaded from configuration registers)
}

// NewDevice creates a device at the given transfer-rate bin.
func NewDevice(kind Kind, geom Geometry, freq vf.Hz) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if !kind.SupportsBin(freq) {
		return nil, fmt.Errorf("dram: %v does not support bin %v", kind, freq)
	}
	d := &Device{kind: kind, geom: geom, freq: freq, state: Active}
	d.timing = OptimalTiming(kind, freq)
	return d, nil
}

// Reset returns the device to the state NewDevice would build at the
// given bin: active, with the optimal timing for the bin. Platform
// pooling uses it to recycle a device across runs without
// reallocating.
func (d *Device) Reset(freq vf.Hz) error {
	if !d.kind.SupportsBin(freq) {
		return fmt.Errorf("dram: %v does not support bin %v", d.kind, freq)
	}
	d.freq = freq
	d.state = Active
	d.timing = OptimalTiming(d.kind, freq)
	return nil
}

// Kind returns the DRAM technology.
func (d *Device) Kind() Kind { return d.kind }

// Geometry returns the module configuration.
func (d *Device) Geometry() Geometry { return d.geom }

// Frequency returns the current transfer rate.
func (d *Device) Frequency() vf.Hz { return d.freq }

// State returns the present power state.
func (d *Device) State() State { return d.state }

// Timing returns the active timing set.
func (d *Device) Timing() Timing { return d.timing }

// AccessLatency returns the active timing set's RandomAccessLatency at
// the device's current bin, read in place rather than through a copy
// of the set.
func (d *Device) AccessLatency() float64 { return d.timing.RandomAccessLatency(d.freq) }

// InterfaceEff returns the active timing set's interface efficiency.
func (d *Device) InterfaceEff() float64 { return d.timing.InterfaceEff }

// PeakBandwidth returns the device's peak bandwidth at its current bin.
func (d *Device) PeakBandwidth() float64 { return d.geom.PeakBandwidth(d.freq) }

// EnterSelfRefresh puts the device into self-refresh. Frequency changes
// are only legal in self-refresh (step 4 of the Fig. 5 flow).
func (d *Device) EnterSelfRefresh() {
	d.state = SelfRefresh
}

// ExitSelfRefresh returns the device to the active state and returns
// the exit latency (<5us with a fast relock/training process, §5).
func (d *Device) ExitSelfRefresh() sim.Time {
	if d.state != SelfRefresh {
		return 0
	}
	d.state = Active
	return SelfRefreshExitLatency
}

// SetFrequency retargets the device to a new bin. The device must be in
// self-refresh: changing the interface clock while the DLLs are live
// would corrupt transfers, which is why the Fig. 5 flow drains traffic
// and enters self-refresh first. The caller must subsequently load a
// timing set for the new frequency (LoadTiming) before exiting
// self-refresh.
func (d *Device) SetFrequency(f vf.Hz) error {
	if d.state != SelfRefresh {
		return fmt.Errorf("dram: frequency change outside self-refresh (state %v)", d.state)
	}
	if !d.kind.SupportsBin(f) {
		return fmt.Errorf("dram: %v does not support bin %v", d.kind, f)
	}
	d.freq = f
	return nil
}

// LoadTiming programs a timing set into the device's configuration
// registers (step 5 of Fig. 5). The set's frequency tag must match the
// device's current bin; loading a mismatched (unoptimized) set is legal
// — it is exactly the failure mode of Observation 4 — but the set must
// at least be electrically valid for operation at the current bin.
func (d *Device) LoadTiming(t Timing) error {
	if err := t.Validate(); err != nil {
		return err
	}
	d.timing = t
	return nil
}

// SelfRefreshExitLatency is the worst-case self-refresh exit latency
// with fast relock training (§5: "less than 5us").
const SelfRefreshExitLatency = 4 * sim.Microsecond

package vf

import (
	"fmt"

	"sysscale/internal/sim"
)

// RailID identifies one voltage rail of the SoC. The topology follows
// Fig. 1 of the paper: the IO engines/controllers, IO interconnect and
// memory controller share V_SA; DRAM and the DDRIO analog front end
// share VDDQ; DDRIO digital shares V_IO with the IO interfaces; the
// compute domain has separate core and graphics rails.
type RailID int

// The five rails of the modeled SoC.
const (
	RailVSA   RailID = iota // system agent: MC + IO interconnect + IO controllers
	RailVIO                 // DDRIO digital + IO interfaces
	RailVDDQ                // DRAM device + DDRIO analog (not scalable on commodity DRAM)
	RailVCore               // CPU cores + LLC
	RailVGfx                // graphics engines
	railCount
)

// NumRails is the number of modeled rails.
const NumRails = int(railCount)

var railNames = [...]string{"V_SA", "V_IO", "VDDQ", "V_CORE", "V_GFX"}

func (r RailID) String() string {
	if r < 0 || int(r) >= len(railNames) {
		return fmt.Sprintf("RailID(%d)", int(r))
	}
	return railNames[r]
}

// Regulator models one voltage regulator: its current setting and the
// slew-rate limit that determines transition latency. The paper uses a
// 50mV/us slew rate, so a ±100mV swing takes about 2us (§5).
type Regulator struct {
	id       RailID
	voltage  Volt
	slewRate Volt // volts per microsecond
	min, max Volt
	scalable bool // VDDQ is not scalable on commodity DRAM (§2.4)
}

// NewRegulator constructs a regulator with the given initial setting
// and limits. slewRate is in volts per microsecond.
func NewRegulator(id RailID, initial Volt, slewRate Volt, min, max Volt, scalable bool) (*Regulator, error) {
	if initial < min || initial > max {
		return nil, fmt.Errorf("vf: %v initial voltage %.3f outside [%.3f, %.3f]", id, initial, min, max)
	}
	if slewRate <= 0 {
		return nil, fmt.Errorf("vf: %v non-positive slew rate", id)
	}
	return &Regulator{id: id, voltage: initial, slewRate: slewRate, min: min, max: max, scalable: scalable}, nil
}

// ID returns the rail this regulator drives.
func (r *Regulator) ID() RailID { return r.id }

// Voltage returns the current output voltage.
func (r *Regulator) Voltage() Volt { return r.voltage }

// Scalable reports whether the rail supports DVFS.
func (r *Regulator) Scalable() bool { return r.scalable }

// TransitionTime returns the time needed to slew from the current
// voltage to target, given the regulator's slew rate.
func (r *Regulator) TransitionTime(target Volt) sim.Time {
	delta := target - r.voltage
	if delta < 0 {
		delta = -delta
	}
	us := float64(delta) / float64(r.slewRate)
	return sim.Time(us * float64(sim.Microsecond))
}

// Set programs the regulator to target and returns the transition time.
// Setting a non-scalable rail to a different voltage is an error.
func (r *Regulator) Set(target Volt) (sim.Time, error) {
	if target < r.min || target > r.max {
		return 0, fmt.Errorf("vf: %v target %.3fV outside [%.3f, %.3f]", r.id, target, r.min, r.max)
	}
	if !r.scalable && target != r.voltage {
		return 0, fmt.Errorf("vf: rail %v is not scalable", r.id)
	}
	t := r.TransitionTime(target)
	r.voltage = target
	return t, nil
}

// Rails is the set of regulators of one SoC instance.
type Rails struct {
	regs [NumRails]*Regulator
}

// NewRails assembles a rail set. All five rails must be provided.
func NewRails(regs ...*Regulator) (*Rails, error) {
	rs := &Rails{}
	for _, r := range regs {
		if r == nil {
			return nil, fmt.Errorf("vf: nil regulator")
		}
		if rs.regs[r.id] != nil {
			return nil, fmt.Errorf("vf: duplicate regulator for %v", r.id)
		}
		rs.regs[r.id] = r
	}
	for i, r := range rs.regs {
		if r == nil {
			return nil, fmt.Errorf("vf: missing regulator for %v", RailID(i))
		}
	}
	return rs, nil
}

// Get returns the regulator for a rail.
func (rs *Rails) Get(id RailID) *Regulator { return rs.regs[id] }

// Voltage returns the present voltage on a rail.
func (rs *Rails) Voltage(id RailID) Volt { return rs.regs[id].Voltage() }

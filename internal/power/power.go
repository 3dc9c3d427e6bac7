// Package power provides the power and energy accounting used across
// the simulator: CV²f dynamic-power helpers, leakage, per-rail energy
// meters, TDP budget bookkeeping, and efficiency metrics (EDP).
//
// The component power models themselves live with their components
// (DRAM power in internal/dram, controller power in internal/memctrl,
// and so on); this package supplies the shared arithmetic and the
// measurement plumbing that stands in for the paper's NI-DAQ rig (§6).
package power

import (
	"fmt"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Watt is a power in watts.
type Watt float64

// Joule is an energy in joules.
type Joule float64

// Dynamic returns switching power Cdyn·V²·f·activity, with Cdyn the
// effective switched capacitance in farads, V in volts, f in hertz and
// activity in [0,1].
func Dynamic(cdyn float64, v vf.Volt, f vf.Hz, activity float64) Watt {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	return Watt(cdyn * float64(v) * float64(v) * float64(f) * activity)
}

// Leakage returns a first-order leakage estimate: Ileak·V scaled
// super-linearly with voltage (leakage grows faster than linear in V;
// an exponent of 2 is a common architectural approximation).
func Leakage(ileakAtNominal float64, v, vNominal vf.Volt) Watt {
	if vNominal <= 0 {
		return 0
	}
	ratio := float64(v / vNominal)
	return Watt(ileakAtNominal * float64(vNominal) * ratio * ratio)
}

// EDP returns the energy-delay product for an energy and a delay.
// Lower is better (§2.4, footnote 2).
func EDP(e Joule, delay sim.Time) float64 {
	return float64(e) * delay.Seconds()
}

// Meter integrates power over simulated time on one rail, mirroring
// one differential channel of the paper's NI-DAQ card.
type Meter struct {
	name    string
	energy  Joule
	elapsed sim.Time
}

// NewMeter returns a meter with the given channel name.
func NewMeter(name string) *Meter { return &Meter{name: name} }

// Name returns the channel name.
func (m *Meter) Name() string { return m.name }

// Accumulate records that the rail drew p watts for duration d. It is
// AccumulateN with n = 1 — delegating keeps the single-tick and batch
// paths identical by construction, which the simulator's span-off
// bit-identity contract depends on.
func (m *Meter) Accumulate(p Watt, d sim.Time) { m.AccumulateN(p, d, 1) }

// AccumulateN records that the rail drew p watts for n consecutive
// intervals of duration d each — the batch form of Accumulate used by
// the span-batched simulation core. The energy integral is computed in
// closed form (p × n·d) instead of n repeated additions.
// AccumulateN(p, d, 1) is arithmetically identical to Accumulate(p, d).
func (m *Meter) AccumulateN(p Watt, d sim.Time, n int) {
	if d < 0 {
		panic("power: negative accumulation interval")
	}
	if n <= 0 {
		return
	}
	total := sim.Time(n) * d
	m.energy += Joule(float64(p) * total.Seconds())
	m.elapsed += total
}

// Energy returns the total integrated energy.
func (m *Meter) Energy() Joule { return m.energy }

// Elapsed returns the total integration time.
func (m *Meter) Elapsed() sim.Time { return m.elapsed }

// Average returns the mean power over the integration window.
func (m *Meter) Average() Watt {
	if m.elapsed == 0 {
		return 0
	}
	return Watt(float64(m.energy) / m.elapsed.Seconds())
}

// Reset clears the meter.
func (m *Meter) Reset() { *m = Meter{name: m.name} }

func (m *Meter) String() string {
	return fmt.Sprintf("%s: avg %.3fW over %v", m.name, m.Average(), m.elapsed)
}

// MeterBank groups one meter per SoC rail plus a package-level total,
// matching the up-to-8-channel measurement setup of §6.
type MeterBank struct {
	rails [vf.NumRails]*Meter
	total *Meter
}

// NewMeterBank builds a bank with a meter per rail.
func NewMeterBank() *MeterBank {
	b := &MeterBank{total: NewMeter("PKG")}
	for i := range b.rails {
		b.rails[i] = NewMeter(vf.RailID(i).String())
	}
	return b
}

// Rail returns the meter for one rail.
func (b *MeterBank) Rail(id vf.RailID) *Meter { return b.rails[id] }

// Total returns the package meter.
func (b *MeterBank) Total() *Meter { return b.total }

// Accumulate records a tick's per-rail power draws for duration d and
// adds their sum to the package meter. It is AccumulateN with n = 1.
func (b *MeterBank) Accumulate(perRail [vf.NumRails]Watt, d sim.Time) {
	b.AccumulateN(perRail, d, 1)
}

// AccumulateN records that each rail drew its perRail power for n
// consecutive intervals of duration d — the batch form of Accumulate.
// The per-rail and package integrals are closed-form, so a span of n
// identical ticks costs one update instead of n.
func (b *MeterBank) AccumulateN(perRail [vf.NumRails]Watt, d sim.Time, n int) {
	var sum Watt
	for i, p := range perRail {
		b.rails[i].AccumulateN(p, d, n)
		sum += p
	}
	b.total.AccumulateN(sum, d, n)
}

// Reset clears every meter in the bank.
func (b *MeterBank) Reset() {
	for _, m := range b.rails {
		m.Reset()
	}
	b.total.Reset()
}

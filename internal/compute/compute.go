// Package compute models the compute domain: CPU cores (with P-states,
// C-states and hardware duty cycling) and the graphics engines. The
// domain has two rails (core+LLC, graphics; §2.1) and its own DVFS
// mechanisms — P-states driven by the OS/driver and arbitrated by the
// PMU's power-budget manager (§4.4). SysScale never drives compute
// clocks directly; it only resizes the domain's power budget, and the
// budget manager converts headroom into frequency via the V/F curve.
package compute

import (
	"fmt"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// CState is a package idle state (§7.3). Battery-life workloads spend
// 60-90% of their time in package idle states; DRAM stays active in C0
// and C2 but is in self-refresh from C6/C8 downward, which bounds where
// SysScale's memory DVFS can help.
type CState int

// Modeled package C-states.
const (
	C0 CState = iota // active
	C2               // shallow idle: clocks gated, DRAM active
	C6               // deep idle: power gated, DRAM self-refresh
	C8               // deepest: additional rails off, DRAM self-refresh
)

func (c CState) String() string {
	switch c {
	case C0:
		return "C0"
	case C2:
		return "C2"
	case C6:
		return "C6"
	case C8:
		return "C8"
	default:
		return fmt.Sprintf("CState(%d)", int(c))
	}
}

// DRAMActive reports whether DRAM is out of self-refresh in this state
// (§7.3: DRAM is active only in C0 and C2).
func (c CState) DRAMActive() bool { return c == C0 || c == C2 }

// Residency is a package C-state residency mix for an epoch. Fractions
// must sum to 1.
type Residency struct {
	C0, C2, C6, C8 float64
}

// Validate checks that the mix is a distribution.
func (r Residency) Validate() error {
	sum := r.C0 + r.C2 + r.C6 + r.C8
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("compute: residency sums to %.4f, want 1", sum)
	}
	for _, v := range []float64{r.C0, r.C2, r.C6, r.C8} {
		if v < -1e-9 {
			return fmt.Errorf("compute: negative residency fraction")
		}
	}
	return nil
}

// ActiveFrac returns the C0 fraction.
func (r Residency) ActiveFrac() float64 { return r.C0 }

// DRAMActiveFrac returns the fraction of the epoch with DRAM active.
func (r Residency) DRAMActiveFrac() float64 { return r.C0 + r.C2 }

// FullyActive is the residency of throughput workloads (SPEC, 3DMark).
func FullyActive() Residency { return Residency{C0: 1} }

// CoreParams configure the CPU core cluster model.
type CoreParams struct {
	Cores          int
	ThreadsPerCore int
	BaseFreq       vf.Hz // guaranteed base frequency (Table 2: 1.2GHz)
	Curve          *vf.Curve

	CdynPerCore float64 // effective capacitance per active core
	LeakAtNom   float64
	NomVolt     vf.Volt

	// Idle-state draws for the whole cluster.
	C2Power power.Watt
	C6Power power.Watt
	C8Power power.Watt
}

// DefaultCoreParams returns the 2-core/4-thread Skylake-M cluster of
// Table 2.
func DefaultCoreParams() CoreParams {
	return CoreParams{
		Cores:          2,
		ThreadsPerCore: 2,
		BaseFreq:       1.2 * vf.GHz,
		Curve:          vf.CoreCurve(),
		CdynPerCore:    1.05e-9, // ~0.53W/core at 0.65V, 1.2GHz full activity
		LeakAtNom:      0.110,
		NomVolt:        0.65,
		C2Power:        0.085,
		C6Power:        0.020,
		C8Power:        0.006,
	}
}

// Cores is the CPU core cluster.
type Cores struct {
	params CoreParams
	freq   vf.Hz
	volt   vf.Volt
	// dutyCycle < 1 models hardware duty cycling (HDC, §7.2 footnote
	// 10): at very low TDP the effective core frequency is reduced
	// below Pn by duty-cycling with C-states.
	dutyCycle float64
}

// NewCores builds the cluster at its base frequency.
func NewCores(p CoreParams) (*Cores, error) {
	if p.Cores <= 0 || p.ThreadsPerCore <= 0 {
		return nil, fmt.Errorf("compute: non-positive core count")
	}
	if p.Curve == nil {
		return nil, fmt.Errorf("compute: nil core V/F curve")
	}
	if p.BaseFreq <= 0 {
		return nil, fmt.Errorf("compute: non-positive base frequency")
	}
	c := &Cores{params: p, dutyCycle: 1}
	c.setFreq(p.BaseFreq)
	return c, nil
}

func (c *Cores) setFreq(f vf.Hz) {
	c.freq = f
	c.volt = c.params.Curve.VoltageAt(f)
}

// Reset returns the cluster to the state NewCores builds: base
// frequency, full duty cycle. Platform pooling uses it to recycle the
// cluster across runs.
func (c *Cores) Reset() {
	c.dutyCycle = 1
	c.setFreq(c.params.BaseFreq)
}

// Params returns the configuration.
func (c *Cores) Params() CoreParams { return c.params }

// Frequency returns the current core clock.
func (c *Cores) Frequency() vf.Hz { return c.freq }

// Voltage returns the current core rail voltage.
func (c *Cores) Voltage() vf.Volt { return c.volt }

// DutyCycle returns the HDC duty factor in (0, 1].
func (c *Cores) DutyCycle() float64 { return c.dutyCycle }

// EffectiveFrequency returns frequency × duty cycle: the throughput-
// relevant clock.
func (c *Cores) EffectiveFrequency() vf.Hz { return vf.Hz(float64(c.freq) * c.dutyCycle) }

// SetPState programs a core frequency; voltage follows the V/F curve.
func (c *Cores) SetPState(f vf.Hz) error {
	if f <= 0 {
		return fmt.Errorf("compute: non-positive core frequency")
	}
	if f > c.params.Curve.Fmax() {
		f = c.params.Curve.Fmax()
	}
	c.setFreq(f)
	return nil
}

// SetDutyCycle programs the HDC duty factor.
func (c *Cores) SetDutyCycle(d float64) error {
	if d <= 0 || d > 1 {
		return fmt.Errorf("compute: duty cycle %.3f outside (0,1]", d)
	}
	c.dutyCycle = d
	return nil
}

// ActivePower returns the cluster's C0 draw with activeCores cores
// running at the given activity factor.
func (c *Cores) ActivePower(activeCores int, activity float64) power.Watt {
	if activeCores < 0 {
		activeCores = 0
	}
	if activeCores > c.params.Cores {
		activeCores = c.params.Cores
	}
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	dyn := power.Dynamic(c.params.CdynPerCore*float64(activeCores), c.volt, c.freq, activity) * power.Watt(c.dutyCycle)
	leak := power.Leakage(c.params.LeakAtNom, c.volt, c.params.NomVolt)
	return dyn + leak
}

// IdlePower returns the cluster draw in a package idle state.
func (c *Cores) IdlePower(s CState) power.Watt {
	switch s {
	case C2:
		return c.params.C2Power
	case C6:
		return c.params.C6Power
	case C8:
		return c.params.C8Power
	default:
		return c.params.C2Power
	}
}

// PlannedPower returns the PBM's planning estimate for running
// activeCores cores at frequency f with the given activity.
func (c *Cores) PlannedPower(f vf.Hz, activeCores int, activity float64) power.Watt {
	m := c.plan(activeCores, activity)
	return m.at(f)
}

// FreqForBudget inverts the power model: the highest core frequency at
// which activeCores cores at the given activity fit within budget. This
// is the PBM's conversion from redistributed watts to P-state (§4.4).
// The search respects the V/F curve, so near the Vmin floor a watt buys
// proportionally more hertz — the effect behind Fig. 10.
func (c *Cores) FreqForBudget(budget power.Watt, activeCores int, activity float64) vf.Hz {
	m := c.plan(activeCores, activity)
	f, _ := m.freqForBudget(0.2*vf.GHz, budget)
	return f
}

// plan returns the planning power model of activeCores cores (clamped
// to [1, Cores]) at the given activity.
func (c *Cores) plan(activeCores int, activity float64) planModel {
	if activeCores <= 0 {
		activeCores = 1
	}
	if activeCores > c.params.Cores {
		activeCores = c.params.Cores
	}
	return planModel{
		curve:    c.params.Curve,
		cdyn:     c.params.CdynPerCore * float64(activeCores),
		activity: activity,
		leak:     c.params.LeakAtNom,
		nom:      c.params.NomVolt,
	}
}

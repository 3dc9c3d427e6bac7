package compute

import (
	"fmt"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// GfxParams configure the graphics-engine model.
type GfxParams struct {
	BaseFreq vf.Hz // Table 2: 300MHz base
	Curve    *vf.Curve

	Cdyn      float64
	LeakAtNom float64
	NomVolt   vf.Volt
}

// DefaultGfxParams returns the evaluated platform's graphics engine.
func DefaultGfxParams() GfxParams {
	return GfxParams{
		BaseFreq:  0.3 * vf.GHz,
		Curve:     vf.GfxCurve(),
		Cdyn:      2.2e-9, // graphics slices dominate compute power on GFX workloads
		LeakAtNom: 0.090,
		NomVolt:   0.62,
	}
}

// Gfx is the graphics-engine cluster.
type Gfx struct {
	params GfxParams
	freq   vf.Hz
	volt   vf.Volt
}

// NewGfx builds the cluster at its base frequency.
func NewGfx(p GfxParams) (*Gfx, error) {
	if p.Curve == nil {
		return nil, fmt.Errorf("compute: nil graphics V/F curve")
	}
	if p.BaseFreq <= 0 {
		return nil, fmt.Errorf("compute: non-positive graphics base frequency")
	}
	g := &Gfx{params: p}
	g.setFreq(p.BaseFreq)
	return g, nil
}

func (g *Gfx) setFreq(f vf.Hz) {
	g.freq = f
	g.volt = g.params.Curve.VoltageAt(f)
}

// Reset returns the cluster to the state NewGfx builds: base frequency.
// Platform pooling uses it to recycle the cluster across runs.
func (g *Gfx) Reset() { g.setFreq(g.params.BaseFreq) }

// Params returns the configuration.
func (g *Gfx) Params() GfxParams { return g.params }

// Frequency returns the current graphics clock.
func (g *Gfx) Frequency() vf.Hz { return g.freq }

// Voltage returns the graphics rail voltage.
func (g *Gfx) Voltage() vf.Volt { return g.volt }

// SetPState programs a graphics frequency; voltage follows the curve.
func (g *Gfx) SetPState(f vf.Hz) error {
	if f <= 0 {
		return fmt.Errorf("compute: non-positive graphics frequency")
	}
	if f > g.params.Curve.Fmax() {
		f = g.params.Curve.Fmax()
	}
	g.setFreq(f)
	return nil
}

// ActivePower returns the cluster draw at the given activity.
func (g *Gfx) ActivePower(activity float64) power.Watt {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	dyn := power.Dynamic(g.params.Cdyn, g.volt, g.freq, activity)
	leak := power.Leakage(g.params.LeakAtNom, g.volt, g.params.NomVolt)
	return dyn + leak
}

// PlannedPower returns the PBM's planning estimate for the cluster at
// frequency f and the given activity.
func (g *Gfx) PlannedPower(f vf.Hz, activity float64) power.Watt {
	m := g.plan(activity)
	return m.at(f)
}

// FreqForBudget returns the highest graphics frequency whose draw at
// the given activity fits within budget (the PBM conversion for the
// graphics share of the compute budget, §7.2).
func (g *Gfx) FreqForBudget(budget power.Watt, activity float64) vf.Hz {
	m := g.plan(activity)
	f, _ := m.freqForBudget(0.1*vf.GHz, budget)
	return f
}

// plan returns the cluster's planning power model at the given
// activity.
func (g *Gfx) plan(activity float64) planModel {
	return planModel{
		curve:    g.params.Curve,
		cdyn:     g.params.Cdyn,
		activity: activity,
		leak:     g.params.LeakAtNom,
		nom:      g.params.NomVolt,
	}
}

// Package vf models voltage/frequency curves and the voltage-regulator
// topology of a Skylake-class mobile SoC (Fig. 1 of the SysScale paper).
//
// Each SoC clock domain carries a V/F curve: the minimum voltage at
// which the domain's logic meets timing at a given frequency. Curves
// have a Vmin floor — below some frequency the voltage cannot drop
// further because the transistors need a minimum functional voltage.
// The floor is central to two results in the paper: (1) the 0.8GHz
// memory operating point saves little because V_SA already sits at Vmin
// at 1.06GHz (§7.4), and (2) a TDP-constrained compute domain near Vmin
// gains frequency roughly linearly per watt, which is why redistributing
// a few hundred milliwatts buys large speedups at 3.5-4.5W TDP (Fig. 10).
package vf

import (
	"fmt"
	"sort"
)

// Hz is a frequency in hertz.
type Hz float64

// Common frequency units.
const (
	KHz Hz = 1e3
	MHz Hz = 1e6
	GHz Hz = 1e9
)

func (f Hz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.3gGHz", float64(f)/1e9)
	case f >= MHz:
		return fmt.Sprintf("%.3gMHz", float64(f)/1e6)
	default:
		return fmt.Sprintf("%.3gHz", float64(f))
	}
}

// Volt is an electric potential in volts.
type Volt float64

// CurvePoint is one (frequency, minimum voltage) pair on a V/F curve.
type CurvePoint struct {
	F Hz
	V Volt
}

// Curve is a piecewise-linear V/F curve. Between points the required
// voltage is interpolated linearly; below the first point the curve is
// flat at the Vmin floor; above the last point the curve extrapolates
// along the final segment (a conservative model of the steep top of a
// real Shmoo plot).
type Curve struct {
	name   string
	points []CurvePoint
}

// NewCurve builds a curve from points, which must be non-empty, sorted
// by ascending frequency after normalization, and have non-decreasing
// voltage. NewCurve sorts the points and validates monotonicity.
func NewCurve(name string, points ...CurvePoint) (*Curve, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("vf: curve %q needs at least one point", name)
	}
	ps := make([]CurvePoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].F < ps[j].F })
	for i := 1; i < len(ps); i++ {
		if ps[i].F == ps[i-1].F {
			return nil, fmt.Errorf("vf: curve %q has duplicate frequency %v", name, ps[i].F)
		}
		if ps[i].V < ps[i-1].V {
			return nil, fmt.Errorf("vf: curve %q voltage not monotonic at %v", name, ps[i].F)
		}
	}
	for _, p := range ps {
		if p.F <= 0 || p.V <= 0 {
			return nil, fmt.Errorf("vf: curve %q has non-positive point %+v", name, p)
		}
	}
	return &Curve{name: name, points: ps}, nil
}

// MustCurve is NewCurve that panics on error; it is intended for the
// package-level platform definitions, which are validated by tests.
func MustCurve(name string, points ...CurvePoint) *Curve {
	c, err := NewCurve(name, points...)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the curve's name.
func (c *Curve) Name() string { return c.name }

// Vmin returns the voltage floor (the voltage of the lowest-frequency
// point).
func (c *Curve) Vmin() Volt { return c.points[0].V }

// VminFreq returns the highest frequency attainable at the Vmin floor.
func (c *Curve) VminFreq() Hz { return c.points[0].F }

// Fmax returns the highest characterized frequency.
func (c *Curve) Fmax() Hz { return c.points[len(c.points)-1].F }

// NumPoints returns the number of characterized points.
func (c *Curve) NumPoints() int { return len(c.points) }

// Point returns the i-th characterized point, in ascending frequency.
// Between Point(i-1) and Point(i) VoltageAt is the straight line
// through the two; at or below Point(0) it is the Vmin floor.
func (c *Curve) Point(i int) CurvePoint { return c.points[i] }

// VoltageAt returns the minimum functional voltage for frequency f.
func (c *Curve) VoltageAt(f Hz) Volt {
	ps := c.points
	if f <= ps[0].F {
		return ps[0].V // Vmin floor
	}
	for i := 1; i < len(ps); i++ {
		if f <= ps[i].F {
			return interp(ps[i-1], ps[i], f)
		}
	}
	// Extrapolate along the last segment.
	if len(ps) == 1 {
		return ps[0].V
	}
	return interp(ps[len(ps)-2], ps[len(ps)-1], f)
}

// FreqAt returns the highest frequency sustainable at voltage v.
// If v is below Vmin the domain cannot run at all and FreqAt returns 0.
func (c *Curve) FreqAt(v Volt) Hz {
	ps := c.points
	if v < ps[0].V {
		return 0
	}
	if v == ps[0].V {
		return ps[0].F
	}
	for i := 1; i < len(ps); i++ {
		if v <= ps[i].V {
			// Inverse interpolation over segment i-1 .. i.
			a, b := ps[i-1], ps[i]
			if b.V == a.V {
				return b.F
			}
			frac := float64((v - a.V) / (b.V - a.V))
			return a.F + Hz(frac)*(b.F-a.F)
		}
	}
	// Extrapolate along the last segment.
	if len(ps) == 1 {
		return ps[0].F
	}
	a, b := ps[len(ps)-2], ps[len(ps)-1]
	if b.V == a.V {
		return b.F
	}
	frac := float64((v - a.V) / (b.V - a.V))
	return a.F + Hz(frac)*(b.F-a.F)
}

func interp(a, b CurvePoint, f Hz) Volt {
	if b.F == a.F {
		return b.V
	}
	frac := float64((f - a.F) / (b.F - a.F))
	return a.V + Volt(frac)*(b.V-a.V)
}

package vf

import "fmt"

// OperatingPoint is one joint IO+memory DVFS operating point — the unit
// SysScale switches between (§4.3). It fixes the DDR transfer rate, the
// memory controller clock (half the DDR rate on this platform), the IO
// interconnect clock, and the V_SA / V_IO rail voltages that those
// clocks require.
type OperatingPoint struct {
	Name    string
	DDR     Hz // DRAM transfer rate (e.g. 1.6GHz)
	MC      Hz // memory controller clock, DDR/2
	Interco Hz // IO interconnect clock
	VSA     Volt
	VIO     Volt
}

// String implements fmt.Stringer.
func (op OperatingPoint) String() string {
	return fmt.Sprintf("%s{DDR %v, MC %v, IO %v, V_SA %.3fV, V_IO %.3fV}",
		op.Name, op.DDR, op.MC, op.Interco, op.VSA, op.VIO)
}

// Validate checks internal consistency of the point.
func (op OperatingPoint) Validate() error {
	if op.DDR <= 0 || op.MC <= 0 || op.Interco <= 0 {
		return fmt.Errorf("vf: operating point %q has non-positive clock", op.Name)
	}
	// Written so that a NaN fails: the rails can only be set inside
	// their regulation ranges.
	if !(op.VSA >= VSAMin && op.VSA <= VSAMax) {
		return fmt.Errorf("vf: operating point %q: V_SA %.3fV outside [%.3f, %.3f]", op.Name, op.VSA, VSAMin, VSAMax)
	}
	if !(op.VIO >= VIOMin && op.VIO <= VIOMax) {
		return fmt.Errorf("vf: operating point %q: V_IO %.3fV outside [%.3f, %.3f]", op.Name, op.VIO, VIOMin, VIOMax)
	}
	return nil
}

// MakeOperatingPoint derives a consistent operating point from a DDR
// rate and interconnect clock using the platform curves: MC = DDR/2,
// V_SA from the SA curve at the interconnect clock (the MC is voltage-
// aligned to the interconnect, §3), and V_IO from the IO curve at the
// DDRIO digital clock (DDR/2).
func MakeOperatingPoint(name string, ddr, interco Hz) OperatingPoint {
	return OperatingPoint{
		Name:    name,
		DDR:     ddr,
		MC:      ddr / 2,
		Interco: interco,
		VSA:     SACurve().VoltageAt(interco),
		VIO:     IOCurve().VoltageAt(ddr / 2),
	}
}

// Canonical operating points of the evaluated platform (Table 1, §7.4).
// The paper implements exactly two points in the real system: the high
// point (DDR 1.6GHz) and the low point (DDR 1.06GHz); the 0.8GHz point
// exists in LPDDR3 but is not energy-efficient because V_SA is already
// at Vmin at 1.06GHz.
func HighPoint() OperatingPoint { return MakeOperatingPoint("high", 1.6*GHz, 0.8*GHz) }
func LowPoint() OperatingPoint  { return MakeOperatingPoint("low", 1.06*GHz, 0.4*GHz) }

// LowestPoint is the DDR 0.8GHz point evaluated (and rejected) in §7.4.
func LowestPoint() OperatingPoint { return MakeOperatingPoint("lowest", 0.8*GHz, 0.4*GHz) }

// DDR4 points for the §7.4 DRAM-type sensitivity study.
func DDR4HighPoint() OperatingPoint { return MakeOperatingPoint("ddr4-high", 1.86*GHz, 0.8*GHz) }
func DDR4LowPoint() OperatingPoint  { return MakeOperatingPoint("ddr4-low", 1.33*GHz, 0.5*GHz) }

// LadderLPDDR3 returns the LPDDR3 operating-point ladder from highest
// to lowest. Policies that support more than two points (the "general
// case" of §4.3) walk this ladder with per-step thresholds.
func LadderLPDDR3() []OperatingPoint {
	return []OperatingPoint{HighPoint(), LowPoint(), LowestPoint()}
}

// TwoPointLadder returns the ladder the paper actually ships: high and
// low only.
func TwoPointLadder() []OperatingPoint {
	return []OperatingPoint{HighPoint(), LowPoint()}
}

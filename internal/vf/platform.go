package vf

// This file defines the canonical V/F curves of the modeled
// Skylake-class mobile platform. Absolute values are representative
// (real Shmoo data is not public) but are chosen to reproduce the
// relationships the paper reports:
//
//   - V_SA reaches its Vmin floor at the voltage needed for a 0.53GHz
//     memory controller clock (DDR 1.06GHz), so scaling DDR below
//     1.06GHz yields no further V_SA reduction (§7.4).
//   - The MD-DVFS setup of Table 1 lands at 0.8·V_SA and 0.85·V_IO.
//   - The CPU core curve is flat (Vmin) up to ~1.5GHz: at the paper's
//     4.5W TDP and 1.2GHz base frequency the cores sit on the floor,
//     making compute power roughly linear in frequency, which is what
//     lets a few hundred redistributed milliwatts buy up to 16% more
//     frequency (Fig. 7) and far more at 3.5W (Fig. 10).
//
// Each curve is built once, at package initialization, and every call
// of its accessor returns the same *Curve. Sharing is safe because a
// Curve has no mutators.

// Nominal rail voltages of the modeled platform.
const (
	NominalVSA  Volt = 0.95
	NominalVIO  Volt = 1.00
	NominalVDDQ Volt = 1.20
	// Core/graphics nominal voltages are curve-derived at runtime.
)

// Regulation ranges of the two rails an operating point programs.
const (
	VSAMin, VSAMax Volt = 0.60, 1.10
	VIOMin, VIOMax Volt = 0.60, 1.15
)

// SlewRateVPerUs is the regulator slew rate used throughout (§5:
// 50mV/us, so ±100mV in about 2us).
const SlewRateVPerUs Volt = 0.050

// SACurve returns the V/F curve of the system-agent rail (V_SA),
// indexed by the IO interconnect clock (the memory controller clock is
// aligned to the same voltage level, per §3). The 0.4GHz point is the
// Vmin floor: scaling the interconnect (and with it the MC) below
// 0.4GHz cannot lower V_SA further.
func SACurve() *Curve { return saCurve }

var saCurve = MustCurve("V_SA",
	CurvePoint{F: 0.4 * GHz, V: 0.76}, // Vmin floor = 0.8 * 0.95
	CurvePoint{F: 0.8 * GHz, V: 0.95}, // nominal at full interconnect clock
	CurvePoint{F: 1.0 * GHz, V: 1.05},
)

// IOCurve returns the V/F curve of the V_IO rail, indexed by the DDRIO
// digital clock (half the DDR transfer rate). At DDR 1.06GHz the rail
// runs at 0.85 of nominal, matching Table 1.
func IOCurve() *Curve { return ioCurve }

var ioCurve = MustCurve("V_IO",
	CurvePoint{F: 0.53 * GHz, V: 0.85}, // MD-DVFS point: 0.85 * 1.00
	CurvePoint{F: 0.80 * GHz, V: 1.00}, // nominal at DDR 1.6GHz
	CurvePoint{F: 1.07 * GHz, V: 1.10},
)

// CoreCurve returns the V/F curve of the CPU core + LLC rail. The flat
// region below 1.5GHz is the Vmin floor discussed above. Above it, the
// curve steepens the way production parts do, so at generous TDPs
// (7-15W) extra budget buys little frequency and SysScale's benefit
// shrinks (Fig. 10).
func CoreCurve() *Curve { return coreCurve }

var coreCurve = MustCurve("V_CORE",
	CurvePoint{F: 1.5 * GHz, V: 0.65}, // Vmin floor up to 1.5GHz
	CurvePoint{F: 2.0 * GHz, V: 0.78},
	CurvePoint{F: 2.5 * GHz, V: 0.93},
	CurvePoint{F: 3.0 * GHz, V: 1.12},
	CurvePoint{F: 3.6 * GHz, V: 1.35},
)

// GfxCurve returns the V/F curve of the graphics rail. The base
// frequency (300MHz, Table 2) is deep in the floor; the fused maximum
// dynamic frequency of this part is 1.0GHz (the M-6Y75's graphics
// turbo ceiling), which bounds how much of a redistributed budget the
// graphics engines can convert into clocks (Fig. 8's 6.7-8.9% FPS
// gains versus the larger CPU-side gains).
func GfxCurve() *Curve { return gfxCurve }

var gfxCurve = MustCurve("V_GFX",
	CurvePoint{F: 0.45 * GHz, V: 0.62}, // floor up to 450MHz
	CurvePoint{F: 0.70 * GHz, V: 0.75},
	CurvePoint{F: 1.00 * GHz, V: 0.95}, // fused maximum
)

// DefaultRails builds the regulator set at nominal settings.
func DefaultRails() *Rails {
	mk := func(id RailID, v Volt, min, max Volt, scalable bool) *Regulator {
		r, err := NewRegulator(id, v, SlewRateVPerUs, min, max, scalable)
		if err != nil {
			panic(err)
		}
		return r
	}
	rails, err := NewRails(
		mk(RailVSA, NominalVSA, VSAMin, VSAMax, true),
		mk(RailVIO, NominalVIO, VIOMin, VIOMax, true),
		mk(RailVDDQ, NominalVDDQ, NominalVDDQ, NominalVDDQ, false),
		mk(RailVCore, CoreCurve().Vmin(), 0.55, 1.40, true),
		mk(RailVGfx, GfxCurve().Vmin(), 0.55, 1.15, true),
	)
	if err != nil {
		panic(err)
	}
	return rails
}

package dram

import (
	"fmt"

	"sysscale/internal/vf"
)

// Timing is the set of DRAM configuration-register values that the MRC
// trains per frequency (§2.5). Values are expressed in device clocks
// (tCK = 2/transfer-rate for a double-data-rate interface). The set
// also carries the analog interface trim (drive strength, termination,
// and DLL phase codes) abstracted as interface-efficiency and
// termination factors; when a set trained for one frequency is used at
// another, those trims are wrong, costing bandwidth and power — the
// paper's Observation 4 (Fig. 4: +22% power, −10% performance).
type Timing struct {
	ForFreq vf.Hz // the frequency this set was trained for

	// Core timing parameters (in device clock cycles).
	CL   int // CAS latency
	RCD  int // RAS-to-CAS delay
	RP   int // row precharge
	RAS  int // row active time
	WR   int // write recovery
	RFC  int // refresh cycle time
	REFI int // refresh interval

	// Interface trims (dimensionless efficiency factors in (0, 1]).
	// InterfaceEff scales achievable bandwidth; TermEff scales
	// termination power (lower is better-tuned ODT).
	InterfaceEff float64
	TermEff      float64
}

// Validate checks that the set is electrically plausible.
func (t Timing) Validate() error {
	if t.ForFreq <= 0 {
		return fmt.Errorf("dram: timing set with no frequency tag")
	}
	if t.CL <= 0 || t.RCD <= 0 || t.RP <= 0 || t.RAS <= 0 || t.WR <= 0 {
		return fmt.Errorf("dram: non-positive core timing in set for %v", t.ForFreq)
	}
	if t.RFC <= 0 || t.REFI <= 0 {
		return fmt.Errorf("dram: non-positive refresh timing in set for %v", t.ForFreq)
	}
	if t.InterfaceEff <= 0 || t.InterfaceEff > 1 {
		return fmt.Errorf("dram: interface efficiency %.3f outside (0,1]", t.InterfaceEff)
	}
	if t.TermEff <= 0 {
		return fmt.Errorf("dram: non-positive termination factor")
	}
	return nil
}

// RandomAccessLatency returns the nominal closed-page access latency
// (tRP + tRCD + tCL) in seconds when the set is used at transfer rate
// f. Using a set trained for a different frequency keeps the *cycle*
// counts (the registers hold cycles), so the wall-clock latency scales
// with the actual clock.
func (t Timing) RandomAccessLatency(f vf.Hz) float64 {
	tck := 2.0 / float64(f)
	return float64(t.RP+t.RCD+t.CL) * tck
}

// OptimalTiming returns the MRC-trained register set for a frequency
// bin. Cycle counts follow JEDEC-style datasheet values: the wall-clock
// analog delays (~13.75ns tRCD/tRP class timings) are fixed physics, so
// cycle counts shrink as the clock slows.
func OptimalTiming(kind Kind, f vf.Hz) Timing {
	tck := 2.0 / float64(f) // seconds per device clock
	cycles := func(ns float64) int {
		c := int(ns*1e-9/tck + 0.999999) // ceil
		if c < 1 {
			c = 1
		}
		return c
	}
	t := Timing{
		ForFreq:      f,
		CL:           cycles(13.75),
		RCD:          cycles(13.75),
		RP:           cycles(13.75),
		RAS:          cycles(35.0),
		WR:           cycles(15.0),
		RFC:          cycles(210.0),
		REFI:         cycles(7800.0),
		InterfaceEff: 1.0, // trained trims: full efficiency
		TermEff:      1.0,
	}
	if kind == DDR4 {
		// DDR4 runs slightly tighter analog timings at this class.
		t.CL = cycles(13.32)
		t.RCD = cycles(13.32)
		t.RP = cycles(13.32)
	}
	return t
}

// DetunedTiming returns the effective behaviour of running the register
// set trained for trainedAt while the device operates at actual — the
// "unoptimized MRC values" case of Observation 4. Two effects:
//
//  1. Cycle-count mismatch. Registers hold cycle counts; at a slower
//     clock the counts trained for a faster clock are overly long
//     (wasted cycles), and at a faster clock they would violate the
//     parts' analog timing, so a safe controller must fall back to
//     worst-case guard-banded counts. Either way latency suffers.
//  2. Analog trim mismatch. Drive strength, ODT and DLL phase codes are
//     frequency specific; wrong codes reduce eye margin (less usable
//     bandwidth) and waste termination power.
//
// The factors are calibrated so a peak-bandwidth microbenchmark loses
// about 10% performance and spends about 22% more power, matching
// Fig. 4.
func DetunedTiming(kind Kind, trainedAt, actual vf.Hz) Timing {
	base := OptimalTiming(kind, trainedAt)
	t := base
	t.ForFreq = actual
	if trainedAt == actual {
		return t
	}
	// Keep the trained cycle counts (that is the bug), and degrade the
	// analog trims.
	t.InterfaceEff = 0.88 // ~12% bandwidth loss from reduced eye margin
	t.TermEff = 2.6       // badly tuned ODT wastes most of the termination margin
	if trainedAt < actual {
		// Running faster than trained additionally requires guard-banded
		// core timings: pad the latency-critical counts.
		t.CL += 2
		t.RCD += 2
		t.RP += 2
	}
	return t
}

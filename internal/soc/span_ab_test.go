// A/B equivalence for the span-batched core: the span path must agree
// with the per-tick walk to ≤1e-9 relative on every Result field, for
// every workload class and with the tick memo in either state. Lives in
// the external test package to drive the real governors.
package soc_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sysscale/internal/compute"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// spanRelTol is the contract: span-batched and per-tick runs differ
// only in floating-point summation order (closed-form multiplication
// versus repeated addition), which stays far inside 1e-9 relative.
const spanRelTol = 1e-9

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= spanRelTol*scale
}

// compareResults checks every Result field: exact equality for
// integral/telemetry fields (transitions and their timings are tick-
// aligned and must not move), relative tolerance for accumulated
// floating-point fields.
func compareResults(t *testing.T, label string, span, tickwise soc.Result) {
	t.Helper()
	fail := func(field string, a, b any) {
		t.Errorf("%s: %s diverges beyond %g relative\nspan: %v\ntick: %v", label, field, spanRelTol, a, b)
	}
	if span.Workload != tickwise.Workload || span.Policy != tickwise.Policy || span.Duration != tickwise.Duration {
		fail("identity fields", span, tickwise)
	}
	if span.PerfMet != tickwise.PerfMet {
		fail("PerfMet", span.PerfMet, tickwise.PerfMet)
	}
	if span.Transitions != tickwise.Transitions {
		fail("Transitions", span.Transitions, tickwise.Transitions)
	}
	if span.TransitionTime != tickwise.TransitionTime || span.MaxTransition != tickwise.MaxTransition {
		fail("transition times", span.TransitionTime, tickwise.TransitionTime)
	}
	floats := []struct {
		name string
		a, b float64
	}{
		{"Score", span.Score, tickwise.Score},
		{"ActiveScore", span.ActiveScore, tickwise.ActiveScore},
		{"AvgPower", float64(span.AvgPower), float64(tickwise.AvgPower)},
		{"Energy", float64(span.Energy), float64(tickwise.Energy)},
		{"EDP", span.EDP, tickwise.EDP},
		{"AvgCoreFreq", float64(span.AvgCoreFreq), float64(tickwise.AvgCoreFreq)},
		{"AvgGfxFreq", float64(span.AvgGfxFreq), float64(tickwise.AvgGfxFreq)},
	}
	for i := range span.RailAvg {
		floats = append(floats, struct {
			name string
			a, b float64
		}{fmt.Sprintf("RailAvg[%d]", i), float64(span.RailAvg[i]), float64(tickwise.RailAvg[i])})
	}
	for i := range span.CounterAvg {
		floats = append(floats, struct {
			name string
			a, b float64
		}{fmt.Sprintf("CounterAvg[%d]", i), span.CounterAvg[i], tickwise.CounterAvg[i]})
	}
	if len(span.PointResidency) != len(tickwise.PointResidency) {
		fail("PointResidency length", len(span.PointResidency), len(tickwise.PointResidency))
	} else {
		for i := range span.PointResidency {
			floats = append(floats, struct {
				name string
				a, b float64
			}{fmt.Sprintf("PointResidency[%d]", i), span.PointResidency[i], tickwise.PointResidency[i]})
		}
	}
	for _, f := range floats {
		if !relClose(f.a, f.b) {
			fail(f.name, f.a, f.b)
		}
	}
}

// abWorkloads spans every workload class: CPU single/multi thread,
// graphics, battery (race-to-sleep residency stretching), and the
// STREAM microbenchmark, plus a phased workload whose edges fall
// off the epoch grid.
func abWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	var wls []workload.Workload
	for _, name := range []string{"473.astar", "470.lbm"} {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	mt := workload.SPECSuiteMT()
	wls = append(wls, mt[0])
	wls = append(wls, workload.GraphicsSuite()...)
	wls = append(wls, workload.BatterySuite()...)
	wls = append(wls, workload.Stream())

	allC0 := compute.Residency{C0: 1}
	wls = append(wls, workload.Workload{
		Name:  "off-grid-phased",
		Class: workload.CPUSingleThread,
		Phases: []workload.Phase{
			{Duration: 7 * sim.Millisecond, CoreFrac: 0.7, ActiveCores: 2, CoreActivity: 0.6, Residency: allC0},
			{Duration: 11 * sim.Millisecond, CoreFrac: 0.2, MemBW: 6e9, MemBWFrac: 0.4, MemLatFrac: 0.2,
				ActiveCores: 2, CoreActivity: 0.5, Residency: allC0},
			{Duration: 3 * sim.Millisecond, IOFrac: 0.5, IOBW: 2e9, ActiveCores: 1, CoreActivity: 0.3, Residency: allC0},
		},
	})
	return wls
}

// TestSpanBatchingEquivalence runs the full 4-way knob matrix (span
// on/off × memo on/off) for every workload class under transitioning
// and static governors, asserting:
//
//   - memo on/off stays bit-identical within either span setting (the
//     memo is exact, spans or not);
//   - span on/off agree to ≤1e-9 relative on every Result field.
func TestSpanBatchingEquivalence(t *testing.T) {
	policies := []func() soc.Policy{
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
		func() soc.Policy { return &delayedSwitch{n: 3} },
	}

	for _, w := range abWorkloads(t) {
		for _, mk := range policies {
			label := fmt.Sprintf("%s/%s", w.Name, mk().Name())
			run := func(disableSpan, disableMemo bool) soc.Result {
				cfg := soc.DefaultConfig()
				cfg.Workload = w
				cfg.Duration = 300 * sim.Millisecond
				cfg.Policy = mk()
				cfg.DisableSpanBatching = disableSpan
				soc.SetNoTickMemo(&cfg, disableMemo)
				r, err := soc.Run(cfg)
				if err != nil {
					t.Fatalf("%s span=%v memo=%v: %v", label, !disableSpan, !disableMemo, err)
				}
				return r
			}
			spanMemo := run(false, false)
			spanNoMemo := run(false, true)
			tickMemo := run(true, false)
			tickNoMemo := run(true, true)

			if !reflect.DeepEqual(spanMemo, spanNoMemo) {
				t.Errorf("%s: span-batched results diverge with the tick memo on/off", label)
			}
			if !reflect.DeepEqual(tickMemo, tickNoMemo) {
				t.Errorf("%s: per-tick results diverge with the tick memo on/off", label)
			}
			compareResults(t, label, spanMemo, tickMemo)

			// The PBM grant memo claims exactness, not tolerance: the
			// defaults must be bit-identical with it disabled.
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Duration = 300 * sim.Millisecond
			cfg.Policy = mk()
			soc.SetNoPBMMemo(&cfg, true)
			pbmOff, err := soc.Run(cfg)
			if err != nil {
				t.Fatalf("%s pbm memo off: %v", label, err)
			}
			if !reflect.DeepEqual(spanMemo, pbmOff) {
				t.Errorf("%s: results diverge with the PBM grant memo on/off", label)
			}
		}
	}
}

// TestSpanBatchingPowerTraceExact pins the fallback contract: a
// TracePower run always walks tick by tick, so the span knob must not
// change a traced run at all.
func TestSpanBatchingPowerTraceExact(t *testing.T) {
	w, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	run := func(disableSpan bool) soc.Result {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Duration = 150 * sim.Millisecond
		cfg.Policy = policy.NewSysScaleDefault()
		cfg.TracePower = true
		cfg.DisableSpanBatching = disableSpan
		r, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	spanOn, spanOff := run(false), run(true)
	if len(spanOn.PowerTrace) != int(150*sim.Millisecond/sim.Millisecond) {
		t.Fatalf("power trace has %d samples, want one per tick", len(spanOn.PowerTrace))
	}
	if !reflect.DeepEqual(spanOn, spanOff) {
		t.Error("TracePower run changed under the span knob; tick-granularity fallback broken")
	}
}

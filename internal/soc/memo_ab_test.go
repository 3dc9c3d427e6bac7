// Bit-identity check for the steady-state tick memo: this file lives
// in the external test package so it can drive the real governors
// (internal/policy imports soc, so the internal test package cannot).
package soc_test

import (
	"reflect"
	"testing"

	"sysscale/internal/compute"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// delayedSwitch holds the current point until its nth decision, then
// transitions to the other ladder point, alternating afterwards. It
// forces DVFS transitions to fire at decision ticks that fall mid-way
// through a phase pattern, which is where a stale fabric load feeding
// the drain latency would make a memoized run diverge from a plain
// one.
type delayedSwitch struct{ n, decisions, at int }

func (p *delayedSwitch) Name() string { return "delayed-switch" }
func (p *delayedSwitch) Reset()       { p.decisions, p.at = 0, 0 }
func (p *delayedSwitch) Clone() soc.Policy {
	c := *p
	return &c
}
func (p *delayedSwitch) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	p.decisions++
	dec := soc.PolicyDecision{
		OptimizedMRC: true,
		IOBudget:     ctx.Reserve[0].IO,
		MemBudget:    ctx.Reserve[0].Mem,
	}
	if p.decisions >= p.n && (p.decisions-p.n)%2 == 0 {
		p.at = 1 - p.at
	}
	dec.Target = ctx.Ladder[p.at]
	return dec
}

// TestTickMemoTransitionDrainBitIdentical pins the interaction the
// broad suite test cannot reach: phases with very different IO
// utilization, and transitions decided only after several intervals of
// memoized steady-state ticks. The drain step of the Fig. 5 flow
// scales with the fabric utilization of the last integrated span, so
// a span served from the memo must record it exactly as a per-tick
// evaluation would.
func TestTickMemoTransitionDrainBitIdentical(t *testing.T) {
	allC0 := compute.Residency{C0: 1}
	w := workload.Workload{
		Name:  "io-phased",
		Class: workload.CPUSingleThread,
		// Durations are chosen against the 30ms evaluation interval so
		// that, between two transitions, the phase preceding the next
		// decision tick differs from the phase whose evaluation last
		// refreshed the memo — the exact interleaving where a stale
		// fabric load would surface in the drain latency.
		Phases: []workload.Phase{
			{Duration: 5 * sim.Millisecond, CoreFrac: 0.8, ActiveCores: 1,
				CoreActivity: 0.5, Residency: allC0},
			{Duration: 6 * sim.Millisecond, CoreFrac: 0.3, IOFrac: 0.4,
				IOBW: 2e9, MemBW: 1e9, MemBWFrac: 0.2, ActiveCores: 1,
				CoreActivity: 0.5, Residency: allC0},
		},
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Duration = 400 * sim.Millisecond
	cfg.Policy = &delayedSwitch{n: 3}

	memoed, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = &delayedSwitch{n: 3}
	soc.SetNoTickMemo(&cfg, true)
	plain, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if memoed.Transitions == 0 {
		t.Fatal("scenario produced no transitions; the test is vacuous")
	}
	if !reflect.DeepEqual(memoed, plain) {
		t.Errorf("transition-heavy phased run diverges with the tick memo\nmemo on:  %+v\nmemo off: %+v",
			memoed, plain)
	}
}

// TestTickMemoResultsBitIdentical proves the memo is an optimization,
// not a model change: full-run Results — scores, power, energy,
// counters, residency, transition telemetry — must be bit-for-bit
// identical with the memo enabled and disabled, across all three
// evaluation suites and both transitioning and static governors.
func TestTickMemoResultsBitIdentical(t *testing.T) {
	var wls []workload.Workload
	for _, name := range []string{"473.astar", "470.lbm", "400.perlbench"} {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	wls = append(wls, workload.GraphicsSuite()...)
	wls = append(wls, workload.BatterySuite()...)
	wls = append(wls, workload.Stream())

	policies := []func() soc.Policy{
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
	}

	for _, w := range wls {
		for _, mk := range policies {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Duration = 300 * sim.Millisecond
			cfg.Policy = mk()

			memoed, err := soc.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s memo on: %v", w.Name, cfg.Policy.Name(), err)
			}
			cfg.Policy = mk()
			soc.SetNoTickMemo(&cfg, true)
			plain, err := soc.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s memo off: %v", w.Name, cfg.Policy.Name(), err)
			}
			if !reflect.DeepEqual(memoed, plain) {
				t.Errorf("%s/%s: results diverge with the tick memo\nmemo on:  %+v\nmemo off: %+v",
					w.Name, plain.Policy, memoed, plain)
			}
		}
	}
}

// TestTickMemoPopulationBitIdentical extends the memo oracle to a
// generated population (generator seed 1, the Monte Carlo sweep's) under
// the four closed-loop policies. Every run must be DeepEqual with the
// memo on and off and pass Result.Check, and most spans of the memoized
// runs must actually be served from a slot's span image, so the
// comparison exercises the image rather than the full integration.
func TestTickMemoPopulationBitIdentical(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 50
	}
	policies := []func() soc.Policy{
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewMemScaleRedist() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
	}
	r := soc.NewRunner()
	var served, spans int
	for _, w := range gen.GenerateN(gen.DefaultConfig(1), n) {
		for _, mk := range policies {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Duration = max(2*w.TotalDuration(), 2*sim.Second)
			cfg.Policy = mk()

			memoed, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s memo on: %v", w.Name, cfg.Policy.Name(), err)
			}
			hits, total := soc.SpanImageStats(r)
			served += hits
			spans += total
			if err := memoed.Check(1e-12); err != nil {
				t.Errorf("%s/%s: %v", w.Name, memoed.Policy, err)
			}

			cfg.Policy = mk()
			soc.SetNoTickMemo(&cfg, true)
			plain, err := soc.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s memo off: %v", w.Name, cfg.Policy.Name(), err)
			}
			if !reflect.DeepEqual(memoed, plain) {
				t.Errorf("%s/%s: results diverge with the tick memo\nmemo on:  %+v\nmemo off: %+v",
					w.Name, plain.Policy, memoed, plain)
			}
		}
	}
	t.Logf("%d of %d spans served from the span image", served, spans)
	if 2*served <= spans {
		t.Fatalf("only %d of %d spans served from the span image; the comparison is near-vacuous", served, spans)
	}
}

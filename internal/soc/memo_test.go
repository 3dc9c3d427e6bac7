package soc

import (
	"context"
	"testing"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// memoTestPlatform assembles a platform over a two-phase workload so
// the memo's per-phase keying is exercised.
func memoTestPlatform(t *testing.T) *Platform {
	t.Helper()
	w, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	ph2 := w.Phases[0]
	ph2.MemBW *= 2
	ph2.MemBWFrac, ph2.CoreFrac = ph2.CoreFrac, ph2.MemBWFrac
	w.Phases = append(w.Phases, ph2)
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPin()
	p, err := newPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expectEvals asserts the cumulative count of full fixpoint
// evaluations after a step of the scenario.
func expectEvals(t *testing.T, p *Platform, want int, step string) {
	t.Helper()
	if p.evalCalls != want {
		t.Fatalf("%s: evalTick ran %d times, want %d", step, p.evalCalls, want)
	}
}

func TestTickMemoSteadyStateHits(t *testing.T) {
	p := memoTestPlatform(t)
	phases := p.cfg.Workload.Phases
	p.refreshTickMemo()

	ev := *p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 1, "first tick")
	if got := *p.tickEvalFor(0, &phases[0]); got != ev {
		t.Fatal("memoized evaluation differs from the fresh one")
	}
	expectEvals(t, p, 1, "steady-state tick")

	// A different phase owns its own entry; revisiting either stays hot.
	p.tickEvalFor(1, &phases[1])
	expectEvals(t, p, 2, "second phase")
	p.tickEvalFor(0, &phases[0])
	p.tickEvalFor(1, &phases[1])
	expectEvals(t, p, 2, "revisits")

	// Reprogramming identical values must not invalidate.
	p.setBonus(0)
	if err := p.executeDecision(&PolicyDecision{}); err != nil {
		t.Fatal(err)
	}
	p.refreshTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 2, "identical reprogramming")
}

func TestTickMemoInvalidation(t *testing.T) {
	p := memoTestPlatform(t)
	phases := p.cfg.Workload.Phases
	p.refreshTickMemo()
	evHigh := *p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 1, "baseline")

	// A core frequency change forces re-evaluation.
	if err := p.cores.SetPState(1.4 * vf.GHz); err != nil {
		t.Fatal(err)
	}
	p.refreshTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 2, "core frequency change")

	// A graphics frequency change forces re-evaluation.
	if err := p.gfx.SetPState(0.7 * vf.GHz); err != nil {
		t.Fatal(err)
	}
	p.refreshTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 3, "gfx frequency change")

	// Budgets and the bonus reach evalTick only through the P-states
	// the PBM grants from them, so a reprogramming that moves no
	// P-state keeps the memo warm.
	if err := p.pbm.SetIOMemoryBudget(p.budget.IO()/2, p.budget.Memory()); err != nil {
		t.Fatal(err)
	}
	p.refreshTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 3, "budget change")

	p.setBonus(0.25)
	p.refreshTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 3, "bonus change")

	// From here the steps go through the decision path the run loop
	// takes, which refreshes the memo only when that path reprogrammed
	// the platform (syncTickMemo). Granting the new budget misses the
	// PBM memo and moves a P-state, which forces re-evaluation.
	coreF, gfxF := p.cores.Frequency(), p.gfx.Frequency()
	if _, _, err := p.applyPBM(&phases[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if p.cores.Frequency() == coreF && p.gfx.Frequency() == gfxF {
		t.Fatal("PBM grant moved no P-state; the step does not exercise the key")
	}
	p.syncTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 4, "budget grant")

	// The same grant again hits the PBM memo and leaves the platform
	// as it was: nothing to refresh, and the slot stays warm.
	if _, _, err := p.applyPBM(&phases[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if p.reprogrammed {
		t.Fatal("a PBM memo hit marked the platform reprogrammed")
	}
	p.syncTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 4, "repeated grant")

	// A DVFS transition forces re-evaluation and changes the result.
	stall, err := p.maybeTransition(0, &PolicyDecision{Target: p.cfg.Ladder[1], OptimizedMRC: true})
	if err != nil {
		t.Fatal(err)
	}
	if stall <= 0 {
		t.Fatal("transition reported no stall")
	}
	if p.currentIdx != 1 {
		t.Fatalf("currentIdx = %d after transition to ladder[1]", p.currentIdx)
	}
	p.syncTickMemo()
	evLow := *p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 5, "operating-point transition")
	if evLow == evHigh {
		t.Fatal("evaluation unchanged across an operating-point transition")
	}

	// A decision for the point the platform already sits at is no
	// transition and reprograms nothing.
	if _, err := p.maybeTransition(0, &PolicyDecision{Target: p.cfg.Ladder[1], OptimizedMRC: true}); err != nil {
		t.Fatal(err)
	}
	if p.reprogrammed {
		t.Fatal("a same-point decision marked the platform reprogrammed")
	}

	// The transition back to the boot point invalidates the slot
	// again.
	if _, err := p.maybeTransition(0, &PolicyDecision{Target: p.cfg.Ladder[0], OptimizedMRC: true}); err != nil {
		t.Fatal(err)
	}
	p.syncTickMemo()
	p.tickEvalFor(0, &phases[0])
	expectEvals(t, p, 6, "transition back")
}

// TestTransitionLadderIndex checks the ladder index a transition books
// residency to: a point's lowest index on the ladder, and for a point
// off the ladder the first point with its DDR bin, else 0.
func TestTransitionLadderIndex(t *testing.T) {
	high, low, lowest := vf.HighPoint(), vf.LowPoint(), vf.LowestPoint()
	memLow := high
	memLow.Name, memLow.DDR, memLow.MC = "mem-low", low.DDR, low.MC
	for _, row := range []struct {
		name   string
		ladder []vf.OperatingPoint
		target vf.OperatingPoint
		want   int
	}{
		{"on the ladder", vf.TwoPointLadder(), low, 1},
		{"duplicated point", []vf.OperatingPoint{high, low, low}, low, 1},
		{"off the ladder, DDR bin on it", []vf.OperatingPoint{high, lowest, low}, memLow, 2},
		{"off the ladder, DDR bin not on it", []vf.OperatingPoint{high, lowest}, memLow, 0},
	} {
		p := memoTestPlatform(t)
		cfg := p.cfg
		cfg.Ladder = row.ladder
		if err := p.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := p.maybeTransition(0, &PolicyDecision{Target: row.target, OptimizedMRC: true}); err != nil {
			t.Fatal(err)
		}
		if p.current != row.target {
			t.Fatalf("%s: platform at %s after a transition to %s", row.name, p.current.Name, row.target.Name)
		}
		if p.currentIdx != row.want {
			t.Fatalf("%s: currentIdx = %d, want %d", row.name, p.currentIdx, row.want)
		}
	}
}

// TestTickMemoRunSkipsSteadyTicks runs the full loop and checks the
// fast path actually engages: a steady-state run resolves the fixpoint
// orders of magnitude fewer times than it ticks, while the memo-off
// run resolves it on every tick.
func TestTickMemoRunSkipsSteadyTicks(t *testing.T) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPin()
	cfg.Duration = 500 * sim.Millisecond
	nTicks := int(cfg.Duration / cfg.SampleInterval)

	p, err := newPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.evalCalls*10 > nTicks {
		t.Fatalf("memoized run evaluated %d of %d ticks; fast path not engaging", p.evalCalls, nTicks)
	}

	// With the memo off but span batching on, the fixpoint resolves once
	// per span — still far fewer than once per tick.
	cfg.noTickMemo = true
	s, err := newPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.evalCalls*10 > nTicks {
		t.Fatalf("memo-off span run evaluated %d of %d ticks; span batching not engaging", s.evalCalls, nTicks)
	}

	// With both fast paths off, the loop is the historical per-tick
	// walk: one full evaluation per tick.
	cfg.noSpanBatching = true
	q, err := newPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q.evalCalls != nTicks {
		t.Fatalf("memo-off run evaluated %d times, want one per tick (%d)", q.evalCalls, nTicks)
	}
}

// TestPersistentFlowStats checks the platform accumulates transition
// statistics on its one persistent flow across MRC-mode changes.
func TestPersistentFlowStats(t *testing.T) {
	p := memoTestPlatform(t)
	low, high := p.cfg.Ladder[1], p.cfg.Ladder[0]
	if _, err := p.maybeTransition(0, &PolicyDecision{Target: low, OptimizedMRC: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.maybeTransition(0, &PolicyDecision{Target: high, OptimizedMRC: false}); err != nil {
		t.Fatal(err)
	}
	// Same-point decision is a no-op, not a transition.
	if _, err := p.maybeTransition(0, &PolicyDecision{Target: high, OptimizedMRC: true}); err != nil {
		t.Fatal(err)
	}
	if got := p.flow.Transitions(); got != 2 {
		t.Fatalf("flow counted %d transitions, want 2", got)
	}
	if p.flow.TotalTime() <= 0 || p.flow.MaxTime() <= 0 {
		t.Fatal("flow accumulated no stall time")
	}
	if p.flow.MaxTime() > p.flow.TotalTime() {
		t.Fatal("max single transition exceeds the cumulative total")
	}
}

// refPhaseIndex is the pre-cursor reference mapping: modulo the loop
// length, then scan the phases.
func refPhaseIndex(w workload.Workload, t sim.Time) int {
	total := w.TotalDuration()
	if total <= 0 {
		return 0
	}
	t %= total
	for i, ph := range w.Phases {
		if t < ph.Duration {
			return i
		}
		t -= ph.Duration
	}
	return len(w.Phases) - 1
}

func TestPhaseCursorMatchesReference(t *testing.T) {
	w := workload.Workload{
		Name:  "cursor-test",
		Class: workload.Micro,
		Phases: []workload.Phase{
			{Duration: 3 * sim.Millisecond},
			{Duration: 7 * sim.Millisecond},
			{Duration: 2 * sim.Millisecond},
			{Duration: 1 * sim.Millisecond},
		},
	}
	for _, dt := range []sim.Time{
		1 * sim.Millisecond,  // the tick-loop case
		5 * sim.Millisecond,  // skips whole phases
		13 * sim.Millisecond, // equals the loop length
		31 * sim.Millisecond, // exceeds the loop length
		250 * sim.Microsecond,
	} {
		c := newPhaseCursor(w)
		now := sim.Time(0)
		for step := 0; step < 4000; step++ {
			if got, want := c.index(), refPhaseIndex(w, now); got != want {
				t.Fatalf("dt=%v step=%d t=%v: cursor phase %d, reference %d", dt, step, now, got, want)
			}
			now += dt
			c.advance(dt)
		}
	}
}

// TestTickMemoKeyCoversPowerInputs pins the programming the span image
// reads beyond the fixpoint. Two core programmings with equal effective
// frequency resolve the same fixpoint but draw different power (the
// power model sees the P-state and the duty cycle separately), and the
// IO engine and DDRIO models read the live V_SA and V_IO rails. Each
// change must invalidate the slot, re-integrate the next span instead
// of serving the stale image, and change the span's rails.
func TestTickMemoKeyCoversPowerInputs(t *testing.T) {
	p := memoTestPlatform(t)
	ph := &p.cfg.Workload.Phases[0]
	tickSec := p.cfg.SampleInterval.Seconds()
	span := func() spanDelta {
		var d spanDelta
		p.integrateSpan(&d, 0, ph, 0, tickSec, 8)
		return d
	}
	program := func(f vf.Hz, duty float64) {
		t.Helper()
		if err := p.cores.SetPState(f); err != nil {
			t.Fatal(err)
		}
		if err := p.cores.SetDutyCycle(duty); err != nil {
			t.Fatal(err)
		}
	}
	// expectReintegrated checks that the span after a reprogramming
	// re-ran the fixpoint, refilled the image rather than serving it,
	// and that the next span is served from the refilled image.
	expectReintegrated := func(step string, before spanDelta, evals, served int) spanDelta {
		t.Helper()
		p.refreshTickMemo()
		after := span()
		if p.evalCalls != evals+1 {
			t.Fatalf("%s: evalTick ran %d times, want %d", step, p.evalCalls, evals+1)
		}
		if p.imageSpans != served {
			t.Fatalf("%s: span served from the image programmed before the change", step)
		}
		if after.rails == before.rails {
			t.Fatalf("%s: rails unchanged %v; the step does not exercise the key", step, after.rails)
		}
		if again := span(); again != after || p.imageSpans != served+1 {
			t.Fatalf("%s: next span not served from the refilled image", step)
		}
		return after
	}

	program(2*vf.GHz, 0.5)
	p.refreshTickMemo()
	first := span()
	if again := span(); again != first || p.imageSpans != 1 {
		t.Fatalf("steady-state span not served from the image (%d image spans)", p.imageSpans)
	}

	effBefore := p.cores.EffectiveFrequency()
	program(1*vf.GHz, 1)
	if got := p.cores.EffectiveFrequency(); got != effBefore {
		t.Fatalf("effective frequency %v, want %v: the step must hold it fixed", got, effBefore)
	}
	d := expectReintegrated("same effective frequency, different P-state and duty", first, p.evalCalls, p.imageSpans)
	if d.dWork != first.dWork {
		t.Fatalf("work %v, want %v: equal effective frequency must resolve the same fixpoint", d.dWork, first.dWork)
	}

	for _, step := range []struct {
		name string
		rail vf.RailID
		v    vf.Volt
	}{
		{"V_SA change", vf.RailVSA, vf.LowPoint().VSA},
		{"V_IO change", vf.RailVIO, vf.LowPoint().VIO},
	} {
		before := d
		if _, err := p.rails.Get(step.rail).Set(step.v); err != nil {
			t.Fatal(err)
		}
		d = expectReintegrated(step.name, before, p.evalCalls, p.imageSpans)
		if d.rails[step.rail] == before.rails[step.rail] {
			t.Fatalf("%s: the rail's own draw did not move", step.name)
		}
	}
}

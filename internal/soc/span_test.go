package soc

import (
	"reflect"
	"testing"

	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// TestSpanTicksProperty drives the real span computation over generated
// multi-phase workloads and checks, against a per-tick reference walk,
// the invariants the span-batched core relies on:
//
//  1. spans partition [0, nTicks) exactly (no gap, no overlap);
//  2. no span interior contains a policy-eval epoch (a multiple of
//     evalEvery) — epochs always start a span;
//  3. the active phase is constant across every tick of a span.
func TestSpanTicksProperty(t *testing.T) {
	var wls []workload.Workload
	for seed := uint64(1); seed <= 8; seed++ {
		wls = append(wls, gen.Generate(gen.DefaultConfig(seed)))
	}
	// Degenerate shapes: single short phase, phases shorter than a tick,
	// phase edges landing off the tick grid.
	wls = append(wls,
		workload.Workload{Name: "sub-tick", Class: workload.Micro, Phases: []workload.Phase{
			{Duration: 300 * sim.Microsecond}, {Duration: 250 * sim.Microsecond},
		}},
		workload.Workload{Name: "off-grid", Class: workload.Micro, Phases: []workload.Phase{
			{Duration: 3300 * sim.Microsecond}, {Duration: 1700 * sim.Microsecond}, {Duration: 900 * sim.Microsecond},
		}},
	)

	for _, w := range wls {
		for _, tick := range []sim.Time{1 * sim.Millisecond, 250 * sim.Microsecond, 700 * sim.Microsecond} {
			for _, evalEvery := range []int{1, 7, 30} {
				nTicks := 2000
				cursor := newPhaseCursor(w)
				ref := newPhaseCursor(w)
				for i := 0; i < nTicks; {
					n := spanTicks(i, nTicks, evalEvery, &cursor, tick)
					if n < 1 || i+n > nTicks {
						t.Fatalf("%s tick=%v eval=%d: span [%d,%d) outside run of %d ticks",
							w.Name, tick, evalEvery, i, i+n, nTicks)
					}
					for k := 0; k < n; k++ {
						if k > 0 && (i+k)%evalEvery == 0 {
							t.Fatalf("%s tick=%v eval=%d: span starting at %d skips epoch at %d",
								w.Name, tick, evalEvery, i, i+k)
						}
						if ref.index() != cursor.index() {
							t.Fatalf("%s tick=%v eval=%d: span starting at %d covers tick %d in phase %d, span phase %d",
								w.Name, tick, evalEvery, i, i+k, ref.index(), cursor.index())
						}
						ref.advance(tick)
					}
					cursor.advance(sim.Time(n) * tick)
					i += n
				}
				if cursor.index() != ref.index() {
					t.Fatalf("%s: bulk-advanced cursor desynced from per-tick reference", w.Name)
				}
			}
		}
	}
}

// poolConfigs is a heterogeneous config sequence that forces Reset to
// absorb every kind of change: workload class (including battery
// race-to-sleep), ladder, TDP, sample/eval interval, policy, pinned
// core frequency, fast-path hooks, and (via recordEvents) the
// fresh-assembly fallback.
func poolConfigs(t *testing.T) []Config {
	t.Helper()
	spec := func(name string) workload.Workload {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Duration = 200 * sim.Millisecond
		return cfg
	}

	var cfgs []Config

	c := base()
	c.Workload = spec("473.astar")
	c.Policy = highPin()
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = spec("470.lbm")
	c.Policy = lowPin(true)
	c.TDP = 3.5
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = workload.GraphicsSuite()[0]
	c.Policy = lowPin(false)
	c.Ladder = vf.LadderLPDDR3()
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = workload.BatterySuite()[0]
	c.Policy = lowPin(true)
	c.SampleInterval = 500 * sim.Microsecond
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = workload.Stream()
	c.Policy = highPin()
	c.noTickMemo = true
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = spec("400.perlbench")
	c.Policy = highPin()
	c.noSpanBatching = true
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = spec("403.gcc")
	c.Policy = lowPin(true)
	c.FixedCoreFreq = 1.2 * vf.GHz
	cfgs = append(cfgs, c)

	c = base()
	c.Workload = spec("429.mcf")
	c.Policy = lowPin(true)
	c.recordEvents = true
	cfgs = append(cfgs, c)

	return cfgs
}

// TestRunnerReuseBitIdentical proves the pooling contract: a platform
// recycled through Reset produces Results bit-identical to a freshly
// assembled one, across back-to-back runs of heterogeneous configs in
// both orders.
func TestRunnerReuseBitIdentical(t *testing.T) {
	cfgs := poolConfigs(t)

	fresh := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Policy = cfg.Policy.Clone()
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
		fresh[i] = r
	}

	runner := NewRunner()
	for round := 0; round < 2; round++ {
		order := make([]int, len(cfgs))
		for i := range order {
			if round%2 == 0 {
				order[i] = i
			} else {
				order[i] = len(cfgs) - 1 - i
			}
		}
		for _, i := range order {
			cfg := cfgs[i]
			cfg.Policy = cfg.Policy.Clone()
			r, err := runner.Run(cfg)
			if err != nil {
				t.Fatalf("round %d pooled run %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(r, fresh[i]) {
				t.Errorf("round %d config %d (%s/%s): pooled result diverges from fresh assembly\npooled: %+v\nfresh:  %+v",
					round, i, cfg.Workload.Name, cfg.Policy.Name(), r, fresh[i])
			}
		}
	}
}

// TestRunnerIncompatibleFallback checks that configs the reset path
// cannot absorb (event recording) still run correctly through a
// Runner, and that the runner recovers afterwards.
func TestRunnerIncompatibleFallback(t *testing.T) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultConfig()
	plain.Workload = w
	plain.Policy = highPin()
	plain.Duration = 100 * sim.Millisecond

	traced := plain
	traced.Policy = highPin()
	traced.recordEvents = true

	runner := NewRunner()
	if _, err := runner.Run(plain); err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("event-recording run through a warm runner diverges from a fresh run")
	}
	// The runner now holds a log-wired platform, which is never pooled:
	// the next plain run must fall back to fresh assembly and match.
	got, err = runner.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	want, err = Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("plain run after an event-recording run diverges")
	}
}

// specTestConfig is the default platform running SPEC workload wlName
// under pol for 200ms.
func specTestConfig(t *testing.T, wlName string, pol Policy) Config {
	t.Helper()
	w, err := workload.SPEC(wlName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = pol
	cfg.Duration = 200 * sim.Millisecond
	return cfg
}

// TestRunnerPooledAllocs pins the warm pooled run at exactly 1
// allocation: the Result's PointResidency slice, which escapes to the
// caller and cannot be pooled. Everything else — closures, counter
// samples, span bookkeeping, the Fig. 5 flow with its event log off —
// must stay off the heap. Both cases run 473.astar on a recycled
// platform, the engine worker's scenario: "static" under a governor
// pinned to the high point, which never transitions, and
// "transitioning" under one that switches points every epoch. A
// regression here is a hot-path regression for every engine worker;
// fix the allocation, don't bump the pin.
func TestRunnerPooledAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		pol         Policy
		transitions bool
	}{
		{"static", highPin(), false},
		{"transitioning", &alternatingPolicy{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := specTestConfig(t, "473.astar", tc.pol)
			r := NewRunner()
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.transitions && res.Transitions == 0 {
				t.Fatal("no DVFS transition: the case no longer covers the flow")
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := r.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("warm pooled run: %v allocs/op, want exactly 1 (PointResidency)", allocs)
			}
		})
	}
}

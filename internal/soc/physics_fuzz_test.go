// Physics fuzzing: every configuration Validate accepts must give a
// Result that obeys its own accounting, bit-identically with either
// exact memo off and within the span contract of the per-tick walk.
package soc_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sysscale/internal/compute"
	"sysscale/internal/dram"
	"sysscale/internal/ioengine"
	"sysscale/internal/policy"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// fuzzPolicies are the four policy families the Monte Carlo sweep
// compares.
var fuzzPolicies = []func() soc.Policy{
	func() soc.Policy { return policy.NewBaseline() },
	func() soc.Policy { return policy.NewSysScaleDefault() },
	func() soc.Policy { return policy.NewMemScaleRedist() },
	func() soc.Policy { return policy.NewCoScaleRedist() },
}

// fuzzSampleIntervals are the tick lengths the fuzzer draws from: below,
// at and above the 1 ms grid the generator quantizes dwell times to.
var fuzzSampleIntervals = []sim.Time{
	250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond,
}

// FuzzRunPhysics builds a configuration from the fuzzed inputs: a
// generated workload (builtin 0) or a built-in one, TDP, ladder,
// evaluation and sample intervals, camera, policy family and duration.
// For every configuration Validate accepts it asserts that
// Result.Check(1e-12) holds, that the tick memo and the PBM memo are
// each bit-identical when turned off, and that the per-tick walk agrees
// with span batching within compareResults' tolerance.
func FuzzRunPhysics(f *testing.F) {
	lbm := uint8(slices.Index(workload.BuiltinNames(), "470.lbm") + 1)
	// 470.lbm under SysScale at 2.0005 s on the default platform.
	f.Add(uint64(0), lbm, uint8(12), uint8(0), uint8(29), uint8(2), uint8(0), uint8(1), uint16(2000), uint16(500))
	// Generator seed 2202 with a 2 ms tick and a 2567 ms run.
	f.Add(uint64(2202), uint8(0), uint8(12), uint8(0), uint8(29), uint8(3), uint8(0), uint8(1), uint16(2567), uint16(0))
	f.Add(uint64(7), uint8(0), uint8(30), uint8(2), uint8(4), uint8(0), uint8(1), uint8(3), uint16(600), uint16(0))

	f.Fuzz(func(t *testing.T, seed uint64, builtin, tdp, ladder, evalMs, sample, camera, pol uint8, durMs, durUs uint16) {
		cfg := soc.DefaultConfig()
		if builtin == 0 {
			cfg.Workload = gen.Generate(gen.DefaultConfig(seed))
		} else {
			names := workload.BuiltinNames()
			w, err := workload.Builtin(names[int(builtin-1)%len(names)])
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = w
		}
		cfg.TDP = power.Watt(1.5 + 0.25*float64(tdp%40))
		switch ladder % 3 {
		case 1:
			cfg.Ladder = vf.LadderLPDDR3()
		case 2:
			cfg.DRAMKind = dram.DDR4
			cfg.Ladder = []vf.OperatingPoint{vf.DDR4HighPoint(), vf.DDR4LowPoint()}
		}
		cfg.EvalInterval = sim.Time(1+evalMs%64) * sim.Millisecond
		cfg.SampleInterval = fuzzSampleIntervals[int(sample)%len(fuzzSampleIntervals)]
		cfg.CSR.Camera = ioengine.CameraMode(camera % 3)
		cfg.Duration = sim.Time(durMs%4096)*sim.Millisecond + sim.Time(durUs%1000)*sim.Microsecond
		mk := fuzzPolicies[int(pol)%len(fuzzPolicies)]
		cfg.Policy = mk()
		if err := cfg.Validate(); err != nil {
			if !errors.Is(err, soc.ErrInvalidConfig) {
				t.Fatalf("Validate error %v does not wrap ErrInvalidConfig", err)
			}
			t.Skip(err)
		}

		run := func(hook func(*soc.Config, bool)) soc.Result {
			c := cfg
			c.Policy = mk()
			if hook != nil {
				hook(&c, true)
			}
			r, err := soc.Run(c)
			if err != nil {
				t.Fatalf("accepted config failed to run: %v", err)
			}
			return r
		}
		res := run(nil)
		if err := res.Check(1e-12); err != nil {
			t.Fatalf("%s under %s: %v", cfg.Workload.Name, cfg.Policy.Name(), err)
		}
		if !reflect.DeepEqual(res, run(soc.SetNoTickMemo)) {
			t.Error("results diverge with the tick memo off")
		}
		if !reflect.DeepEqual(res, run(soc.SetNoPBMMemo)) {
			t.Error("results diverge with the PBM memo off")
		}
		compareResults(t, cfg.Workload.Name, res, run(soc.SetNoSpanBatching))
	})
}

// TestValidateRejectsOffGridDurations: a run whose duration, or a
// workload one of whose phases, is not a whole number of sample ticks
// is a configuration error. The run integrates whole ticks, so the
// first would drop the remainder from the energy and residency sums,
// and it reads the phase at each tick's start, so sub-tick phases
// alias to the one the tick starts in.
func TestValidateRejectsOffGridDurations(t *testing.T) {
	lbm, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = lbm
	cfg.Policy = policy.NewSysScaleDefault()
	cfg.Duration = 2*sim.Second + 500*sim.Microsecond
	if _, err := soc.Run(cfg); !errors.Is(err, soc.ErrInvalidConfig) {
		t.Errorf("470.lbm at %v: Run = %v, want ErrInvalidConfig", cfg.Duration, err)
	}

	allC0 := compute.Residency{C0: 1}
	cfg = soc.DefaultConfig()
	cfg.Policy = policy.NewBaseline()
	cfg.Workload = workload.Workload{
		Name:  "alternating-250us",
		Class: workload.CPUSingleThread,
		Phases: []workload.Phase{
			{Duration: 250 * sim.Microsecond, CoreFrac: 0.9, ActiveCores: 1, CoreActivity: 0.6, Residency: allC0},
			{Duration: 250 * sim.Microsecond, CoreFrac: 0.2, MemBW: 8e9, MemBWFrac: 0.5, MemLatFrac: 0.3,
				ActiveCores: 1, CoreActivity: 0.4, Residency: allC0},
		},
	}
	if err := cfg.Workload.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := soc.Run(cfg); !errors.Is(err, soc.ErrInvalidConfig) {
		t.Errorf("250 µs phases on a 1 ms tick: Run = %v, want ErrInvalidConfig", err)
	}
}

// TestValidateMessagesExactDurations: a config error states the
// durations it rejects to the nanosecond, not rounded to three
// decimals as sim.Time's String does.
func TestValidateMessagesExactDurations(t *testing.T) {
	lbm, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = lbm
	cfg.Policy = policy.NewBaseline()
	cfg.Duration = 999999 * sim.Nanosecond
	err = cfg.Validate()
	if !errors.Is(err, soc.ErrInvalidConfig) || !strings.Contains(err.Error(), "duration 999.999µs shorter than one tick (1ms)") {
		t.Errorf("999 999 ns run on a 1 ms tick: Validate = %v", err)
	}
}

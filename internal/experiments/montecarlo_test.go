package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/workload/gen"
)

// TestMonteCarloDeterministicAcrossParallelism is the acceptance
// property of the robustness suite: the same seeded sweep run
// sequentially and on a wide worker pool must produce identical
// results — orderings and values — so Monte Carlo findings are
// reproducible from (seed, n) alone. It extends the engine's batch
// determinism tests to the full experiment pipeline (generation →
// batch → statistics).
func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	t.Cleanup(func() { SetParallelism(0) })
	opt := DefaultMonteCarloOptions()
	opt.N = 16
	opt.Seed = 123

	SetParallelism(1)
	seq, err := MonteCarlo(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 13} {
		SetParallelism(workers)
		par, err := MonteCarlo(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("sweep differs between -parallel 1 and -parallel %d:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
	// Repeat runs on one engine must also be stable (cache-served).
	again, err := MonteCarlo(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, again) {
		t.Fatal("repeat sweep on a warm cache differs")
	}
}

func TestMonteCarloShape(t *testing.T) {
	opt := MonteCarloOptions{N: 12, Seed: 5}
	r, err := MonteCarlo(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 12 || r.Seed != 5 {
		t.Fatalf("echoed options wrong: %+v", r)
	}
	if len(r.Policies) != 3 {
		t.Fatalf("default policy set: got %d, want 3", len(r.Policies))
	}
	for _, p := range r.Policies {
		if p.Name == "" || p.WorstName == "" {
			t.Fatalf("missing names: %+v", p)
		}
		if p.Perf.P5 > p.Perf.P50 || p.Perf.P50 > p.Perf.P95 {
			t.Fatalf("%s: percentiles out of order: %+v", p.Name, p.Perf)
		}
		if p.Regressions < 0 || p.Regressions > r.N {
			t.Fatalf("%s: regression count %d out of range", p.Name, p.Regressions)
		}
	}
	if r.PerfMetRate < 0 || r.PerfMetRate > 1 {
		t.Fatalf("PerfMetRate %f", r.PerfMetRate)
	}
	out := r.String()
	for _, want := range []string{"Monte Carlo", "sysscale", "memscale-redist", "coscale-redist"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestMonteCarloGeneratedWorkloadsRoundTrip locks the acceptance
// criterion that sweep inputs are persistable: the exact workload
// population a sweep simulates can be written as a trace, read back,
// and replayed bit-identically.
func TestMonteCarloRoundTripThroughTrace(t *testing.T) {
	opt := DefaultMonteCarloOptions().withDefaults()
	opt.N = 8
	tr := gen.NewTrace(gen.DefaultConfig(opt.Seed), opt.N)
	ws, err := tr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, gen.GenerateN(gen.DefaultConfig(opt.Seed), opt.N)) {
		t.Fatal("trace replay differs from the sweep's generation")
	}
}

func TestMonteCarloCustomPolicies(t *testing.T) {
	opt := MonteCarloOptions{N: 6, Seed: 2, Policies: []soc.Policy{policy.NewSysScaleDefault()}}
	r, err := MonteCarlo(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 1 || r.Policies[0].Name != "sysscale" {
		t.Fatalf("custom policy set not honored: %+v", r.Policies)
	}
}

// TestMonteCarloGenSeedWins locks the documented precedence: a
// caller-supplied Gen config's non-zero Seed overrides opt.Seed, and
// the effective seed is echoed in the result.
func TestMonteCarloGenSeedWins(t *testing.T) {
	gcfg := gen.DefaultConfig(42)
	r, err := MonteCarlo(context.Background(), MonteCarloOptions{N: 3, Gen: &gcfg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 42 {
		t.Fatalf("effective seed %d, want Gen.Seed 42", r.Seed)
	}
	direct, err := MonteCarlo(context.Background(), MonteCarloOptions{N: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, direct) {
		t.Fatal("Gen with seed 42 differs from Seed: 42")
	}
	// A zero Gen.Seed falls back to opt.Seed.
	gcfg.Seed = 0
	r, err = MonteCarlo(context.Background(), MonteCarloOptions{N: 3, Seed: 9, Gen: &gcfg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 9 {
		t.Fatalf("fallback seed %d, want opt.Seed 9", r.Seed)
	}
}

func TestMonteCarloRejectsBadGenConfig(t *testing.T) {
	bad := gen.DefaultConfig(1)
	bad.MinDwell = 2 * bad.MaxDwell
	if _, err := MonteCarlo(context.Background(), MonteCarloOptions{N: 2, Gen: &bad}); err == nil {
		t.Fatal("invalid generator config accepted")
	}
}

// TestMonteCarloPhysicsInvariants runs soc.Result.Check over the Monte
// Carlo population: 200 generated workloads × the baseline and the
// three default policies. The invariants are sums and products of
// rounded float64s, so they hold to a small multiple of the unit
// roundoff, far inside the 1e-12 relative tolerance.
func TestMonteCarloPhysicsInvariants(t *testing.T) {
	opt := DefaultMonteCarloOptions().withDefaults()
	ws := gen.GenerateN(gen.DefaultConfig(7), 200)
	ps := append([]soc.Policy{policy.NewBaseline()}, opt.Policies...)
	m, err := newSweep(ps...).Workloads(ws...).RunContext(context.Background(), Engine())
	if err != nil {
		t.Fatal(err)
	}
	for wi, w := range m.Workloads {
		for pi, p := range m.Policies {
			if err := m.Result(wi, pi).Check(1e-12); err != nil {
				t.Errorf("%s under %s: %v", w.Name, p.Name(), err)
			}
		}
	}
}

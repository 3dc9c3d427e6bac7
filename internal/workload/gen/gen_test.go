package gen

import (
	"bytes"
	"reflect"
	"testing"

	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

// Property tests over the generator: every seed must yield
// Validate-clean workloads whose derived quantities (TotalDuration,
// PhaseAt, AvgMemBW) satisfy the workload-model invariants, and the
// stream must be a pure function of the seed.

// propertySeeds is the seed population the properties are checked
// over: small seeds, large seeds, and a spread in between.
func propertySeeds() []uint64 {
	seeds := []uint64{0, 1, 2, 3, 42, 1 << 20, 1<<63 - 1, ^uint64(0)}
	for s := uint64(5); s < 5000; s += 271 {
		seeds = append(seeds, s)
	}
	return seeds
}

func TestGeneratedWorkloadsValidate(t *testing.T) {
	for _, seed := range propertySeeds() {
		for _, ws := range [][]workload.Workload{
			GenerateN(DefaultConfig(seed), 5),
			GenerateN(Config{Seed: seed, Phases: 1}, 2),
			GenerateN(Config{Seed: seed, Phases: 40, MeanDwell: 50 * sim.Millisecond}, 2),
			GenerateN(Config{Seed: seed, BWScale: 3, MaxCores: 1}, 2),
		} {
			for _, w := range ws {
				if err := w.Validate(); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, w.Name, err)
				}
			}
		}
	}
}

// TestDwellGridWithOffGridBounds locks the clamp/quantize interaction
// for bounds that do not sit on the 1ms grid: every emitted duration
// must respect both the configured window and the grid (the window is
// aligned inward).
func TestDwellGridWithOffGridBounds(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.MinDwell = 2*sim.Millisecond + 500*sim.Microsecond // 2.5ms
	cfg.MaxDwell = 7*sim.Millisecond + 900*sim.Microsecond // 7.9ms
	cfg.MeanDwell = 4 * sim.Millisecond
	for _, w := range GenerateN(cfg, 20) {
		for _, p := range w.Phases {
			if p.Duration < cfg.MinDwell || p.Duration > cfg.MaxDwell {
				t.Fatalf("%s: dwell %v outside [%v, %v]", w.Name, p.Duration, cfg.MinDwell, cfg.MaxDwell)
			}
			if p.Duration%sim.Millisecond != 0 {
				t.Fatalf("%s: dwell %v off the 1ms grid", w.Name, p.Duration)
			}
		}
	}
}

func TestGeneratedWorkloadInvariants(t *testing.T) {
	for _, seed := range propertySeeds() {
		cfg := DefaultConfig(seed)
		for _, w := range GenerateN(cfg, 3) {
			// TotalDuration is the sum of phase durations.
			var sum sim.Time
			minBW, maxBW := w.Phases[0].MemBW, w.Phases[0].MemBW
			for _, p := range w.Phases {
				sum += p.Duration
				if p.Duration < cfg.MinDwell || p.Duration > cfg.MaxDwell {
					t.Fatalf("seed %d: %s: dwell %v outside [%v, %v]", seed, w.Name, p.Duration, cfg.MinDwell, cfg.MaxDwell)
				}
				if p.Duration%sim.Millisecond != 0 {
					t.Fatalf("seed %d: %s: dwell %v not 1ms-quantized", seed, w.Name, p.Duration)
				}
				if p.MemBW < minBW {
					minBW = p.MemBW
				}
				if p.MemBW > maxBW {
					maxBW = p.MemBW
				}
			}
			if got := w.TotalDuration(); got != sum {
				t.Fatalf("seed %d: %s: TotalDuration %v != phase sum %v", seed, w.Name, got, sum)
			}
			// AvgMemBW is a convex combination of the phase demands.
			if avg := w.AvgMemBW(); avg < minBW-1e-6 || avg > maxBW+1e-6 {
				t.Fatalf("seed %d: %s: AvgMemBW %.3g outside phase range [%.3g, %.3g]", seed, w.Name, avg, minBW, maxBW)
			}
			// PhaseAt walks the phase list: at the cumulative start
			// offset of phase i (and just before its end) it must return
			// phase i, and it must wrap modulo the total duration.
			var off sim.Time
			for i, p := range w.Phases {
				if got := w.PhaseAt(off); got != p {
					t.Fatalf("seed %d: %s: PhaseAt(%v) != phase %d", seed, w.Name, off, i)
				}
				if got := w.PhaseAt(off + p.Duration - 1); got != p {
					t.Fatalf("seed %d: %s: PhaseAt(end of %d) wrong", seed, w.Name, i)
				}
				if got := w.PhaseAt(off + sum); got != p {
					t.Fatalf("seed %d: %s: PhaseAt does not wrap at phase %d", seed, w.Name, i)
				}
				off += p.Duration
			}
		}
	}
}

// TestGeneratorDeterminism checks the seed-reproducibility contract:
// identical configs yield byte-identical workloads (compared on the
// JSON wire encoding, the form traces are shared in), and the stream
// is stable under extension — the first k of n generated workloads do
// not depend on n.
func TestGeneratorDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99999} {
		cfg := DefaultConfig(seed)
		a, b := GenerateN(cfg, 8), GenerateN(cfg, 8)
		var ab, bb bytes.Buffer
		if err := workload.WriteJSONList(&ab, a); err != nil {
			t.Fatal(err)
		}
		if err := workload.WriteJSONList(&bb, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("seed %d: repeated generation is not byte-identical", seed)
		}
		if !reflect.DeepEqual(a[:3], GenerateN(cfg, 3)) {
			t.Fatalf("seed %d: stream not stable under extension", seed)
		}
	}
	if reflect.DeepEqual(Generate(DefaultConfig(1)), Generate(DefaultConfig(2))) {
		t.Fatal("distinct seeds produced identical workloads")
	}
}

func TestGeneratorClassMix(t *testing.T) {
	// Over a sizable population the dominant-class mapping must
	// exercise more than one evaluation category.
	counts := map[workload.Class]int{}
	for _, w := range GenerateN(DefaultConfig(11), 120) {
		counts[w.Class]++
	}
	if len(counts) < 2 {
		t.Fatalf("class mapping degenerate: %v", counts)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.MinDwell = 2 * sim.Second
	bad.MaxDwell = 1 * sim.Second
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted dwell bounds accepted")
	}
	bad.MinDwell = sim.Millisecond + sim.Nanosecond
	bad.MaxDwell = sim.Millisecond
	if err := bad.Validate(); err == nil || err.Error() != "gen: MinDwell 1.000001ms exceeds MaxDwell 1ms" {
		t.Errorf("dwell bounds 1 ns apart: Validate = %v", err)
	}
	bad = DefaultConfig(1)
	bad.StartWeights = []float64{1, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("short StartWeights accepted")
	}
	var m Matrix
	if err := m.Validate(); err == nil {
		t.Fatal("zero-mass matrix accepted")
	}
	m = DefaultMatrix()
	m[0][1] = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := DefaultConfig(3).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestMutatorsPreserveValidity(t *testing.T) {
	bases := GenerateN(DefaultConfig(5), 4)
	spec, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	bases = append(bases, spec, workload.WebBrowsing())
	all := Chain(
		SplitPhases(0.7),
		JitterDurations(0.4),
		ScaleBW(0.5, 2.5),
		InjectIdle(0.5, 80*sim.Millisecond),
	)
	for _, base := range bases {
		for seed := uint64(0); seed < 30; seed++ {
			v := Apply(base, seed, all)
			if err := v.Validate(); err != nil {
				t.Fatalf("%s seed %d: mutated workload invalid: %v", base.Name, seed, err)
			}
		}
		// The input must never be mutated in place.
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: mutator corrupted its input: %v", base.Name, err)
		}
	}
}

func TestFamilyDeterminismAndNaming(t *testing.T) {
	base := Generate(DefaultConfig(21))
	a := Family(base, 3, 5, SplitPhases(0.5), ScaleBW(0.8, 1.2))
	b := Family(base, 3, 5, SplitPhases(0.5), ScaleBW(0.8, 1.2))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Family is not deterministic")
	}
	if a[0].Name == a[1].Name || a[0].Name == base.Name {
		t.Fatalf("family naming collision: %q vs %q", a[0].Name, a[1].Name)
	}
	if reflect.DeepEqual(a[0].Phases, a[1].Phases) {
		t.Fatal("family variants identical: forked RNGs not independent")
	}
}

func TestScaleBWScalesDemand(t *testing.T) {
	base := Generate(DefaultConfig(31))
	v := Apply(base, 1, ScaleBW(2, 2))
	for i := range base.Phases {
		if got, want := v.Phases[i].MemBW, 2*base.Phases[i].MemBW; got != want {
			t.Fatalf("phase %d: MemBW %.3g, want %.3g", i, got, want)
		}
	}
}

func TestInjectIdleAddsIdlePhases(t *testing.T) {
	base := Generate(DefaultConfig(41))
	v := Apply(base, 1, InjectIdle(1.0, 50*sim.Millisecond))
	if len(v.Phases) != 2*len(base.Phases) {
		t.Fatalf("prob-1 injection: %d phases, want %d", len(v.Phases), 2*len(base.Phases))
	}
	idle := v.Phases[1]
	if idle.Residency.C8 < 0.5 {
		t.Fatalf("injected phase not idle-dominated: %+v", idle.Residency)
	}
}

func TestSplitPreservesTotalDuration(t *testing.T) {
	base := Generate(DefaultConfig(51))
	v := Apply(base, 9, SplitPhases(1.0))
	if v.TotalDuration() != base.TotalDuration() {
		t.Fatalf("split changed total duration: %v vs %v", v.TotalDuration(), base.TotalDuration())
	}
	if len(v.Phases) <= len(base.Phases) {
		t.Fatal("prob-1 split did not split")
	}
}

package compute

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// bisectRef is the reference inversion: the plain 40-step bisection
// the PBM ran before the walk was guided, evaluating the draw at every
// mid. The guided walk must return its result bit for bit.
func bisectRef(powerAt func(vf.Hz) power.Watt, lo, hi vf.Hz, budget power.Watt) vf.Hz {
	if powerAt(lo) > budget {
		return lo
	}
	if powerAt(hi) <= budget {
		return hi
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if powerAt(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// refCoreFreq is Cores.FreqForBudget as a plain bisection, with the
// planning draw written out in full rather than through planModel.
func refCoreFreq(c *Cores, budget power.Watt, activeCores int, activity float64) vf.Hz {
	if activeCores <= 0 {
		activeCores = 1
	}
	if activeCores > c.params.Cores {
		activeCores = c.params.Cores
	}
	powerAt := func(f vf.Hz) power.Watt {
		v := c.params.Curve.VoltageAt(f)
		dyn := power.Dynamic(c.params.CdynPerCore*float64(activeCores), v, f, activity)
		leak := power.Leakage(c.params.LeakAtNom, v, c.params.NomVolt)
		return dyn + leak
	}
	return bisectRef(powerAt, 0.2*vf.GHz, c.params.Curve.Fmax(), budget)
}

// refGfxFreq is Gfx.FreqForBudget as a plain bisection.
func refGfxFreq(g *Gfx, budget power.Watt, activity float64) vf.Hz {
	powerAt := func(f vf.Hz) power.Watt {
		v := g.params.Curve.VoltageAt(f)
		dyn := power.Dynamic(g.params.Cdyn, v, f, activity)
		leak := power.Leakage(g.params.LeakAtNom, v, g.params.NomVolt)
		return dyn + leak
	}
	return bisectRef(powerAt, 0.1*vf.GHz, g.params.Curve.Fmax(), budget)
}

// inversionCase is one (cluster, budget, activity, active cores) input.
type inversionCase struct {
	gfx      bool
	budget   float64
	activity float64
	active   int
}

// maxGuidedEvals bounds the draws an in-range inversion may evaluate at
// a planning-scale activity on the default curves: two early-return
// checks, two bracket endpoints and the few mids inside the bracket. A
// silent fallback to the unguided walk (42 evaluations) exceeds it.
const maxGuidedEvals = 8

// checkInversion compares the guided inversion with the reference and
// returns the number of draws it evaluated and whether the budget was
// in range (strictly between the draws at the range ends).
func checkInversion(t testing.TB, c *Cores, g *Gfx, in inversionCase) (evals int, inRange bool) {
	t.Helper()
	budget := power.Watt(in.budget)
	var m planModel
	var lo vf.Hz
	var want vf.Hz
	if in.gfx {
		m, lo = g.plan(in.activity), 0.1*vf.GHz
		want = refGfxFreq(g, budget, in.activity)
		if got := g.FreqForBudget(budget, in.activity); got != want {
			t.Fatalf("gfx FreqForBudget(%v, %v) = %v, reference %v", in.budget, in.activity, float64(got), float64(want))
		}
	} else {
		m, lo = c.plan(in.active, in.activity), 0.2*vf.GHz
		want = refCoreFreq(c, budget, in.active, in.activity)
		if got := c.FreqForBudget(budget, in.active, in.activity); got != want {
			t.Fatalf("core FreqForBudget(%v, %d, %v) = %v, reference %v", in.budget, in.active, in.activity, float64(got), float64(want))
		}
	}
	f, evals := m.freqForBudget(lo, budget)
	if f != want {
		t.Fatalf("%+v: guided walk %v, reference %v", in, float64(f), float64(want))
	}
	inRange = m.at(lo) < budget && budget < m.at(m.curve.Fmax())
	if inRange && in.activity >= 0.25 && evals > maxGuidedEvals {
		t.Fatalf("%+v: in-range inversion evaluated the draw %d times, want at most %d", in, evals, maxGuidedEvals)
	}
	if evals > 44 {
		t.Fatalf("%+v: %d evaluations, more than the unguided walk plus a bracket", in, evals)
	}
	return evals, inRange
}

// seedBudgets returns the budgets the oracle must cover for one
// cluster model: the draw at every curve point and at both range
// ends, with their float neighbours, plus zero, negative and huge
// budgets.
func seedBudgets(m planModel, lo vf.Hz) []float64 {
	fs := []vf.Hz{lo, m.curve.Fmax()}
	for i := 0; i < m.curve.NumPoints(); i++ {
		fs = append(fs, m.curve.Point(i).F)
	}
	var out []float64
	for _, f := range fs {
		p := float64(m.at(f))
		out = append(out, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	return append(out, 0, -1, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN())
}

// randomCase draws one oracle input: budgets uniform across and around
// the cluster's range, log-uniform over many decades, or exactly the
// draw at a random frequency (the root then sits on a representable
// mid); activities at planning scale, tiny, or out of [0, 1].
func randomCase(rng *rand.Rand, c *Cores, g *Gfx) inversionCase {
	in := inversionCase{gfx: rng.Intn(3) == 0, active: rng.Intn(5) - 1}
	switch r := rng.Float64(); {
	case r < 0.6:
		in.activity = rng.Float64()
	case r < 0.8:
		in.activity = 0.5 + 0.5*rng.Float64()
	case r < 0.9:
		in.activity = rng.Float64() * 1e-3
	default:
		in.activity = 3*rng.Float64() - 1
	}
	var m planModel
	lo := vf.Hz(0.2 * vf.GHz)
	if in.gfx {
		m, lo = g.plan(in.activity), 0.1*vf.GHz
	} else {
		m = c.plan(in.active, in.activity)
	}
	pLo, pHi := float64(m.at(lo)), float64(m.at(m.curve.Fmax()))
	switch r := rng.Float64(); {
	case r < 0.6:
		in.budget = pLo + (pHi-pLo)*(1.2*rng.Float64()-0.1)
	case r < 0.8:
		in.budget = math.Exp(rng.Float64()*20 - 10)
	default:
		f := lo + vf.Hz(rng.Float64())*(m.curve.Fmax()-lo)
		in.budget = float64(m.at(f))
	}
	return in
}

// TestFreqForBudgetMatchesBisection is the inversion oracle: on seeded
// and random inputs over both clusters the guided walk returns the
// reference bisection's frequency bit for bit, and an in-range budget
// at planning-scale activity costs at most maxGuidedEvals draws.
func TestFreqForBudgetMatchesBisection(t *testing.T) {
	c, _ := NewCores(DefaultCoreParams())
	g, _ := NewGfx(DefaultGfxParams())
	for _, act := range []float64{0, 1e-9, 0.25, 0.75, 0.85, 1, 1.5, -0.5} {
		for active := 0; active <= 3; active++ {
			for _, b := range seedBudgets(c.plan(active, act), 0.2*vf.GHz) {
				checkInversion(t, c, g, inversionCase{budget: b, activity: act, active: active})
			}
		}
		for _, b := range seedBudgets(g.plan(act), 0.1*vf.GHz) {
			checkInversion(t, c, g, inversionCase{gfx: true, budget: b, activity: act})
		}
	}

	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	var evals, inRange, planned int
	for i := 0; i < n; i++ {
		in := randomCase(rng, c, g)
		e, ok := checkInversion(t, c, g, in)
		if ok && in.activity >= 0.25 && in.activity <= 1 {
			evals += e
			inRange++
		}
		if ok {
			planned++
		}
	}
	if inRange == 0 {
		t.Fatal("no in-range planning-scale inputs drawn")
	}
	t.Logf("%d inputs, %d in range; %.2f draws per in-range planning-scale inversion (unguided: 42)",
		n, planned, float64(evals)/float64(inRange))
}

// TestExactLevels checks the premise of the closed-form skip on both
// default ranges: over the first exactLevels levels of a bisection,
// every mid the float walk computes equals the mid computed in exact
// arithmetic, and the skip covers most of the walk.
func TestExactLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exact := func(x vf.Hz) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(float64(x)) }
	for _, r := range defaultRanges() {
		k := exactLevels(float64(r.lo), float64(r.hi))
		if k < 25 {
			t.Fatalf("%s: %d exact levels, want at least 25 of 40", r.name, k)
		}
		for walk := 0; walk < 2000; walk++ {
			lo, hi := r.lo, r.hi
			blo, bhi := exact(lo), exact(hi)
			for level := 0; level < k; level++ {
				mid := (lo + hi) / 2
				bmid := new(big.Float).SetPrec(256).Add(blo, bhi)
				bmid.Quo(bmid, exact(2))
				if f, acc := bmid.Float64(); acc != big.Exact || f != float64(mid) {
					t.Fatalf("%s: level %d mid %v is not exact (%v)", r.name, level+1, float64(mid), bmid)
				}
				if rng.Intn(2) == 0 {
					lo, blo = mid, bmid
				} else {
					hi, bhi = mid, bmid
				}
			}
		}
	}
	if k := exactLevels(0, 1); k != 0 {
		t.Fatalf("exactLevels(0, 1) = %d, want 0", k)
	}
}

// TestSkipExact checks the skip against the walk it replaces: for
// brackets across both default ranges, a skip lands on the interval
// the plain walk reaches after the same number of levels, and it
// engages for all but a few brackets that straddle a grid point.
func TestSkipExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range defaultRanges() {
		skipped := 0
		const n = 20_000
		for i := 0; i < n; i++ {
			fa := r.lo + vf.Hz(rng.Float64())*(r.hi-r.lo)
			fb := fa * (1 + 2e-12)
			lo, hi, level := skipExact(r.lo, r.hi, fa, fb)
			wlo, whi := r.lo, r.hi
			for l := 0; l < level; l++ {
				mid := (wlo + whi) / 2
				if mid > fa && mid < fb {
					t.Fatalf("%s: skipped a mid %v inside the bracket (%v, %v)", r.name, float64(mid), float64(fa), float64(fb))
				}
				if mid <= fa {
					wlo = mid
				} else {
					whi = mid
				}
			}
			if lo != wlo || hi != whi {
				t.Fatalf("%s: skip to level %d gave [%v, %v], walk [%v, %v]", r.name, level, float64(lo), float64(hi), float64(wlo), float64(whi))
			}
			if level > 0 {
				skipped++
			}
		}
		if skipped < n*99/100 {
			t.Fatalf("%s: skip engaged on %d of %d brackets", r.name, skipped, n)
		}
	}
	nan := vf.Hz(math.NaN())
	if _, _, level := skipExact(0.2*vf.GHz, 3*vf.GHz, nan, nan); level != 0 {
		t.Fatalf("unguided walk skipped %d levels", level)
	}
}

// defaultRanges returns the two clusters' search ranges on the default
// curves.
func defaultRanges() []struct {
	name   string
	lo, hi vf.Hz
} {
	return []struct {
		name   string
		lo, hi vf.Hz
	}{
		{"cores", 0.2 * vf.GHz, DefaultCoreParams().Curve.Fmax()},
		{"gfx", 0.1 * vf.GHz, DefaultGfxParams().Curve.Fmax()},
	}
}

// FuzzFreqForBudget checks the guided inversion against the reference
// bisection for arbitrary budgets, activities and active-core counts
// on both clusters.
func FuzzFreqForBudget(f *testing.F) {
	c, _ := NewCores(DefaultCoreParams())
	g, _ := NewGfx(DefaultGfxParams())
	for _, act := range []float64{0.75, 0.85, 0.01} {
		for _, b := range seedBudgets(c.plan(1, act), 0.2*vf.GHz) {
			f.Add(b, act, 1, false)
		}
		for _, b := range seedBudgets(c.plan(2, act), 0.2*vf.GHz) {
			f.Add(b, act, 2, false)
		}
		for _, b := range seedBudgets(g.plan(act), 0.1*vf.GHz) {
			f.Add(b, act, 0, true)
		}
	}
	f.Fuzz(func(t *testing.T, budget, activity float64, active int, gfx bool) {
		checkInversion(t, c, g, inversionCase{gfx: gfx, budget: budget, activity: activity, active: active})
	})
}

// freqSink keeps the benchmarked inversions from being optimized away.
var freqSink vf.Hz

// BenchmarkFreqForBudget times one PBM inversion at the planning
// activities, cycling budgets across each cluster's range.
func BenchmarkFreqForBudget(b *testing.B) {
	c, _ := NewCores(DefaultCoreParams())
	g, _ := NewGfx(DefaultGfxParams())
	budgets := make([]power.Watt, 64)
	b.Run("cores", func(b *testing.B) {
		for i := range budgets {
			budgets[i] = power.Watt(0.3 + 4*float64(i)/float64(len(budgets)))
		}
		for i := 0; i < b.N; i++ {
			freqSink = c.FreqForBudget(budgets[i%len(budgets)], 1+i%2, 0.75)
		}
	})
	b.Run("gfx", func(b *testing.B) {
		for i := range budgets {
			budgets[i] = power.Watt(0.2 + 2*float64(i)/float64(len(budgets)))
		}
		for i := 0; i < b.N; i++ {
			freqSink = g.FreqForBudget(budgets[i%len(budgets)], 0.85)
		}
	})
}

package compute

import (
	"math"
	"math/bits"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// planModel is the PBM's planning power of one cluster at a fixed
// activity: at(f) = Dynamic(cdyn, V(f), f, activity) + Leakage(leak,
// V(f), nom), with V the cluster's V/F curve. For the cores cdyn is the
// per-core capacitance times the active-core count.
type planModel struct {
	curve    *vf.Curve
	cdyn     float64
	activity float64
	leak     float64
	nom      vf.Volt
}

// at returns the planned draw at frequency f.
func (m *planModel) at(f vf.Hz) power.Watt {
	v := m.curve.VoltageAt(f)
	return power.Dynamic(m.cdyn, v, f, m.activity) + power.Leakage(m.leak, v, m.nom)
}

// The guided walk's bracket: its ends sit guideRel of the root
// estimate either side of it, and each counts only when its computed
// draw clears the budget by guideMargin relative (2^-44, ~500 ulps),
// far above the ~20 ulps by which the computed draw can stray from the
// exact one. At the PBM's planning activities the draw moves by well
// over 2·guideMargin across guideRel; a draw too flat in f to clear
// the margin leaves the bracket unconfirmed.
const (
	guideMargin = 0x1p-44
	guideRel    = 1e-12
)

// freqForBudget returns the highest frequency in [lo, Fmax] whose
// planned draw fits budget, and the number of draws it evaluated.
//
// The result is that of the plain bisection: the early returns, then
// 40 halvings of [lo, Fmax] keeping the half whose mid fits. The walk
// is guided by a bracket (fa, fb) around the root of at(f) = budget,
// taken from the closed form and confirmed by two real evaluations:
// at(fa) fits and at(fb) overshoots, each by guideMargin. The exact
// draw is non-decreasing in f and the computed one stays within far
// less than that margin of it, so every mid at or below fa fits and
// every mid at or above fb does not, exactly as evaluating it would
// say. Only mids inside the bracket are evaluated. When no bracket is
// confirmed, fa and fb stay NaN, which compares false both ways, and
// the walk evaluates every mid.
//
// The walk's leading levels are skipped in closed form. While its mids
// are exact (exactLevels), the first k levels are a bisection on the
// real line: they end on the two neighbouring points of the grid
// lo + (hi-lo)·j/2^k that enclose the bracket, provided no grid point
// falls inside it. The skip computes that pair and checks the proviso;
// if it fails, the walk starts from level 0.
func (m *planModel) freqForBudget(lo vf.Hz, budget power.Watt) (vf.Hz, int) {
	hi := m.curve.Fmax()
	if m.at(lo) > budget {
		return lo, 1
	}
	if m.at(hi) <= budget {
		return hi, 2
	}
	evals := 2
	fa, fb := vf.Hz(math.NaN()), vf.Hz(math.NaN())
	if f, ok := m.root(float64(budget)); ok {
		a, b := vf.Hz(f*(1-guideRel)), vf.Hz(f*(1+guideRel))
		margin := budget * guideMargin
		evals += 2
		if m.at(a) <= budget-margin && m.at(b) >= budget+margin {
			fa, fb = a, b
		}
	}
	lo, hi, level := skipExact(lo, hi, fa, fb)
	for ; level < 40; level++ {
		mid := (lo + hi) / 2
		var fits bool
		switch {
		case mid <= fa:
			fits = true
		case mid >= fb:
			fits = false
		default:
			evals++
			fits = m.at(mid) <= budget
		}
		if fits {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, evals
}

// root estimates the frequency f > 0 at which the exact planned draw
// equals budget. On the curve
// segment that holds the root, V is linear in f and the draw is
// V(f)²·(k·f + l), with k = cdyn·activity and l = leak/nom: linear on
// the Vmin floor, a convex cubic above it. Newton's method starts from
// the root of the chord between the segment's knots. The cubic is
// convex, so the chord's root lies at or left of the true one, the
// first step lands at or right of it, and the rest descend
// monotonically onto it. Convergence is quadratic, so once a step is
// below 2^-26 relative the estimate is within about 2^-52. ok is false
// for a model this estimate does not cover (negative or non-finite
// coefficients).
func (m *planModel) root(budget float64) (f float64, ok bool) {
	k := m.cdyn * min(max(m.activity, 0), 1)
	l := 0.0
	if m.nom > 0 {
		l = m.leak / float64(m.nom)
	}
	if !(k >= 0 && l >= 0 && budget > 0) {
		return 0, false
	}
	draw := func(p vf.CurvePoint) float64 {
		v := float64(p.V)
		return v * v * (k*float64(p.F) + l)
	}
	c := m.curve
	i, pb := 0, draw(c.Point(0))
	for ; pb <= budget && i < c.NumPoints()-1; i++ {
		pb = draw(c.Point(i + 1))
	}
	if i == 0 {
		// The Vmin floor: the draw is linear in f.
		v := float64(c.Point(0).V)
		f = (budget/(v*v) - l) / k
	} else {
		a, b := c.Point(i-1), c.Point(i)
		pa := draw(a)
		s := float64(b.V-a.V) / float64(b.F-a.F)
		f = float64(a.F) + (budget-pa)/(pb-pa)*float64(b.F-a.F)
		for it := 0; it < 16; it++ {
			v := float64(a.V) + (f-float64(a.F))*s
			lin := k*f + l
			step := (v*v*lin - budget) / (v * (2*s*lin + k*v))
			f -= step
			if !(math.Abs(step) > f*0x1p-26) {
				break
			}
		}
	}
	return f, f > 0 && !math.IsInf(f, 0)
}

// skipExact returns the interval the bisection of [lo, hi] reaches
// after its first level levels, given that each mid at or below fa
// fits and each at or above fb does not. It skips exactLevels levels
// when no point of their grid lies strictly between fa and fb, and
// none (level 0) otherwise, or when fa and fb are NaN.
func skipExact(lo, hi, fa, fb vf.Hz) (vf.Hz, vf.Hz, int) {
	k := exactLevels(float64(lo), float64(hi))
	if k == 0 {
		return lo, hi, 0
	}
	w, n := hi-lo, vf.Hz(math.Ldexp(1, k))
	j := min(max(vf.Hz(math.Floor(float64((fa-lo)/w*n))), 0), n-1)
	a, b := lo+w*j/n, lo+w*(j+1)/n
	if a <= fa && fb <= b {
		return a, b, k
	}
	return lo, hi, 0
}

// exactLevels returns how many leading levels of a 40-level bisection
// of [lo, hi] compute every mid without rounding. With lo and hi
// integer multiples of 2^e, a level-k mid is a multiple of 2^(e-k)
// below hi, and the sum it halves a multiple of 2^(e-k+1) below 2·hi;
// both fit a float64 exactly while 2·hi < 2^(54+e-k).
func exactLevels(lo, hi float64) int {
	if !(0x1p-1022 <= lo && lo < hi && hi <= math.MaxFloat64/2) {
		return 0
	}
	_, top := math.Frexp(2 * hi) // 2·hi < 2^top
	return min(max(54+min(lowBit(lo), lowBit(hi))-top, 0), 40)
}

// lowBit returns the exponent of the lowest set bit of a positive
// normal float64 x: x is an odd integer times 2^lowBit(x).
func lowBit(x float64) int {
	b := math.Float64bits(x)
	mant := b&(1<<52-1) | 1<<52
	return int(b>>52&0x7ff) - 1075 + bits.TrailingZeros64(mant)
}

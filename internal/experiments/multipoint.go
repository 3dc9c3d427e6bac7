package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/stats"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// MultiPointResult evaluates the "general case" of §4.3: SysScale with
// more than two operating points, walking the ladder one adjacent step
// at a time with per-pair thresholds. The paper ships only two points
// (the 0.8GHz bin is not energy efficient on its platform, §7.4) but
// the algorithm is defined for N points; this experiment runs the
// three-point LPDDR3 ladder and checks that (a) the governor visits
// intermediate points, (b) it never jumps two points in one interval,
// and (c) three points never do worse than two on the evaluated suite
// by more than the transition overhead.
type MultiPointResult struct {
	Rows []MultiPointRow
	// MaxStep is the largest ladder step observed in any single
	// evaluation interval (must be 1).
	MaxStep int
}

// MultiPointRow compares two- and three-point ladders on one workload.
type MultiPointRow struct {
	Name           string
	TwoPointGain   float64
	ThreePointGain float64
	// Residency over the three-point ladder [high, low, lowest].
	Residency []float64
}

// stepWatcher wraps a policy and records the largest single-interval
// ladder step. Clones share the counter, so one watcher aggregates
// across every job of a concurrent batch. Recording is a side effect
// of Decide, so the watcher is deliberately not registered with the
// policy registry: its jobs have no cache key and always simulate (a
// cache hit would skip the observation).
type stepWatcher struct {
	inner   soc.Policy
	maxStep *atomic.Int64
}

func newStepWatcher(inner soc.Policy) *stepWatcher {
	return &stepWatcher{inner: inner, maxStep: new(atomic.Int64)}
}

func (w *stepWatcher) MaxStep() int { return int(w.maxStep.Load()) }
func (w *stepWatcher) Name() string { return w.inner.Name() }
func (w *stepWatcher) Reset()       { w.inner.Reset() }
func (w *stepWatcher) Clone() soc.Policy {
	return &stepWatcher{inner: w.inner.Clone(), maxStep: w.maxStep}
}
func (w *stepWatcher) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	d := w.inner.Decide(ctx)
	from, to := -1, -1
	for i, op := range ctx.Ladder {
		if op == ctx.Current {
			from = i
		}
		if op == d.Target {
			to = i
		}
	}
	if from >= 0 && to >= 0 {
		step := int64(from - to)
		if step < 0 {
			step = -step
		}
		for {
			cur := w.maxStep.Load()
			if step <= cur || w.maxStep.CompareAndSwap(cur, step) {
				break
			}
		}
	}
	return d
}

// multiPointWorkloads spans the bottleneck spectrum.
var multiPointWorkloads = []string{"416.gamess", "473.astar", "403.gcc", "470.lbm"}

// MultiPoint runs the comparison: baseline, two-point SysScale and the
// watched three-point SysScale for every workload, as one sweep.
func MultiPoint(ctx context.Context) (MultiPointResult, error) {
	var res MultiPointResult
	ws := make([]workload.Workload, 0, len(multiPointWorkloads))
	for _, name := range multiPointWorkloads {
		w, err := workload.SPEC(name)
		if err != nil {
			return res, err
		}
		ws = append(ws, w)
	}
	watcher := newStepWatcher(policy.NewSysScaleDefault())
	m, err := newSweep(policy.NewBaseline(), policy.NewSysScaleDefault(), watcher).
		Workloads(ws...).
		ConfigureCell(func(_ workload.Workload, pi int, c *soc.Config) {
			if pi == 2 { // the watched three-point column
				c.Ladder = vf.LadderLPDDR3()
			}
		}).
		RunContext(ctx, Engine())
	if err != nil {
		return res, err
	}
	res.MaxStep = watcher.MaxStep()
	for i, w := range ws {
		base, two, three := m.Result(i, 0), m.Result(i, 1), m.Result(i, 2)
		res.Rows = append(res.Rows, MultiPointRow{
			Name:           w.Name,
			TwoPointGain:   soc.PerfImprovement(two, base),
			ThreePointGain: soc.PerfImprovement(three, base),
			Residency:      three.PointResidency,
		})
	}
	return res, nil
}

func (r MultiPointResult) String() string {
	tab := stats.NewTable("§4.3 general case: two-point vs three-point ladder",
		"Benchmark", "2-point", "3-point", "Residency (high/low/lowest)")
	for _, row := range r.Rows {
		resid := ""
		for i, f := range row.Residency {
			if i > 0 {
				resid += "/"
			}
			resid += fmt.Sprintf("%.0f%%", 100*f)
		}
		tab.AddRow(row.Name, pct(row.TwoPointGain), pct(row.ThreePointGain), resid)
	}
	return tab.String() + fmt.Sprintf("max single-interval ladder step: %d (must be 1: adjacent points only)\n", r.MaxStep)
}

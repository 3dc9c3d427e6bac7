package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

func sweepFixture(t *testing.T) *Sweep {
	t.Helper()
	return NewSweep().
		Policies(policy.NewBaseline(), policy.NewSysScaleDefault()).
		Workloads(mixedSuite(t)...).
		Configure(func(c *soc.Config) { c.Duration = 300 * sim.Millisecond })
}

// TestSweepConfigsLayout pins the cross-product contract: workload-
// major order, base template preserved per cell, Configure before
// ConfigureCell.
func TestSweepConfigsLayout(t *testing.T) {
	ws := mixedSuite(t)
	base := soc.DefaultConfig()
	base.TDP = 7
	s := NewSweep().
		Base(base).
		Policies(policy.NewBaseline(), policy.NewSysScaleDefault()).
		Workloads(ws...).
		Configure(func(c *soc.Config) { c.Duration = 300 * sim.Millisecond }).
		ConfigureCell(func(_ workload.Workload, pi int, c *soc.Config) {
			if pi == 1 {
				c.FixedCoreFreq = 1.2 * vf.GHz
			}
		})
	cfgs := s.Configs()
	if len(cfgs) != 2*len(ws) {
		t.Fatalf("cross product has %d configs, want %d", len(cfgs), 2*len(ws))
	}
	for wi, w := range ws {
		for pi := 0; pi < 2; pi++ {
			c := cfgs[wi*2+pi]
			if c.Workload.Name != w.Name {
				t.Fatalf("cell (%d,%d) carries workload %q, want %q", wi, pi, c.Workload.Name, w.Name)
			}
			if c.TDP != 7 {
				t.Fatalf("cell (%d,%d) lost the base template TDP", wi, pi)
			}
			if c.Duration != 300*sim.Millisecond {
				t.Fatalf("cell (%d,%d) missed the Configure hook", wi, pi)
			}
			if pin := c.FixedCoreFreq; (pi == 1) != (pin != 0) {
				t.Fatalf("cell (%d,%d) has FixedCoreFreq %v: ConfigureCell misapplied", wi, pi, pin)
			}
		}
	}
}

// TestSweepMatchesRunBatch proves the sweep is sugar, not semantics:
// its ResultSet holds exactly the results of batching its own Configs.
func TestSweepMatchesRunBatch(t *testing.T) {
	s := sweepFixture(t)
	e := New(WithParallelism(4))
	rs, err := s.RunContext(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := s.Configs()
	jobs := make([]Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = Job{Config: c}
	}
	flat, err := New(WithParallelism(1)).RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range rs.Workloads {
		for pi := range rs.Policies {
			if !reflect.DeepEqual(rs.Result(wi, pi), flat[wi*len(rs.Policies)+pi]) {
				t.Fatalf("sweep cell (%d,%d) differs from the equivalent batch", wi, pi)
			}
		}
	}
	if !reflect.DeepEqual(rs.Col(1)[2], rs.Result(2, 1)) || !reflect.DeepEqual(rs.Row(2)[1], rs.Result(2, 1)) {
		t.Fatal("Row/Col accessors disagree with Result")
	}
}

// TestSweepComparisons pins the comparison-matrix helpers against the
// scalar helpers they wrap.
func TestSweepComparisons(t *testing.T) {
	rs, err := sweepFixture(t).RunContext(context.Background(), New())
	if err != nil {
		t.Fatal(err)
	}
	perf := rs.PerfImprovement(0)
	power := rs.PowerReduction(0)
	edp := rs.EDPImprovement(0)
	for wi := range rs.Workloads {
		base, sys := rs.Result(wi, 0), rs.Result(wi, 1)
		if perf.Values[1][wi] != soc.PerfImprovement(sys, base) ||
			power.Values[1][wi] != soc.PowerReduction(sys, base) ||
			edp.Values[1][wi] != soc.EDPImprovement(sys, base) {
			t.Fatalf("comparison matrices disagree with scalar helpers at workload %d", wi)
		}
		if perf.Values[0][wi] != 0 {
			t.Fatalf("baseline-vs-baseline perf improvement is %v, want 0", perf.Values[0][wi])
		}
	}

	wName := rs.Workloads[1].Name
	got, ok := perf.Value("sysscale", wName)
	if !ok || got != perf.Values[1][1] {
		t.Fatalf("Value(sysscale, %s) = (%v, %v), want (%v, true)", wName, got, ok, perf.Values[1][1])
	}
	if _, ok := perf.Value("sysscale", "no-such-workload"); ok {
		t.Fatal("Value resolved a nonexistent workload")
	}

	var mean float64
	for _, v := range perf.Values[1] {
		mean += v
	}
	mean /= float64(len(perf.Values[1]))
	if rm := perf.RowMean(1); rm != mean {
		t.Fatalf("RowMean = %v, want %v", rm, mean)
	}
}

// TestSweepEmptyAxesRejected pins the typed error on a degenerate
// sweep.
func TestSweepEmptyAxesRejected(t *testing.T) {
	if _, err := NewSweep().Policies(policy.NewBaseline()).RunContext(context.Background(), New()); !errors.Is(err, soc.ErrInvalidConfig) {
		t.Fatalf("workload-less sweep returned %v, want ErrInvalidConfig", err)
	}
	if _, err := NewSweep().Workloads(mixedSuite(t)...).RunContext(context.Background(), New()); !errors.Is(err, soc.ErrInvalidConfig) {
		t.Fatalf("policy-less sweep returned %v, want ErrInvalidConfig", err)
	}
}

// TestSweepCancellation: a sweep on a cancelled context reports
// context.Canceled like any batch.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweepFixture(t).RunContext(ctx, New()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

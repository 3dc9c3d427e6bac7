package engine

import (
	"context"
	"reflect"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// poolJobs builds a heterogeneous batch that forces recycled platforms
// to absorb every kind of config change: workload class, TDP, sample
// interval, span batching and power tracing. The memo and event-log
// test hooks are unexported; soc's TestRunnerReuseBitIdentical covers
// them.
func poolJobs(t *testing.T) []Job {
	t.Helper()
	mk := func(wl workload.Workload, p soc.Policy, mut func(*soc.Config)) Job {
		cfg := soc.DefaultConfig()
		cfg.Workload = wl
		cfg.Policy = p
		cfg.Duration = 150 * sim.Millisecond
		if mut != nil {
			mut(&cfg)
		}
		return Job{Config: cfg}
	}
	spec := func(name string) workload.Workload {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return []Job{
		mk(spec("473.astar"), policy.NewSysScaleDefault(), nil),
		mk(spec("470.lbm"), policy.NewBaseline(), func(c *soc.Config) { c.TDP = 3.5 }),
		mk(workload.GraphicsSuite()[0], policy.NewSysScaleDefault(), nil),
		mk(workload.BatterySuite()[0], policy.NewCoScaleRedist(), func(c *soc.Config) {
			c.SampleInterval = 500 * sim.Microsecond
		}),
		mk(spec("403.gcc"), policy.NewSysScaleDefault(), func(c *soc.Config) { c.DisableSpanBatching = true }),
		mk(spec("400.perlbench"), policy.NewMemScaleRedist(), func(c *soc.Config) { c.TracePower = true }),
	}
}

// TestPooledPlatformReuseBitIdentical proves the engine's platform
// pooling contract: with caching off (every job simulates), repeated
// batches at several parallelism levels — which maximize runner churn
// and reuse — return results bit-identical to bare soc.Run. Run under
// -race (as CI does) this also proves the pool is race-clean.
func TestPooledPlatformReuseBitIdentical(t *testing.T) {
	jobs := poolJobs(t)

	want := make([]soc.Result, len(jobs))
	for i, j := range jobs {
		cfg := j.Config
		cfg.Policy = cfg.Policy.Clone()
		r, err := soc.Run(cfg)
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		want[i] = r
	}

	for _, par := range []int{1, 4, 16} {
		e := New(WithParallelism(par), WithCache(false))
		for round := 0; round < 3; round++ {
			got, err := e.RunBatchContext(context.Background(), jobs)
			if err != nil {
				t.Fatalf("parallel=%d round=%d: %v", par, round, err)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("parallel=%d round=%d job %d (%s/%s): pooled engine result diverges from soc.Run",
						par, round, i, jobs[i].Config.Workload.Name, jobs[i].Config.Policy.Name())
				}
			}
		}
	}
}

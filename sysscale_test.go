package sysscale_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"sysscale"
)

// The public-API tests exercise the facade exactly as a downstream user
// would: build a config, run policies, compare results.

func TestQuickstartFlow(t *testing.T) {
	w, err := sysscale.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Duration = sysscale.Second

	cfg.Policy = sysscale.NewBaseline()
	base, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = sysscale.NewSysScale()
	sys, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gain := sysscale.PerfImprovement(sys, base); gain < 0.10 {
		t.Fatalf("SysScale gain on gamess = %.3f, want >0.10", gain)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	w, err := sysscale.SPEC("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	policies := []sysscale.Policy{
		sysscale.NewBaseline(),
		sysscale.NewSysScale(),
		sysscale.NewMemScale(false),
		sysscale.NewMemScale(true),
		sysscale.NewCoScale(false),
		sysscale.NewCoScale(true),
		sysscale.NewStaticPoint(1, true),
	}
	for _, p := range policies {
		cfg := sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = p
		cfg.Duration = 300 * sysscale.Millisecond
		res, err := sysscale.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Score <= 0 {
			t.Fatalf("%s: zero score", p.Name())
		}
	}
}

func TestSuitesExposed(t *testing.T) {
	if len(sysscale.SPECSuite()) != 29 {
		t.Fatal("SPEC suite incomplete")
	}
	if len(sysscale.GraphicsSuite()) != 3 {
		t.Fatal("graphics suite incomplete")
	}
	if len(sysscale.BatterySuite()) != 4 {
		t.Fatal("battery suite incomplete")
	}
	if sysscale.Stream().Name == "" {
		t.Fatal("stream workload missing")
	}
}

// TestOperatingPointsExposed reads the paper's two operating points
// (Table 1) through the default config's ladder, highest first.
func TestOperatingPointsExposed(t *testing.T) {
	ladder := sysscale.DefaultConfig().Ladder
	if len(ladder) != 2 {
		t.Fatalf("default ladder has %d points, want 2", len(ladder))
	}
	if ladder[0].DDR != 1.6*sysscale.GHz {
		t.Fatal("high point wrong")
	}
	if ladder[1].DDR != 1.06*sysscale.GHz {
		t.Fatal("low point wrong")
	}
}

func TestBatteryThroughPublicAPI(t *testing.T) {
	cfg := sysscale.DefaultConfig()
	cfg.Workload = sysscale.BatterySuite()[3] // video playback
	cfg.Duration = sysscale.Second
	cfg.Policy = sysscale.NewBaseline()
	base, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = sysscale.NewSysScale()
	sys, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.PerfMet {
		t.Fatal("fixed demand missed")
	}
	if sysscale.PowerReduction(sys, base) < 0.05 {
		t.Fatal("battery saving too small through the public API")
	}
}

// TestRunBatchMatchesRun verifies an engine batch returns
// input-ordered results identical to sequential Run calls, with one
// shared policy value across all configs.
func TestRunBatchMatchesRun(t *testing.T) {
	sys := sysscale.NewSysScale()
	var cfgs []sysscale.Config
	var jobs []sysscale.Job
	for _, name := range []string{"416.gamess", "470.lbm", "473.astar"} {
		w, err := sysscale.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = sys
		cfg.Duration = 300 * sysscale.Millisecond
		cfgs = append(cfgs, cfg)
		jobs = append(jobs, sysscale.Job{Config: cfg})
	}
	ctx := context.Background()
	batch, err := sysscale.NewEngine().RunBatchContext(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		seq, err := sysscale.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], seq) {
			t.Errorf("batch result %d (%s) differs from sequential Run", i, cfg.Workload.Name)
		}
	}

	eng := sysscale.NewEngine(sysscale.WithParallelism(2))
	again, err := eng.RunBatchContext(ctx, []sysscale.Job{{Config: cfgs[0]}, {Config: cfgs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], again[1]) {
		t.Fatal("duplicate configs disagree")
	}
}

// TestCustomPolicy verifies the Policy interface is implementable from
// outside the module internals.
type alwaysLow struct{}

func (alwaysLow) Name() string           { return "always-low" }
func (alwaysLow) Reset()                 {}
func (alwaysLow) Clone() sysscale.Policy { return alwaysLow{} }
func (alwaysLow) Decide(ctx sysscale.PolicyContext) sysscale.PolicyDecision {
	low := len(ctx.Ladder) - 1
	return sysscale.PolicyDecision{
		Target:       ctx.Ladder[low],
		OptimizedMRC: true,
		IOBudget:     ctx.Reserve[low].IO,
		MemBudget:    ctx.Reserve[low].Mem,
	}
}

func TestCustomPolicy(t *testing.T) {
	w, _ := sysscale.SPEC("416.gamess")
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = alwaysLow{}
	cfg.Duration = 300 * sysscale.Millisecond
	res, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PointResidency[1] < 0.9 {
		t.Fatalf("custom policy not honored: low residency %.2f", res.PointResidency[1])
	}
}

// TestGeneratorThroughPublicAPI drives the stochastic workload
// generator, the mutators and the trace format exactly as a downstream
// user would: generate a population, derive a family, persist it, read
// it back, replay it, and simulate a generated workload.
func TestGeneratorThroughPublicAPI(t *testing.T) {
	cfg := sysscale.DefaultGenConfig(77)
	ws := sysscale.GenerateWorkloads(cfg, 5)
	if len(ws) != 5 {
		t.Fatalf("got %d workloads", len(ws))
	}
	if !reflect.DeepEqual(ws, sysscale.GenerateWorkloads(cfg, 5)) {
		t.Fatal("generation not deterministic through the public API")
	}

	fam := sysscale.MutateWorkloads(ws[0], 3, 4,
		sysscale.SplitPhases(0.5),
		sysscale.JitterDurations(0.2),
		sysscale.ScaleBW(0.8, 1.4),
		sysscale.InjectIdle(0.3, 50*sysscale.Millisecond),
	)
	if len(fam) != 4 {
		t.Fatalf("family size %d", len(fam))
	}
	for _, v := range fam {
		if err := v.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
	}

	var buf bytes.Buffer
	if err := sysscale.WriteWorkloadTrace(&buf, sysscale.NewWorkloadTrace(cfg, 3)); err != nil {
		t.Fatal(err)
	}
	tr, err := sysscale.ReadWorkloadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := tr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, ws[:3]) {
		t.Fatal("trace replay differs from direct generation")
	}

	run := sysscale.DefaultConfig()
	run.Workload = ws[0]
	run.Policy = sysscale.NewSysScale()
	run.Duration = ws[0].TotalDuration()
	res, err := sysscale.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("generated workload scored %v", res.Score)
	}
}

// TestRunAPIv2Surface exercises the v2 entry points end to end through
// the facade: context cancellation, streaming, the sweep builder, the
// engine cache controls, and the typed error taxonomy.
func TestRunAPIv2Surface(t *testing.T) {
	w, err := sysscale.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = sysscale.NewSysScale()
	cfg.Duration = 300 * sysscale.Millisecond

	// RunContext with a live context matches Run bit-for-bit; with a
	// dead context it reports context.Canceled.
	want, err := sysscale.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sysscale.RunContext(context.Background(), cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("RunContext diverged from Run (err %v)", err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sysscale.RunContext(dead, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext returned %v", err)
	}
	eng := sysscale.NewEngine()
	job := sysscale.Job{Config: cfg}
	if _, err := eng.RunContext(dead, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Engine.RunContext returned %v", err)
	}
	if _, err := eng.RunBatchContext(dead, []sysscale.Job{job}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunBatchContext returned %v", err)
	}

	// Stream delivers every job exactly once with batch-equal results.
	jobs := []sysscale.Job{job, job, job}
	seen := 0
	for jr := range eng.Stream(context.Background(), jobs) {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", jr.Index, jr.Err)
		}
		if !reflect.DeepEqual(jr.Result, want) {
			t.Fatalf("job %d streamed a different result", jr.Index)
		}
		seen++
	}
	if seen != len(jobs) {
		t.Fatalf("stream delivered %d of %d jobs", seen, len(jobs))
	}

	// The engine's cache is observable and drainable.
	if s := eng.CacheStats(); s.Entries == 0 {
		t.Fatalf("cache empty after batches: %+v", s)
	}
	eng.ClearCache()
	if s := eng.CacheStats(); s.Entries != 0 {
		t.Fatalf("ClearCache left %d entries", s.Entries)
	}

	// Sweep builder + comparison matrix.
	rs, err := sysscale.NewSweep().
		Policies(sysscale.NewBaseline(), sysscale.NewSysScale()).
		Workloads(w).
		Configure(func(c *sysscale.Config) { c.Duration = 300 * sysscale.Millisecond }).
		RunContext(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	perf := rs.PerfImprovement(0)
	if v, ok := perf.Value("sysscale", w.Name); !ok || v <= 0 {
		t.Fatalf("sweep perf matrix = (%v, %v), want a positive sysscale gain", v, ok)
	}

	// Typed errors: invalid configs wrap ErrInvalidConfig and identify
	// the job; cancellation is distinguishable.
	bad := cfg
	bad.Duration = -1
	_, err = eng.RunBatchContext(context.Background(), []sysscale.Job{job, {Config: bad}})
	var je *sysscale.JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("batch error %v does not identify job 1 via *JobError", err)
	}
	if !errors.Is(err, sysscale.ErrInvalidConfig) || errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v misclassified", err)
	}
}

// TestDiskCacheThroughPublicAPI: the persistent result tier end to
// end on the public surface — WithDiskCache, DiskCacheError, and the
// Disk* stats; a fresh engine over the same directory serves the job
// from disk bit-identically.
func TestDiskCacheThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	w, err := sysscale.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = sysscale.NewSysScale()
	cfg.Duration = 300 * sysscale.Millisecond

	first := sysscale.NewEngine(sysscale.WithDiskCache(dir))
	if err := first.DiskCacheError(); err != nil {
		t.Fatal(err)
	}
	want, err := first.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.CacheStats(); st.DiskMisses != 1 || st.DiskBytes <= 0 {
		t.Errorf("first run stats = %+v, want 1 disk miss and persisted bytes", st)
	}

	second := sysscale.NewEngine(sysscale.WithDiskCache(dir))
	got, err := second.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk-served result differs from computed result")
	}
	st := second.CacheStats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("second engine stats = %+v, want 1 disk hit, 0 simulations", st)
	}
}

// TestRobustnessThroughPublicAPI: the fault-hardening surface —
// Engine.Stream keeps good results when a sibling job fails,
// WithJobTimeout turns an over-budget run into an ErrJobTimeout-classed
// *JobError (distinct from cancellation collateral), and the exported
// error types are the ones the engine actually produces.
func TestRobustnessThroughPublicAPI(t *testing.T) {
	w, err := sysscale.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	good := sysscale.DefaultConfig()
	good.Workload = w
	good.Policy = sysscale.NewSysScale()
	good.Duration = 300 * sysscale.Millisecond

	bad := good
	bad.Duration = -1

	// Stream delivers every job: index 1 fails with a typed *JobError
	// wrapping ErrInvalidConfig, indexes 0 and 2 succeed and match a
	// clean run bit for bit.
	want, err := sysscale.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sysscale.Job{{Config: good}, {Config: bad}, {Config: good}}
	out := make([]sysscale.JobResult, len(jobs))
	n := 0
	for jr := range sysscale.NewEngine().Stream(context.Background(), jobs) {
		out[jr.Index] = jr
		n++
	}
	if n != 3 {
		t.Fatalf("Stream delivered %d results, want 3", n)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil || !reflect.DeepEqual(out[i].Result, want) {
			t.Fatalf("job %d = (%v, err %v), want the clean result", i, out[i].Result, out[i].Err)
		}
	}
	var je *sysscale.JobError
	if !errors.As(out[1].Err, &je) || je.Index != 1 || !errors.Is(out[1].Err, sysscale.ErrInvalidConfig) {
		t.Fatalf("bad job error = %v, want *JobError{Index: 1} wrapping ErrInvalidConfig", out[1].Err)
	}

	// A per-job deadline too small for any simulation fails with
	// ErrJobTimeout — and never masquerades as context cancellation, so
	// batch collateral filters cannot swallow it.
	hard := sysscale.NewEngine(sysscale.WithJobTimeout(time.Nanosecond))
	if _, err := hard.RunContext(context.Background(), good); !errors.Is(err, sysscale.ErrJobTimeout) {
		t.Fatalf("nanosecond-budget run returned %v, want ErrJobTimeout", err)
	} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("ErrJobTimeout %v must not match the context sentinels", err)
	}

	// A generous deadline leaves a healthy run untouched.
	soft := sysscale.NewEngine(sysscale.WithJobTimeout(time.Minute))
	got, err := soft.RunContext(context.Background(), good)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("hardened engine diverged from clean run (err %v)", err)
	}

	// The exported robustness types are usable as advertised.
	var pe *sysscale.PanicError
	if errors.As(out[1].Err, &pe) {
		t.Fatalf("config error misclassified as PanicError: %v", pe)
	}
	if sysscale.ErrDiskDegraded.Error() == "" {
		t.Fatal("ErrDiskDegraded has no message")
	}
}

package engine

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

// mixedSuite returns a small cross-class suite (SPEC + graphics +
// battery) for determinism checks.
func mixedSuite(t *testing.T) []workload.Workload {
	t.Helper()
	var ws []workload.Workload
	for _, n := range []string{"416.gamess", "470.lbm", "473.astar"} {
		w, err := workload.SPEC(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	ws = append(ws, workload.GraphicsSuite()[0])
	ws = append(ws, workload.BatterySuite()[3])
	return ws
}

// mixedJobs pairs every suite workload with several policies.
func mixedJobs(t *testing.T) []Job {
	t.Helper()
	policies := []soc.Policy{
		policy.NewBaseline(),
		policy.NewSysScaleDefault(),
		policy.NewMemScaleRedist(),
		policy.NewCoScaleRedist(),
		policy.NewStaticPoint(1, true),
	}
	var jobs []Job
	for _, w := range mixedSuite(t) {
		for _, p := range policies {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = p
			cfg.Duration = 300 * sim.Millisecond
			jobs = append(jobs, Job{Config: cfg})
		}
	}
	return jobs
}

// TestParallelMatchesSequential is the engine's core guarantee: a
// parallel batch returns results identical to running every job
// sequentially through soc.Run, in input order.
func TestParallelMatchesSequential(t *testing.T) {
	jobs := mixedJobs(t)

	want := make([]soc.Result, len(jobs))
	for i, j := range jobs {
		cfg := j.Config
		cfg.Policy = cfg.Policy.Clone()
		r, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	for _, workers := range []int{1, 2, 8} {
		e := New(WithParallelism(workers))
		got, err := e.RunBatchContext(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: job %d (%s/%s) diverges from sequential run",
					workers, i, jobs[i].Config.Workload.Name, jobs[i].Config.Policy.Name())
			}
		}
	}
}

// TestSharedPolicyInstanceAcrossBatch submits one policy VALUE for
// every job of a concurrent batch: the engine must clone per job (this
// is the data race the Clone API exists to prevent; run under -race).
func TestSharedPolicyInstanceAcrossBatch(t *testing.T) {
	shared := policy.NewCoScaleRedist() // stateful: credits + sticky demotion
	var jobs []Job
	for _, w := range mixedSuite(t) {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = shared
		cfg.Duration = 300 * sim.Millisecond
		jobs = append(jobs, Job{Config: cfg})
	}
	e := New(WithParallelism(4))
	rs, err := e.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Score <= 0 {
			t.Errorf("job %d: zero score", i)
		}
	}
}

func TestCacheMemoizesAcrossBatches(t *testing.T) {
	w, err := workload.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewSysScaleDefault()
	cfg.Duration = 300 * sim.Millisecond

	e := New()
	first, err := e.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result differs from computed result")
	}
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
}

func TestDistinctConfigsDistinctKeys(t *testing.T) {
	w, err := workload.SPEC("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Duration = 300 * sim.Millisecond

	a := cfg
	a.Policy = policy.NewStaticPoint(0, false)
	b := cfg
	// Same Name() as a, different behaviour: the fingerprint must not
	// key on the name.
	b.Policy = policy.NewStaticPoint(1, false)

	ka, oka := spec.Key(a)
	kb, okb := spec.Key(b)
	if !oka || !okb {
		t.Fatal("static-point configs must be cacheable")
	}
	if ka == kb {
		t.Fatal("distinct policies collide onto one fingerprint")
	}

	// And equal configs built independently must collide.
	c := cfg
	c.Policy = policy.NewStaticPoint(1, false)
	kc, _ := spec.Key(c)
	if kb != kc {
		t.Fatal("equal configs produced different fingerprints")
	}
}

// countingPolicy wraps Baseline and counts Decide invocations — a side
// effect, so it must never be cached. It is not registered, which is
// what keeps it out of every cache tier.
type countingPolicy struct {
	inner soc.Policy
	n     *atomic.Int64
}

func (c *countingPolicy) Name() string { return "counting" }
func (c *countingPolicy) Reset()       { c.inner.Reset() }
func (c *countingPolicy) Clone() soc.Policy {
	return &countingPolicy{inner: c.inner.Clone(), n: c.n}
}
func (c *countingPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	c.n.Add(1)
	return c.inner.Decide(ctx)
}

func TestUncacheablePolicyAlwaysRuns(t *testing.T) {
	w, err := workload.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPolicy{inner: policy.NewBaseline(), n: new(atomic.Int64)}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = p
	cfg.Duration = 300 * sim.Millisecond

	e := New()
	if _, err := e.RunBatchContext(context.Background(), []Job{{Config: cfg}, {Config: cfg}}); err != nil {
		t.Fatal(err)
	}
	first := p.n.Load()
	if first == 0 {
		t.Fatal("policy never ran")
	}
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if p.n.Load() != first+first/2 {
		t.Fatalf("uncacheable policy served from cache: %d decides after batch, %d after rerun",
			first, p.n.Load())
	}
	if st := e.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("uncacheable runs leaked into the cache: %+v", st)
	}
}

// TestWrappedUncacheableStaysUncacheable: decorating an unregistered
// policy (here with the ablation wrapper) must not silently re-enable
// caching — the canonical encoder sees through registered wrappers to
// the base, which has no codec.
func TestWrappedUncacheableStaysUncacheable(t *testing.T) {
	w, err := workload.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPolicy{inner: policy.NewBaseline(), n: new(atomic.Int64)}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.WithoutOptimizedMRC(p)
	cfg.Duration = 300 * sim.Millisecond

	e := New()
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	first := p.n.Load()
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if p.n.Load() != 2*first {
		t.Fatalf("wrapped uncacheable policy served from cache: %d then %d decides",
			first, p.n.Load())
	}
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("wrapped uncacheable run leaked into the cache: %+v", st)
	}
}

func TestClearCache(t *testing.T) {
	w, err := workload.SPEC("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewBaseline()
	cfg.Duration = 300 * sim.Millisecond

	e := New()
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	e.ClearCache()
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("entries = %d after ClearCache, want 0", st.Entries)
	}
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (cleared entry recomputed)", st.Misses)
	}
}

func TestFailFast(t *testing.T) {
	good, err := workload.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	okCfg := soc.DefaultConfig()
	okCfg.Workload = good
	okCfg.Policy = policy.NewBaseline()
	okCfg.Duration = 300 * sim.Millisecond

	badCfg := okCfg
	badCfg.Duration = -1 * sim.Second // fails Validate inside soc.Run

	e := New(WithParallelism(2))
	rs, err := e.RunBatchContext(context.Background(), []Job{{Config: okCfg}, {Config: badCfg}, {Config: okCfg}})
	if err == nil {
		t.Fatal("batch with invalid job returned no error")
	}
	if rs != nil {
		t.Fatal("failed batch returned partial results")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("error does not identify the failing job: %v", err)
	}
}

func TestNilPolicyRejected(t *testing.T) {
	cfg := soc.DefaultConfig()
	e := New()
	if _, err := e.RunBatchContext(context.Background(), []Job{{Config: cfg}}); err == nil {
		t.Fatal("nil-policy job accepted")
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sysscale/internal/diskcache"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// panicPolicy panics on its nth Decide — the misbehaving-governor case
// the engine's panic isolation exists for.
type panicPolicy struct {
	inner soc.Policy
	at    int
	n     int
}

func newPanicPolicy(at int) *panicPolicy {
	return &panicPolicy{inner: policy.NewBaseline(), at: at}
}

func (p *panicPolicy) Name() string { return "panic-test" }
func (p *panicPolicy) Reset()       { p.n = 0; p.inner.Reset() }
func (p *panicPolicy) Clone() soc.Policy {
	return &panicPolicy{inner: p.inner.Clone(), at: p.at}
}
func (p *panicPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	d := p.inner.Decide(ctx)
	if p.n == p.at {
		panic("panicPolicy: injected panic")
	}
	p.n++
	return d
}

// slowPolicy sleeps on every Decide, so a run's wall time dwarfs its
// simulated time — the shape per-job deadlines exist for.
type slowPolicy struct {
	inner soc.Policy
	sleep time.Duration
}

func (p *slowPolicy) Name() string { return "slow-test" }
func (p *slowPolicy) Reset()       { p.inner.Reset() }
func (p *slowPolicy) Clone() soc.Policy {
	return &slowPolicy{inner: p.inner.Clone(), sleep: p.sleep}
}
func (p *slowPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	time.Sleep(p.sleep)
	return p.inner.Decide(ctx)
}

func robustnessConfig(t *testing.T, name string) soc.Config {
	t.Helper()
	w, err := workload.SPEC(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewBaseline()
	cfg.Duration = 300 * sim.Millisecond
	return cfg
}

// TestPanicIsolation is the satellite regression: a panicking policy in
// a concurrent batch must surface as a *JobError wrapping *PanicError
// on that job alone — no process crash, no leaked Runner, and the
// engine (whose pool just discarded a platform) stays fully usable.
func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Config: robustnessConfig(t, "416.gamess")},
		{Config: robustnessConfig(t, "470.lbm")},
		{Config: robustnessConfig(t, "473.astar")},
	}
	bad := robustnessConfig(t, "470.lbm")
	bad.Policy = newPanicPolicy(1)
	jobs = append(jobs, Job{Config: bad})

	e := New(WithParallelism(4))
	_, err := e.RunBatchContext(context.Background(), jobs)
	if err == nil {
		t.Fatalf("batch with a panicking policy returned nil error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 3 {
		t.Fatalf("err = %v, want *JobError for job 3", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want chain to include *PanicError", err)
	}
	if pe.Value != "panicPolicy: injected panic" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Errorf("PanicError.Stack is empty")
	}
	if got := RunnersInFlight(); got != 0 {
		t.Fatalf("runnersInFlight = %d after panic, want 0 (Runner leaked)", got)
	}
	if st := e.CacheStats(); st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}

	// The engine survives: a clean batch on the same engine succeeds.
	rs, err := e.RunBatchContext(context.Background(), jobs[:3])
	if err != nil {
		t.Fatalf("clean batch after a panic failed: %v", err)
	}
	for i, r := range rs {
		if r.Score <= 0 {
			t.Errorf("job %d: zero score after panic recovery", i)
		}
	}
}

// TestStreamDeliversPanicInBand: Stream must deliver a panicking job's
// *PanicError as that job's JobResult while every sibling still
// completes.
func TestStreamDeliversPanicInBand(t *testing.T) {
	jobs := []Job{
		{Config: robustnessConfig(t, "416.gamess")},
		{Config: robustnessConfig(t, "470.lbm")},
	}
	bad := robustnessConfig(t, "473.astar")
	bad.Policy = newPanicPolicy(0)
	jobs = append(jobs, Job{Config: bad})

	e := New(WithParallelism(2))
	seen := make(map[int]error)
	for jr := range e.Stream(context.Background(), jobs) {
		seen[jr.Index] = jr.Err
	}
	if len(seen) != len(jobs) {
		t.Fatalf("stream delivered %d of %d jobs", len(seen), len(jobs))
	}
	var pe *PanicError
	if !errors.As(seen[2], &pe) {
		t.Errorf("panicking job delivered err %v, want *PanicError", seen[2])
	}
	if seen[0] != nil || seen[1] != nil {
		t.Errorf("sibling jobs failed: %v, %v", seen[0], seen[1])
	}
	if got := RunnersInFlight(); got != 0 {
		t.Fatalf("runnersInFlight = %d, want 0", got)
	}
}

// TestJobTimeout: a job over its deadline fails with ErrJobTimeout — a
// genuine, reported failure, distinct from context.DeadlineExceeded —
// through both the per-job and the engine-wide knobs; Stream delivers
// it, and fail-fast RunBatchContext reports it rather than eating it as
// collateral.
func TestJobTimeout(t *testing.T) {
	slow := robustnessConfig(t, "470.lbm")
	slow.Policy = &slowPolicy{inner: policy.NewBaseline(), sleep: 30 * time.Millisecond}

	t.Run("per-job", func(t *testing.T) {
		e := New()
		var errs []error
		for jr := range e.Stream(context.Background(), []Job{{Config: slow, Timeout: 20 * time.Millisecond}}) {
			errs = append(errs, jr.Err)
		}
		if len(errs) != 1 {
			t.Fatalf("stream delivered %d results for 1 job", len(errs))
		}
		err := errs[0]
		if !errors.Is(err, ErrJobTimeout) {
			t.Fatalf("err = %v, want ErrJobTimeout", err)
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			t.Fatalf("ErrJobTimeout matches context sentinels — collateral filters would drop real timeouts")
		}
	})

	t.Run("engine-wide", func(t *testing.T) {
		e := New(WithJobTimeout(20 * time.Millisecond))
		_, err := e.RunBatchContext(context.Background(), []Job{{Config: slow}})
		var je *JobError
		if !errors.As(err, &je) || !errors.Is(err, ErrJobTimeout) {
			t.Fatalf("fail-fast batch err = %v, want *JobError wrapping ErrJobTimeout", err)
		}
	})

	t.Run("fast-jobs-unaffected", func(t *testing.T) {
		e := New(WithJobTimeout(10 * time.Second))
		if _, err := e.RunBatchContext(context.Background(), []Job{{Config: robustnessConfig(t, "416.gamess")}}); err != nil {
			t.Fatalf("generous timeout failed a fast job: %v", err)
		}
	})

	if got := RunnersInFlight(); got != 0 {
		t.Fatalf("runnersInFlight = %d, want 0", got)
	}
}

// TestRunBatchPartial pins the partial-batch contract, which Stream
// serves: every job gets exactly one JobResult — results for the
// healthy, typed errors for the sick — and the batch never fails as a
// whole.
func TestRunBatchPartial(t *testing.T) {
	good := robustnessConfig(t, "416.gamess")
	invalid := robustnessConfig(t, "470.lbm")
	invalid.Duration = -1 * sim.Second
	panicking := robustnessConfig(t, "473.astar")
	panicking.Policy = newPanicPolicy(0)

	jobs := []Job{
		{Config: good},
		{Config: invalid},
		{Config: soc.Config{}}, // nil policy
		{Config: panicking},
		{Config: robustnessConfig(t, "470.lbm")},
	}
	e := New(WithParallelism(4))
	rs := make([]JobResult, len(jobs))
	seen := make([]bool, len(jobs))
	for jr := range e.Stream(context.Background(), jobs) {
		if jr.Index < 0 || jr.Index >= len(jobs) || seen[jr.Index] {
			t.Fatalf("job index %d out of range or delivered twice", jr.Index)
		}
		seen[jr.Index] = true
		rs[jr.Index] = jr
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("job %d never delivered", i)
		}
	}
	if rs[0].Err != nil || rs[0].Result.Score <= 0 {
		t.Errorf("good job: err %v", rs[0].Err)
	}
	if !errors.Is(rs[1].Err, soc.ErrInvalidConfig) {
		t.Errorf("invalid job err = %v, want ErrInvalidConfig", rs[1].Err)
	}
	if !errors.Is(rs[2].Err, soc.ErrInvalidConfig) {
		t.Errorf("nil-policy job err = %v, want ErrInvalidConfig", rs[2].Err)
	}
	var pe *PanicError
	if !errors.As(rs[3].Err, &pe) {
		t.Errorf("panic job err = %v, want *PanicError", rs[3].Err)
	}
	if rs[4].Err != nil {
		t.Errorf("trailing good job failed: %v", rs[4].Err)
	}

	// A pre-cancelled context: the stream still closes, and nothing it
	// delivers is cancellation collateral.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for jr := range e.Stream(ctx, jobs) {
		if errors.Is(jr.Err, context.Canceled) {
			t.Errorf("job %d delivered cancellation collateral: %v", jr.Index, jr.Err)
		}
	}
	if got := RunnersInFlight(); got != 0 {
		t.Fatalf("runnersInFlight = %d, want 0", got)
	}
}

// enospcTier models a full disk: reads miss cleanly, every write fails
// with an ErrIO-classed error — the ENOSPC shape.
type enospcTier struct {
	gets, puts atomic.Int64
}

func (f *enospcTier) Get(diskcache.Key) (soc.Result, bool, error) {
	f.gets.Add(1)
	return soc.Result{}, false, nil
}
func (f *enospcTier) Put(diskcache.Key, soc.Result) error {
	f.puts.Add(1)
	return fmt.Errorf("%w: no space left on device", diskcache.ErrIO)
}
func (f *enospcTier) Stats() diskcache.Stats {
	return diskcache.Stats{Misses: int(f.gets.Load()), Errors: int(f.puts.Load())}
}

// TestDiskFullKeepsMemoryTierIdentical is the ENOSPC satellite: a warm
// engine whose every disk write fails must produce results, memory-tier
// stats, and cache behaviour byte-identical to an engine with no disk
// tier at all — the failing tier costs error counts, nothing else.
func TestDiskFullKeepsMemoryTierIdentical(t *testing.T) {
	jobs := []Job{
		{Config: robustnessConfig(t, "416.gamess")},
		{Config: robustnessConfig(t, "470.lbm")},
		{Config: robustnessConfig(t, "473.astar")},
	}

	noDisk := New(WithParallelism(2))
	want, err := noDisk.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := noDisk.RunBatchContext(context.Background(), jobs) // warm pass: all memory hits
	if err != nil {
		t.Fatal(err)
	}

	full := &enospcTier{}
	// A bare tier (no breaker): every write must individually hit the
	// full disk so the stats comparison is exact.
	eFull := New(WithParallelism(2), WithDiskTier(full))
	got, err := eFull.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("full-disk batch failed: %v (ENOSPC must never fail jobs)", err)
	}
	got2, err := eFull.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got2, want2) {
		t.Errorf("full-disk results differ from no-disk results")
	}
	sa, sb := noDisk.CacheStats(), eFull.CacheStats()
	if sa.Hits != sb.Hits || sa.Misses != sb.Misses || sa.Entries != sb.Entries || sa.Evictions != sb.Evictions {
		t.Errorf("memory-tier stats diverge: no-disk %+v, full-disk %+v", sa, sb)
	}
	if sb.DiskErrors != int(full.puts.Load()) || full.puts.Load() != int64(len(jobs)) {
		t.Errorf("DiskErrors = %d with %d failed puts, want %d", sb.DiskErrors, full.puts.Load(), len(jobs))
	}
}

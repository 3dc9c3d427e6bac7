package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload/gen"
)

// generatedJobs builds n distinct short jobs from the stochastic
// workload generator — the unbounded-sweep shape Stream exists for.
func generatedJobs(t *testing.T, n int) []Job {
	t.Helper()
	ws := gen.GenerateN(gen.DefaultConfig(7), n)
	jobs := make([]Job, n)
	for i, w := range ws {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = policy.NewSysScaleDefault()
		cfg.Duration = 120 * sim.Millisecond
		jobs[i] = Job{Config: cfg}
	}
	return jobs
}

// TestStreamDeliversEveryJobOnce is the streaming contract: one
// JobResult per job, correct indices, values identical to the batch
// path — whatever the parallelism, and across cache hits, in-batch
// coalescing and plain execution.
func TestStreamDeliversEveryJobOnce(t *testing.T) {
	jobs := mixedJobs(t)
	// Duplicate a few jobs so coalescing paths stream too.
	jobs = append(jobs, jobs[0], jobs[3], jobs[3])

	want, err := New(WithParallelism(1)).RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		e := New(WithParallelism(workers))
		// Warm part of the cache so some deliveries are cache hits.
		if _, err := e.RunBatchContext(context.Background(), jobs[:4]); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(jobs))
		n := 0
		for jr := range e.Stream(context.Background(), jobs) {
			if jr.Err != nil {
				t.Fatalf("workers=%d: job %d failed: %v", workers, jr.Index, jr.Err)
			}
			if jr.Index < 0 || jr.Index >= len(jobs) {
				t.Fatalf("workers=%d: out-of-range index %d", workers, jr.Index)
			}
			if seen[jr.Index] {
				t.Fatalf("workers=%d: job %d delivered twice", workers, jr.Index)
			}
			seen[jr.Index] = true
			if !reflect.DeepEqual(jr.Result, want[jr.Index]) {
				t.Fatalf("workers=%d: job %d streamed result differs from batch result", workers, jr.Index)
			}
			n++
		}
		if n != len(jobs) {
			t.Fatalf("workers=%d: %d results delivered, want %d", workers, n, len(jobs))
		}
	}
}

// TestStreamMidBatchCancel cancels a stream partway through at several
// parallelism levels (run under -race in CI): the channel must close,
// no index may be delivered twice, no Runner may stay checked out of
// the pool, and — the pool-consistency proof — the same engine must
// afterwards reproduce a fresh engine's results bit-identically on the
// very platforms that were abandoned mid-run.
func TestStreamMidBatchCancel(t *testing.T) {
	jobs := mixedJobs(t)
	reference, err := New(WithParallelism(1), WithCache(false)).RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		e := New(WithParallelism(workers), WithCache(false))
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		seen := make([]bool, len(jobs))
		for jr := range e.Stream(ctx, jobs) {
			if jr.Err != nil {
				// Cancellation collateral is dropped, never delivered:
				// an error on the channel is always a real job failure.
				t.Fatalf("workers=%d: unexpected error: %v", workers, jr.Err)
			}
			if seen[jr.Index] {
				t.Fatalf("workers=%d: job %d delivered twice", workers, jr.Index)
			}
			seen[jr.Index] = true
			delivered++
			if delivered == 2 {
				cancel()
			}
		}
		cancel()
		if delivered >= len(jobs) {
			t.Fatalf("workers=%d: cancellation delivered all %d jobs", workers, delivered)
		}
		if n := runnersInFlight.Load(); n != 0 {
			t.Fatalf("workers=%d: %d Runners leaked from the pool after cancellation", workers, n)
		}

		// The abandoned platforms went back to the pool mid-run; the
		// next batch must reset them bit-identically to fresh assembly.
		got, err := e.RunBatchContext(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("workers=%d: batch after cancellation diverged from fresh-engine results", workers)
		}
	}
}

// TestRunBatchContextCancelled pins the context pass-through contract:
// a cancelled batch reports ctx.Err() — errors.Is(err,
// context.Canceled) — with no partial results, whether the context
// dies before or during the batch.
func TestRunBatchContextCancelled(t *testing.T) {
	jobs := mixedJobs(t)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(WithCache(false))
	if rs, err := e.RunBatchContext(pre, jobs); !errors.Is(err, context.Canceled) || rs != nil {
		t.Fatalf("pre-cancelled batch returned (%v, %v), want (nil, context.Canceled)", rs, err)
	}

	// Cancel from inside a run: a policy that trips the cancel during
	// its 3rd decision of the first job.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg := jobs[0].Config
	cfg.Policy = &cancelPolicy{inner: policy.NewBaseline(), cancel: cancel2, after: 3}
	cfg.Duration = 2 * sim.Second
	all := append([]Job{{Config: cfg}}, jobs...)
	if rs, err := New(WithParallelism(1), WithCache(false)).RunBatchContext(ctx, all); !errors.Is(err, context.Canceled) || rs != nil {
		t.Fatalf("mid-run cancelled batch returned (%v, %v), want (nil, context.Canceled)", rs, err)
	}
	if n := runnersInFlight.Load(); n != 0 {
		t.Fatalf("%d Runners leaked from the pool after cancelled batch", n)
	}
}

// cancelPolicy cancels a context on its nth Decide. Clones share the
// trigger, which is fine: only the first job runs it here.
type cancelPolicy struct {
	inner  soc.Policy
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancelPolicy) Name() string { return "cancel-trigger" }
func (p *cancelPolicy) Reset()       { p.inner.Reset() }
func (p *cancelPolicy) Clone() soc.Policy {
	return &cancelPolicy{inner: p.inner.Clone(), cancel: p.cancel, after: p.after}
}
func (p *cancelPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	p.calls++
	if p.calls == p.after {
		p.cancel()
	}
	return p.inner.Decide(ctx)
}

// TestBatchErrorIsTyped pins the error taxonomy on the batch path: the
// fail-fast error is a *JobError carrying the failed job's index and
// config, and its chain exposes soc.ErrInvalidConfig.
func TestBatchErrorIsTyped(t *testing.T) {
	jobs := mixedJobs(t)[:3]
	bad := jobs[1]
	bad.Config.Duration = -1 * sim.Second
	jobs[1] = bad

	_, err := New(WithParallelism(2)).RunBatchContext(context.Background(), jobs)
	if err == nil {
		t.Fatal("batch with invalid job returned no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("batch error %T does not unwrap to *JobError", err)
	}
	if je.Index != 1 {
		t.Fatalf("JobError.Index = %d, want 1", je.Index)
	}
	if je.Config.Workload.Name != bad.Config.Workload.Name {
		t.Fatalf("JobError.Config names workload %q, want %q", je.Config.Workload.Name, bad.Config.Workload.Name)
	}
	if !errors.Is(err, soc.ErrInvalidConfig) {
		t.Fatalf("invalid-config job error %v does not wrap soc.ErrInvalidConfig", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("validation failure must not read as cancellation")
	}
}

// TestStreamPerJobErrors: every failed job delivers a matching
// *JobError in band — an invalid config or a nil policy wrapping
// soc.ErrInvalidConfig, a panicking policy as *PanicError — without
// stopping the stream: every job, including the healthy one queued
// after the failures, is delivered exactly once.
func TestStreamPerJobErrors(t *testing.T) {
	all := mixedJobs(t)
	trailing := all[4] // a healthy job queued after the failures
	jobs := all[:4]
	bad := jobs[2]
	bad.Config.Duration = -1 * sim.Second
	jobs[2] = bad
	panicking := jobs[3]
	panicking.Config.Policy = newPanicPolicy(0)
	jobs = append(jobs,
		Job{}, // nil policy
		panicking,
		trailing,
	)

	got := make(map[int]JobResult, len(jobs))
	for jr := range New(WithParallelism(2)).Stream(context.Background(), jobs) {
		if _, dup := got[jr.Index]; dup {
			t.Fatalf("job %d delivered twice", jr.Index)
		}
		got[jr.Index] = jr
		if jr.Err == nil {
			continue
		}
		var je *JobError
		if !errors.As(jr.Err, &je) || je.Index != jr.Index {
			t.Fatalf("job %d error %v is not a matching *JobError", jr.Index, jr.Err)
		}
	}
	if len(got) != len(jobs) {
		t.Fatalf("stream delivered %d of %d jobs", len(got), len(jobs))
	}
	for _, i := range []int{0, 1, 3, 6} {
		if got[i].Err != nil || got[i].Result.Score <= 0 {
			t.Errorf("good job %d: err %v, score %v", i, got[i].Err, got[i].Result.Score)
		}
	}
	for _, i := range []int{2, 4} {
		if !errors.Is(got[i].Err, soc.ErrInvalidConfig) {
			t.Errorf("job %d error %v does not wrap soc.ErrInvalidConfig", i, got[i].Err)
		}
	}
	var pe *PanicError
	if !errors.As(got[5].Err, &pe) {
		t.Errorf("panicking job error %v, want *PanicError", got[5].Err)
	}
}

// TestStreamBoundedResultMemory runs a kilojob generated-workload
// sweep through Stream with a tiny worker pool and verifies every job
// arrives exactly once — the acceptance-criteria shape (the O(
// parallelism) memory claim is structural: Stream holds no result
// slice, and with the cache off nothing else accumulates; this test
// pins the delivery contract at that scale). Skipped in -short runs.
func TestStreamBoundedResultMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("kilojob sweep")
	}
	jobs := generatedJobs(t, 1000)
	e := New(WithParallelism(4), WithCache(false))
	seen := make([]bool, len(jobs))
	n := 0
	for jr := range e.Stream(context.Background(), jobs) {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", jr.Index, jr.Err)
		}
		if seen[jr.Index] {
			t.Fatalf("job %d delivered twice", jr.Index)
		}
		seen[jr.Index] = true
		n++
	}
	if n != len(jobs) {
		t.Fatalf("delivered %d of %d jobs", n, len(jobs))
	}
	if in := runnersInFlight.Load(); in != 0 {
		t.Fatalf("%d Runners still checked out", in)
	}
}

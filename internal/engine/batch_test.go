package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
)

// keyedPanic panics as its run starts: soc resets the policy before
// the run's first cancellation check, so every claimed copy panics
// whatever a fail-fast batch cancels meanwhile. Unlike panicPolicy it
// is registered, so its jobs have a cache key and copies share it.
type keyedPanic struct{ pinned }

func (p *keyedPanic) Clone() soc.Policy { c := *p; return &c }
func (*keyedPanic) Reset()              { panic("keyedPanic: injected panic") }

func init() {
	if err := policy.Register("enginetest-keyed-panic", pinnedCodec(func(i int) soc.Policy {
		return &keyedPanic{pinned{i}}
	})); err != nil {
		panic(err)
	}
}

// sequential runs every job's config through soc.Run on a cloned
// policy: the reference every engine batch must reproduce.
func sequential(t *testing.T, jobs []Job) []soc.Result {
	t.Helper()
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
	return want
}

// runChecked runs jobs as one batch on e and fails unless the results
// equal want and no two of them, nor a later LRU hit, share memory. It
// returns the cache counters as the batch left them.
func runChecked(t *testing.T, e *Engine, jobs []Job, want []soc.Result) Stats {
	t.Helper()
	rs, err := e.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("parallelism %d: results differ from sequential soc.Run", e.Parallelism())
	}
	st := e.CacheStats()
	for i := range rs {
		rs[i].PointResidency[0] = float64(-1 - i)
	}
	for i := range rs {
		if rs[i].PointResidency[0] != float64(-1-i) {
			t.Fatalf("parallelism %d: result %d aliases another result", e.Parallelism(), i)
		}
	}
	again, err := e.RunBatchContext(context.Background(), jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], want[0]) {
		t.Fatalf("parallelism %d: a delivered result aliases its LRU entry", e.Parallelism())
	}
	return st
}

// TestBatchDuplicates: a batch of n copies of one config. Whatever the
// worker count, every copy equals sequential soc.Run and owns its
// memory, and each copy is one LRU hit or one simulation. On one worker
// the copies run in turn, so the first simulates and the rest hit.
func TestBatchDuplicates(t *testing.T) {
	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Config: lruConfig(t, sim.Second)}
	}
	want := sequential(t, jobs)

	for _, workers := range []int{1, 2, 8} {
		st := runChecked(t, New(WithParallelism(workers)), jobs, want)
		if st.Misses+st.Hits != n || st.Misses < 1 {
			t.Fatalf("workers=%d: %d misses / %d hits for %d copies", workers, st.Misses, st.Hits, n)
		}
		if workers == 1 && st.Misses != 1 {
			t.Fatalf("workers=1: %d misses / %d hits, want 1 / %d", st.Misses, st.Hits, n-1)
		}
	}
}

// TestDuplicateAfterEviction: with a one-entry LRU, the batch [A, B, A]
// can evict A before its copy is looked up. The copy then simulates
// again and yields the same bits; on one worker it always does.
func TestDuplicateAfterEviction(t *testing.T) {
	a := lruConfig(t, 100*sim.Millisecond)
	b := lruConfig(t, 110*sim.Millisecond)
	jobs := []Job{{Config: a}, {Config: b}, {Config: a}}
	want := sequential(t, jobs)

	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 10; round++ {
			st := runChecked(t, New(WithCacheSize(1), WithParallelism(workers)), jobs, want)
			if st.Misses+st.Hits != len(jobs) || st.Misses < 2 {
				t.Fatalf("workers=%d: %d misses / %d hits for [A, B, A]", workers, st.Misses, st.Hits)
			}
			if workers == 1 && st.Misses != 3 {
				t.Fatalf("workers=1: %d misses / %d hits, want 3 / 0", st.Misses, st.Hits)
			}
		}
	}
}

// TestDuplicatePanicReachesEveryCopy: every copy of a panicking job
// runs, panics and receives its own *JobError wrapping a *PanicError,
// and the fail-fast batch reports the lowest index.
func TestDuplicatePanicReachesEveryCopy(t *testing.T) {
	good := lruConfig(t, 100*sim.Millisecond)
	bad := lruConfig(t, 100*sim.Millisecond)
	bad.Policy = &keyedPanic{pinned{7}}
	jobs := []Job{{Config: good}, {Config: bad}, {Config: good}, {Config: bad}, {Config: bad}}
	panicked := map[int]bool{1: true, 3: true, 4: true}

	for _, workers := range []int{1, 2, 8} {
		e := New(WithParallelism(workers))
		seen := make(map[int]bool)
		for jr := range e.Stream(context.Background(), jobs) {
			if seen[jr.Index] {
				t.Fatalf("workers=%d: job %d delivered twice", workers, jr.Index)
			}
			seen[jr.Index] = true
			if !panicked[jr.Index] {
				if jr.Err != nil {
					t.Fatalf("workers=%d: healthy job %d failed: %v", workers, jr.Index, jr.Err)
				}
				continue
			}
			var je *JobError
			var pe *PanicError
			if !errors.As(jr.Err, &je) || je.Index != jr.Index || !errors.As(jr.Err, &pe) {
				t.Fatalf("workers=%d: job %d error %v, want a matching *JobError wrapping *PanicError", workers, jr.Index, jr.Err)
			}
		}
		if len(seen) != len(jobs) {
			t.Fatalf("workers=%d: %d of %d jobs delivered", workers, len(seen), len(jobs))
		}
		if st := e.CacheStats(); st.Panics != len(panicked) {
			t.Fatalf("workers=%d: %d panics recovered, want %d (one per copy)", workers, st.Panics, len(panicked))
		}

		_, err := New(WithParallelism(workers)).RunBatchContext(context.Background(), jobs)
		var je *JobError
		var pe *PanicError
		if !errors.As(err, &je) || je.Index != 1 || !errors.As(err, &pe) {
			t.Fatalf("workers=%d: batch error %v, want job 1's *PanicError", workers, err)
		}
		if n := RunnersInFlight(); n != 0 {
			t.Fatalf("workers=%d: %d Runners leaked", workers, n)
		}
	}
}

// TestBatchMixedTiers: 64 jobs over 8 configs, 4 of them already
// cached. Whatever the worker count, results equal sequential soc.Run,
// every job is one LRU hit or one simulation, and each uncached config
// simulates at least once. On one worker each simulates exactly once.
func TestBatchMixedTiers(t *testing.T) {
	configs := make([]Job, 8)
	for c := range configs {
		configs[c] = Job{Config: lruConfig(t, sim.Time(100+10*c)*sim.Millisecond)}
	}
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = configs[(5*i+i/8)%8]
	}
	want := sequential(t, configs)

	for _, workers := range []int{1, 2, 8} {
		e := New(WithParallelism(workers))
		if _, err := e.RunBatchContext(context.Background(), configs[:4]); err != nil {
			t.Fatal(err)
		}
		before := e.CacheStats()
		rs, err := e.RunBatchContext(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(rs[i], want[(5*i+i/8)%8]) {
				t.Fatalf("workers=%d: job %d differs from sequential soc.Run", workers, i)
			}
		}
		after := e.CacheStats()
		misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
		if misses+hits != len(jobs) || misses < 4 || workers == 1 && misses != 4 {
			t.Fatalf("workers=%d: batch took %d misses / %d hits, want 4 / 60 on one worker", workers, misses, hits)
		}
	}
}

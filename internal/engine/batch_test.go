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

// keyedPanic panics on its first Decide. Unlike panicPolicy it is
// registered, so its jobs have a cache key and identical ones coalesce.
type keyedPanic struct{ pinned }

func (p *keyedPanic) Clone() soc.Policy { c := *p; return &c }
func (*keyedPanic) Decide(soc.PolicyContext) soc.PolicyDecision {
	panic("keyedPanic: injected panic")
}

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

// TestCoalesceAfterEviction: with a one-entry LRU, the batch [A, B, A]
// evicts A before its duplicate can be looked up. The duplicate is
// served from A's finished task (or queued on it while A still runs),
// never simulated again, and no two results share memory.
func TestCoalesceAfterEviction(t *testing.T) {
	a := lruConfig(t, 100*sim.Millisecond)
	b := lruConfig(t, 110*sim.Millisecond)
	jobs := []Job{{Config: a}, {Config: b}, {Config: a}}
	want := sequential(t, jobs)

	for _, workers := range []int{1, 2} {
		for round := 0; round < 10; round++ {
			e := New(WithCacheSize(1), WithParallelism(workers))
			rs, err := e.RunBatchContext(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs, want) {
				t.Fatalf("workers=%d: results differ from sequential soc.Run", workers)
			}
			if st := e.CacheStats(); st.Misses != 2 || st.Hits != 1 {
				t.Fatalf("workers=%d: stats = %+v, want 2 misses / 1 hit", workers, st)
			}
			rs[0].PointResidency[0] = -1
			if rs[2].PointResidency[0] == -1 {
				t.Fatalf("workers=%d: coalesced results alias one another", workers)
			}
		}
	}
}

// TestCoalescedPanicReachesEverySibling: every duplicate of a panicking
// job receives its own *JobError wrapping the one *PanicError — the
// job runs once — and the fail-fast batch reports the lowest index.
func TestCoalescedPanicReachesEverySibling(t *testing.T) {
	good := lruConfig(t, 100*sim.Millisecond)
	bad := lruConfig(t, 100*sim.Millisecond)
	bad.Policy = &keyedPanic{pinned{7}}
	jobs := []Job{{Config: good}, {Config: bad}, {Config: good}, {Config: bad}, {Config: bad}}
	panicked := map[int]bool{1: true, 3: true, 4: true}

	for _, workers := range []int{1, 2, 4} {
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
		if st := e.CacheStats(); st.Panics != 1 {
			t.Fatalf("workers=%d: %d panics recovered, want 1 (duplicates coalesce)", workers, st.Panics)
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
// cached. Whatever the worker count, results equal sequential soc.Run
// and the batch simulates exactly the 4 uncached configs once each.
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
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 4 || hits != 60 {
			t.Fatalf("workers=%d: batch took %d misses / %d hits, want 4 / 60", workers, misses, hits)
		}
	}
}

// Concurrency hammer for the shared span cache: many Runners, one
// cache, real governors. Run under -race (CI does) this doubles as the
// data-race proof; in any mode it proves results never depend on cache
// timing — every concurrent cached run is bit-identical to its
// cache-disabled reference, whatever interleaving of lookups and
// inserts the scheduler produces.
package soc_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

func TestSpanCacheConcurrentIdentity(t *testing.T) {
	policies := []func() soc.Policy{
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
	}
	var workloads []workload.Workload
	for _, name := range []string{"473.astar", "470.lbm"} {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	workloads = append(workloads, workload.GraphicsSuite()[0])

	type job struct {
		w  workload.Workload
		mk func() soc.Policy
	}
	var jobs []job
	for _, w := range workloads {
		for _, mk := range policies {
			jobs = append(jobs, job{w, mk})
		}
	}

	mkConfig := func(j job, disable bool) soc.Config {
		cfg := soc.DefaultConfig()
		cfg.Workload = j.w
		cfg.Policy = j.mk()
		cfg.Duration = 100 * sim.Millisecond
		cfg.DisableSpanCache = disable
		return cfg
	}

	// Cache-disabled references, computed once.
	refs := make([]soc.Result, len(jobs))
	for i, j := range jobs {
		r, err := soc.Run(mkConfig(j, true))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	// The same jobs repeated: repetitions guarantee warm traffic, so
	// the hammer exercises concurrent hits against concurrent inserts,
	// not just a cold fill. The bounded arm holds fewer entries than
	// the jobs' distinct spans (18), so the lock-free drop path of a
	// full cache races with the inserts that fill it and with hits on
	// what they inserted.
	const reps = 3
	const smallBound = 8
	arms := []struct {
		name  string
		par   int
		bound int
	}{
		{"parallelism-1", 1, 0},
		{"parallelism-4", 4, 0},
		{"parallelism-16", 16, 0},
		{fmt.Sprintf("parallelism-16-bound-%d", smallBound), 16, smallBound},
	}
	for _, arm := range arms {
		par := arm.par
		t.Run(arm.name, func(t *testing.T) {
			cache := soc.NewSpanCache(arm.bound)
			work := make(chan int, len(jobs)*reps)
			for rep := 0; rep < reps; rep++ {
				for i := range jobs {
					work <- i
				}
			}
			close(work)

			var wg sync.WaitGroup
			errs := make(chan string, len(jobs)*reps)
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := soc.NewRunner()
					r.SetSpanCache(cache)
					for i := range work {
						got, err := r.Run(mkConfig(jobs[i], false))
						if err != nil {
							errs <- fmt.Sprintf("%s/%s: %v", jobs[i].w.Name, jobs[i].mk().Name(), err)
							continue
						}
						if !reflect.DeepEqual(got, refs[i]) {
							errs <- fmt.Sprintf("%s/%s: cached run != cache-disabled run", jobs[i].w.Name, jobs[i].mk().Name())
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
			s := cache.Stats()
			if s.Hits == 0 {
				t.Errorf("hammer scored no span hits: %+v", s)
			}
			if arm.bound > 0 {
				if s.Entries > arm.bound {
					t.Errorf("%d entries resident, bound %d", s.Entries, arm.bound)
				}
				if s.Dropped == 0 {
					t.Errorf("bounded cache dropped nothing — the arm never reached its bound: %+v", s)
				}
			}
		})
	}
}

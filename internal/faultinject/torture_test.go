package faultinject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sysscale/internal/diskcache"
	"sysscale/internal/engine"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

// tortureSize is the torture batch size — the acceptance bar is >= 500
// jobs per parallelism level.
const tortureSize = 600

// torturePlan maps ~2% of jobs to panics and ~1% to stalls,
// deterministically in the seed.
var torturePlan = Plan{Seed: 0xC0FFEE, PanicPerMille: 20, StallPerMille: 10}

// tortureWorkloads returns a small mixed suite.
func tortureWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	var ws []workload.Workload
	for _, n := range []string{"416.gamess", "470.lbm", "473.astar"} {
		w, err := workload.SPEC(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return append(ws, workload.GraphicsSuite()[0])
}

// tortureJobs builds the torture batch: tortureSize jobs over a mixed
// workload × policy grid, every config made distinct by a per-job
// Duration step (so nothing coalesces and stats count exactly), with the plan's fault
// kinds wired in as chaos policy wrappers. Stall jobs carry a per-job
// deadline far below their stall, so they fail with ErrJobTimeout
// deterministically. Returns the jobs and each job's planned kind.
func tortureJobs(t *testing.T) ([]engine.Job, []Kind) {
	t.Helper()
	ws := tortureWorkloads(t)
	pols := []func() soc.Policy{
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewMemScaleRedist() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
	}
	jobs := make([]engine.Job, 0, tortureSize)
	kinds := make([]Kind, tortureSize)
	for i := 0; i < tortureSize; i++ {
		cfg := soc.DefaultConfig()
		cfg.Workload = ws[i%len(ws)]
		cfg.Policy = pols[i%len(pols)]()
		cfg.Duration = 120*sim.Millisecond + sim.Time(i)*cfg.SampleInterval // distinct fingerprint per job
		job := engine.Job{Config: cfg}
		kinds[i] = torturePlan.Kind(i)
		switch kinds[i] {
		case KindPanic:
			job.Config.Policy = NewChaos(cfg.Policy, ModePanic)
		case KindStall:
			ch := NewChaos(cfg.Policy, ModeStall)
			ch.Stall = 150 * time.Millisecond
			job.Config.Policy = ch
			job.Timeout = 30 * time.Millisecond
		}
		jobs = append(jobs, job)
	}
	return jobs, kinds
}

// kindCounts tallies a plan's kinds.
func kindCounts(kinds []Kind) map[Kind]int {
	m := make(map[Kind]int)
	for _, k := range kinds {
		m[k]++
	}
	return m
}

// TestTortureBatch is the acceptance torture run (run under -race): at
// parallelism 1, 4, and 16, a 600-job batch with injected panics,
// stalls, and disk I/O faults must complete without crashing,
// leave zero Runners checked out, fail exactly the planned jobs with
// exactly the planned error classes, return every clean job's result
// bit-identical to a fault-free baseline, and account Hits / Misses /
// Panics / DiskErrors exactly — at every parallelism level, with the
// identical injected fault set (that is what seed-determinism means).
func TestTortureBatch(t *testing.T) {
	jobs, kinds := tortureJobs(t)
	counts := kindCounts(kinds)
	if clean := counts[KindNone]; clean == 0 || clean == tortureSize {
		t.Fatalf("degenerate plan: %v", counts)
	}
	t.Logf("fault plan over %d jobs: %d panic, %d stall",
		tortureSize, counts[KindPanic], counts[KindStall])

	// Fault-free baseline for the clean jobs, computed once.
	base := engine.New(engine.WithParallelism(4))
	want := make([]soc.Result, len(jobs))
	for i, j := range jobs {
		if kinds[i] != KindNone {
			continue
		}
		r, err := base.RunContext(context.Background(), j.Config)
		if err != nil {
			t.Fatalf("baseline job %d: %v", i, err)
		}
		want[i] = r
	}

	var firstInjected int64 = -1
	for _, par := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			store, err := diskcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			faulty := NewStore(store, 0xD15C)
			faulty.FailGets(150) // 15% of keys fail reads
			faulty.FailPuts(150) // 15% of keys fail writes
			e := engine.New(
				engine.WithParallelism(par),
				engine.WithDiskTier(faulty), // bare tier: exact per-job error accounting
			)

			results := streamAll(t, e, jobs)
			if got := engine.RunnersInFlight(); got != 0 {
				t.Fatalf("runnersInFlight = %d after batch, want 0", got)
			}

			for i, jr := range results {
				switch kinds[i] {
				case KindNone:
					if jr.Err != nil {
						t.Errorf("clean job %d failed: %v", i, jr.Err)
						continue
					}
					if !reflect.DeepEqual(jr.Result, want[i]) {
						t.Errorf("clean job %d not bit-identical to fault-free run", i)
					}
				case KindPanic:
					var pe *engine.PanicError
					if !errors.As(jr.Err, &pe) {
						t.Errorf("panic job %d: err %v, want *PanicError", i, jr.Err)
					} else if len(pe.Stack) == 0 {
						t.Errorf("panic job %d: empty stack", i)
					}
				case KindStall:
					if !errors.Is(jr.Err, engine.ErrJobTimeout) {
						t.Errorf("stall job %d: err %v, want ErrJobTimeout", i, jr.Err)
					}
					if errors.Is(jr.Err, context.DeadlineExceeded) {
						t.Errorf("stall job %d: timeout reads as DeadlineExceeded — collateral filters would eat it", i)
					}
				}
			}

			// Exact accounting. Every clean job is a distinct cacheable
			// config: one simulation (a Miss), one disk lookup (all
			// misses — fresh dir — some injected), one write-through.
			// Chaos jobs are uncacheable and all fail: no cache or disk
			// traffic, no Misses.
			clean := counts[KindNone]
			st := e.CacheStats()
			if st.Misses != clean || st.Hits != 0 {
				t.Errorf("Misses/Hits = %d/%d, want %d/0", st.Misses, st.Hits, clean)
			}
			if st.Panics != counts[KindPanic] {
				t.Errorf("Panics = %d, want %d", st.Panics, counts[KindPanic])
			}
			injected := faulty.InjectedGets() + faulty.InjectedPuts()
			if injected == 0 {
				t.Fatalf("no disk faults fired — torture isn't torturing")
			}
			if st.DiskErrors != int(injected) {
				t.Errorf("DiskErrors = %d, want %d (ground truth)", st.DiskErrors, injected)
			}
			if st.DiskMisses != clean || st.DiskHits != 0 {
				t.Errorf("DiskMisses/DiskHits = %d/%d, want %d/0", st.DiskMisses, st.DiskHits, clean)
			}
			// The injected fault set is scheduling-independent: every
			// parallelism level must fire the identical count.
			if firstInjected < 0 {
				firstInjected = injected
			} else if injected != firstInjected {
				t.Errorf("injected faults = %d at parallelism %d, %d at first level — fault set not deterministic",
					injected, par, firstInjected)
			}
		})
	}
}

// streamAll drains e.Stream over jobs into input order, failing the
// test unless every index is delivered exactly once.
func streamAll(t *testing.T, e *engine.Engine, jobs []engine.Job) []engine.JobResult {
	t.Helper()
	out := make([]engine.JobResult, len(jobs))
	delivered := make([]int, len(jobs))
	for jr := range e.Stream(context.Background(), jobs) {
		out[jr.Index] = jr
		delivered[jr.Index]++
	}
	for i, n := range delivered {
		if n != 1 {
			t.Fatalf("job %d delivered %d times, want exactly once", i, n)
		}
	}
	return out
}

// TestBrokenDiskTripsBreaker proves the dying-disk contract: once the
// tier fails threshold consecutive operations, the breaker trips
// within those jobs, all further I/O stops, and
// Stats.DiskDegraded plus Engine.DiskCacheError report it. When the
// disk heals, the next probe closes the breaker and traffic resumes.
func TestBrokenDiskTripsBreaker(t *testing.T) {
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewStore(store, 1)
	faulty.SetBroken(true)

	const threshold = 4
	e := engine.New(
		engine.WithParallelism(1), // deterministic op order
		engine.WithDiskTier(diskcache.NewBreaker(faulty, threshold, 50*time.Millisecond)),
	)

	ws := tortureWorkloads(t)
	var jobs []engine.Job
	for i := 0; i < 40; i++ {
		cfg := soc.DefaultConfig()
		cfg.Workload = ws[i%len(ws)]
		cfg.Policy = policy.NewBaseline()
		cfg.Duration = 120*sim.Millisecond + sim.Time(i)*cfg.SampleInterval
		jobs = append(jobs, engine.Job{Config: cfg})
	}
	if _, err := e.RunBatchContext(context.Background(), jobs); err != nil {
		t.Fatalf("degraded-disk batch failed: %v (disk faults must never fail jobs)", err)
	}
	// At parallelism 1 the op sequence is Get,Put per job: exactly
	// `threshold` operations reach the tier before the trip, then zero.
	if got := faulty.Ops(); got != threshold {
		t.Errorf("tier saw %d operations, want exactly %d (trip then silence)", got, threshold)
	}
	if st := e.CacheStats(); !st.DiskDegraded {
		t.Errorf("Stats.DiskDegraded = false on a tripped tier")
	}
	if err := e.DiskCacheError(); !errors.Is(err, engine.ErrDiskDegraded) {
		t.Errorf("DiskCacheError = %v, want ErrDiskDegraded-classed", err)
	}

	// Heal the disk; after the probe interval the next operation is
	// admitted as a probe, succeeds, and closes the breaker.
	faulty.SetBroken(false)
	time.Sleep(80 * time.Millisecond)
	e.ClearCache() // force disk lookups (results are memoized in the LRU)
	if _, err := e.RunBatchContext(context.Background(), jobs[:10]); err != nil {
		t.Fatalf("post-heal batch failed: %v", err)
	}
	if st := e.CacheStats(); st.DiskDegraded {
		t.Errorf("breaker still open after the disk healed and a probe ran")
	}
	if err := e.DiskCacheError(); err != nil {
		t.Errorf("DiskCacheError = %v after heal, want nil", err)
	}
	if faulty.InnerOps() == 0 {
		t.Errorf("no I/O reached the healed tier")
	}
	if engine.RunnersInFlight() != 0 {
		t.Errorf("runnersInFlight = %d, want 0", engine.RunnersInFlight())
	}
}

// TestChaosHasNoKey: Chaos stays out of every cache tier because it is
// not registered, so a chaotic config, bare or under a registered
// wrapper, has no canonical bytes and hence no cache key.
func TestChaosHasNoKey(t *testing.T) {
	cfg := soc.DefaultConfig()
	w, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	ch := NewChaos(policy.NewBaseline(), ModePanic)
	for _, p := range []soc.Policy{ch, policy.WithoutOptimizedMRC(ch)} {
		cfg.Policy = p
		if _, ok := spec.AppendConfig(nil, cfg); ok {
			t.Errorf("%s: chaotic config has canonical bytes", p.Name())
		}
	}
}

// TestTornWriteHealsAsCorruption: a Put whose write tears on disk
// (reported success, truncated entry) must read back as a pruned
// corruption — a counted miss — and the re-simulated result must be
// bit-identical.
func TestTornWriteHealsAsCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewStore(store, 7)
	faulty.ShortWrites(dir, 1000) // tear every write

	cfg := soc.DefaultConfig()
	w, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	cfg.Policy = policy.NewBaseline()
	cfg.Duration = 120 * sim.Millisecond

	e := engine.New(engine.WithDiskTier(faulty))
	want, err := e.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.TornWrites() == 0 {
		t.Fatalf("no torn writes fired")
	}

	// A fresh engine over the same (torn) directory: the read detects
	// the corruption, prunes, degrades to a miss, and re-simulates.
	e2 := engine.New(engine.WithDiskCache(dir))
	got, err := e2.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result after torn-write recovery differs")
	}
	st := e2.CacheStats()
	if st.DiskErrors != 1 || st.DiskHits != 0 {
		t.Errorf("DiskErrors/DiskHits = %d/%d, want 1/0 (torn entry pruned, not served)", st.DiskErrors, st.DiskHits)
	}
}

// TestPlanDeterminism: the fault map is a pure function of the seed.
func TestPlanDeterminism(t *testing.T) {
	a, b := torturePlan, torturePlan
	for i := 0; i < tortureSize; i++ {
		if a.Kind(i) != b.Kind(i) {
			t.Fatalf("plan not deterministic at %d", i)
		}
	}
	other := Plan{Seed: torturePlan.Seed + 1, PanicPerMille: 20, StallPerMille: 10}
	diff := 0
	for i := 0; i < tortureSize; i++ {
		if torturePlan.Kind(i) != other.Kind(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Errorf("different seeds produced identical fault maps")
	}
}

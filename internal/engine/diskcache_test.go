package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"sysscale/internal/diskcache"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// diskJobs is a small all-cacheable batch of distinct jobs.
func diskJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, n := range []string{"416.gamess", "470.lbm"} {
		w, err := workload.SPEC(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []soc.Policy{policy.NewBaseline(), policy.NewSysScaleDefault()} {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = p
			cfg.Duration = 300 * sim.Millisecond
			jobs = append(jobs, Job{Config: cfg})
		}
	}
	return jobs
}

// TestDiskCacheFreshEngineServesFromDisk is the cross-process identity
// contract, approximated in-process: a result computed and persisted
// by one engine is returned bit-identically by a brand-new engine
// (empty memory cache, fresh disk store over the same directory) —
// DiskHits == jobs, zero simulations. CI's disk-cache smoke runs the
// same contract across two real processes.
func TestDiskCacheFreshEngineServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	jobs := diskJobs(t)

	first := New(WithDiskCache(dir))
	if err := first.DiskCacheError(); err != nil {
		t.Fatal(err)
	}
	want, err := first.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	fs := first.CacheStats()
	if fs.DiskHits != 0 || fs.DiskMisses != len(jobs) || fs.Misses != len(jobs) {
		t.Errorf("first run stats = %+v, want 0 disk hits / %d disk misses", fs, len(jobs))
	}
	if fs.DiskBytes <= 0 {
		t.Errorf("first run persisted no bytes: %+v", fs)
	}

	second := New(WithDiskCache(dir))
	got, err := second.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk-served results not bit-identical to computed results")
	}
	ss := second.CacheStats()
	if ss.DiskHits != len(jobs) {
		t.Errorf("second engine DiskHits = %d, want %d (every job from disk)", ss.DiskHits, len(jobs))
	}
	if ss.Misses != 0 {
		t.Errorf("second engine simulated %d jobs despite a warm disk tier", ss.Misses)
	}

	// A third batch on the same engine is served from the promoted
	// in-memory entries — no further disk traffic.
	if _, err := second.RunBatchContext(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	ts := second.CacheStats()
	if ts.DiskHits != ss.DiskHits || ts.DiskMisses != ss.DiskMisses {
		t.Errorf("warm-memory batch touched disk: %+v -> %+v", ss, ts)
	}
	if ts.Hits != len(jobs) {
		t.Errorf("warm-memory batch Hits = %d, want %d", ts.Hits, len(jobs))
	}
}

// TestDiskCacheCorruptEntryDegradesToMiss: a rotted entry re-simulates
// (correct result), counts a DiskErrors, and is pruned — a corrupt
// cache never produces a wrong result or aborts the batch.
func TestDiskCacheCorruptEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	jobs := diskJobs(t)

	first := New(WithDiskCache(dir))
	want, err := first.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-flip every persisted entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			continue
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped != len(jobs) {
		t.Fatalf("flipped %d entries, want %d", flipped, len(jobs))
	}

	second := New(WithDiskCache(dir))
	got, err := second.RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("corrupt disk tier aborted the batch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("corruption produced different results")
	}
	st := second.CacheStats()
	if st.DiskErrors != len(jobs) {
		t.Errorf("DiskErrors = %d, want %d", st.DiskErrors, len(jobs))
	}
	if st.Misses != len(jobs) {
		t.Errorf("Misses = %d, want %d (every corrupt entry re-simulated)", st.Misses, len(jobs))
	}

	// The re-simulations were written back: a third engine hits disk.
	third := New(WithDiskCache(dir))
	if _, err := third.RunBatchContext(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if st := third.CacheStats(); st.DiskHits != len(jobs) {
		t.Errorf("repaired tier DiskHits = %d, want %d", st.DiskHits, len(jobs))
	}
}

// TestDiskCacheUncacheableBypasses: jobs whose policy is not
// registered never touch the disk tier — no lookups, no entries.
func TestDiskCacheUncacheableBypasses(t *testing.T) {
	dir := t.TempDir()
	e := New(WithDiskCache(dir))

	w, err := workload.SPEC("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = &countingPolicy{inner: policy.NewSysScaleDefault(), n: new(atomic.Int64)}
	cfg.Duration = 300 * sim.Millisecond
	if _, err := e.RunBatchContext(context.Background(), []Job{{Config: cfg}, {Config: cfg}}); err != nil {
		t.Fatal(err)
	}

	st := e.CacheStats()
	if st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskBytes != 0 {
		t.Errorf("uncacheable jobs touched the disk tier: %+v", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("uncacheable jobs persisted %d files", len(ents))
	}
}

// TestDiskCacheOpenFailure: an unopenable cache dir disables the tier,
// is reported by DiskCacheError, and leaves the engine fully working.
func TestDiskCacheOpenFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(WithDiskCache(file))
	if e.DiskCacheError() == nil {
		t.Errorf("DiskCacheError nil for a cache dir that is a file")
	}
	jobs := diskJobs(t)[:1]
	if _, err := e.RunBatchContext(context.Background(), jobs); err != nil {
		t.Fatalf("engine without disk tier failed: %v", err)
	}
	if st := e.CacheStats(); st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Errorf("disabled tier reported traffic: %+v", st)
	}
}

// TestDiskCacheInstallsBreaker: WithDiskCache wraps its store in a
// circuit breaker, so a dying production disk degrades the tier
// instead of failing I/O on every job. The breaker's defaults are
// diskcache's to test.
func TestDiskCacheInstallsBreaker(t *testing.T) {
	e := New(WithDiskCache(t.TempDir()))
	if err := e.DiskCacheError(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.disk.(*diskcache.Breaker); !ok {
		t.Errorf("WithDiskCache tier is %T, want *diskcache.Breaker", e.disk)
	}
}

// TestDiskTierInstalledAsGiven: WithDiskTier installs its tier
// unwrapped; a caller that wants a breaker passes one.
func TestDiskTierInstalledAsGiven(t *testing.T) {
	tier := &enospcTier{}
	if e := New(WithDiskTier(tier)); e.disk != tier {
		t.Errorf("WithDiskTier tier is %T, want the given %T unwrapped", e.disk, tier)
	}
}

package engine

import (
	"context"
	"reflect"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

// lruConfig returns a distinct config per duration step (duration is
// part of the fingerprint, so each d is its own cache entry).
func lruConfig(t *testing.T, d sim.Time) soc.Config {
	t.Helper()
	w, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewBaseline()
	cfg.Duration = d
	return cfg
}

// TestCacheLRUEviction pins the result cache's bound and recency
// order: with a 2-entry cache, a third distinct config evicts the
// least recently *used* entry — not the oldest inserted — and evicted
// configs re-simulate.
func TestCacheLRUEviction(t *testing.T) {
	e := New(WithCacheSize(2))
	a := lruConfig(t, 100*sim.Millisecond)
	b := lruConfig(t, 110*sim.Millisecond)
	c := lruConfig(t, 120*sim.Millisecond)

	run := func(cfg soc.Config) {
		t.Helper()
		if _, err := e.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	misses := func() int { return e.CacheStats().Misses }

	run(a) // miss: cache {a}
	run(b) // miss: cache {b, a}
	run(a) // hit, refreshes a's recency: cache {a, b}
	m := misses()
	run(c) // miss, evicts b (LRU), not a: cache {c, a}

	st := e.CacheStats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (bound)", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if misses() != m+1 {
		t.Fatalf("c was not a miss")
	}

	run(a) // still resident: its hit above must have outranked b
	if misses() != m+1 {
		t.Error("a was evicted despite being more recently used than b")
	}
	run(b) // evicted: must re-simulate
	if misses() != m+2 {
		t.Error("b was served from cache after its eviction")
	}
}

// TestCacheSizeDefaulted pins the always-bounded contract: an engine
// built without WithCacheSize still carries the default bound.
func TestCacheSizeDefaulted(t *testing.T) {
	if e := New(); e.cacheSize != DefaultCacheSize {
		t.Fatalf("default cacheSize = %d, want %d", e.cacheSize, DefaultCacheSize)
	}
	if e := New(WithCacheSize(-3)); e.cacheSize != DefaultCacheSize {
		t.Fatalf("negative WithCacheSize = %d, want default %d", e.cacheSize, DefaultCacheSize)
	}
	if e := New(WithCacheSize(7)); e.cacheSize != 7 {
		t.Fatalf("WithCacheSize(7) = %d", e.cacheSize)
	}
}

// TestLookup: Stream delivers each job's spec.Key; Lookup finds the
// result under it in the LRU (a Hit), or in the disk tier on a fresh
// engine (a DiskHit, promoted so the next Lookup is a Hit), always as
// a copy; and misses a key no tier holds, or any key on an engine
// built WithCache(false).
func TestLookup(t *testing.T) {
	cfg := lruConfig(t, 100*sim.Millisecond)
	want, ok := spec.Key(cfg)
	if !ok {
		t.Fatal("config has no key")
	}
	dir := t.TempDir()
	e := New(WithDiskCache(dir))
	if _, ok := e.Lookup(want); ok {
		t.Fatal("Lookup hit before any run")
	}
	var jr JobResult
	for jr = range e.Stream(context.Background(), []Job{{Config: cfg}}) {
	}
	if jr.Err != nil || !jr.Keyed || jr.Key != want {
		t.Fatalf("Stream delivered err %v, keyed %v, key %x; want key %x", jr.Err, jr.Keyed, jr.Key, want)
	}

	hits := e.CacheStats().Hits
	got, ok := e.Lookup(want)
	if !ok || !reflect.DeepEqual(got, jr.Result) || e.CacheStats().Hits != hits+1 {
		t.Fatalf("LRU Lookup: ok %v, equal %v, hits %d -> %d", ok, reflect.DeepEqual(got, jr.Result), hits, e.CacheStats().Hits)
	}
	got.PointResidency[0] = -1
	if again, _ := e.Lookup(want); !reflect.DeepEqual(again, jr.Result) {
		t.Fatal("a Lookup result aliases the LRU entry")
	}

	fresh := New(WithDiskCache(dir))
	if got, ok := fresh.Lookup(want); !ok || !reflect.DeepEqual(got, jr.Result) {
		t.Fatalf("disk Lookup: ok %v", ok)
	}
	if st := fresh.CacheStats(); st.DiskHits != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after a disk Lookup: %+v, want 1 disk hit promoted into the LRU", st)
	}
	if _, ok := fresh.Lookup(want); !ok || fresh.CacheStats().Hits != 1 || fresh.CacheStats().DiskHits != 1 {
		t.Fatalf("promoted entry not served from the LRU: %+v", fresh.CacheStats())
	}

	off := New(WithCache(false))
	for jr = range off.Stream(context.Background(), []Job{{Config: cfg}}) {
	}
	if jr.Err != nil || jr.Keyed {
		t.Fatalf("WithCache(false) delivered err %v, keyed %v", jr.Err, jr.Keyed)
	}
	if _, ok := off.Lookup(want); ok {
		t.Fatal("Lookup hit on an engine built WithCache(false)")
	}
}

// BenchmarkLookup times Lookup of a key resident in the LRU: the
// per-job engine cost of a sweep served by key.
func BenchmarkLookup(b *testing.B) {
	cfg := soc.DefaultConfig()
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Workload = w
	cfg.Policy = policy.NewSysScaleDefault()
	cfg.Duration = 100 * sim.Millisecond
	e := New()
	if _, err := e.RunContext(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	key, _ := spec.Key(cfg)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := e.Lookup(key); !ok {
			b.Fatal("key not resident")
		}
	}
}

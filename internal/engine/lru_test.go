package engine

import (
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
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
		if _, err := e.Run(cfg); err != nil {
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

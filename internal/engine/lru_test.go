package engine

import (
	"context"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
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

// lruKeys lists the LRU's keys, most recently used first, by their
// first byte. Callers hold e.mu or own e.
func lruKeys(e *Engine) []byte {
	var ks []byte
	for el := e.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*cacheEntry).key[0])
	}
	return ks
}

// pushThenRemove is the LRU insert that cachePut's reuse replaced:
// push a new entry, then drop the back ones beyond the bound. It is
// the oracle TestCachePutMatchesPushThenRemove compares against.
func pushThenRemove(e *Engine, key cacheKey, res soc.Result) {
	if el, ok := e.cache[key]; ok {
		el.Value.(*cacheEntry).res = res
		e.order.MoveToFront(el)
		return
	}
	e.cache[key] = e.order.PushFront(&cacheEntry{key: key, res: res})
	for len(e.cache) > e.cacheSize {
		back := e.order.Back()
		e.order.Remove(back)
		delete(e.cache, back.Value.(*cacheEntry).key)
		e.stats.Evictions++
	}
}

// TestCachePutMatchesPushThenRemove runs one scripted put/get sequence
// (fills, refreshes, hits, evictions) on a 3-entry LRU through
// cachePut and through the push-then-remove oracle. After every step
// the two agree on recency order, Evictions, Entries and the result
// each resident key holds.
func TestCachePutMatchesPushThenRemove(t *testing.T) {
	got, want := New(WithCacheSize(3)), New(WithCacheSize(3))
	script := "pa pb pc ga pd pb pe gc pa pa gd pf pg ph gb pi"
	for step, op := range strings.Fields(script) {
		key := cacheKey{op[1]}
		res := soc.Result{Score: float64(step)}
		if op[0] == 'p' {
			got.cachePut(key, res)
			pushThenRemove(want, key, res)
		} else {
			_, ok1 := got.cacheGet(key)
			_, ok2 := want.cacheGet(key)
			if ok1 != ok2 {
				t.Fatalf("step %d %s: hit %v, oracle %v", step, op, ok1, ok2)
			}
		}
		if g, w := string(lruKeys(got)), string(lruKeys(want)); g != w {
			t.Fatalf("step %d %s: order %q, oracle %q", step, op, g, w)
		}
		if g, w := got.CacheStats(), want.CacheStats(); g.Evictions != w.Evictions || g.Entries != w.Entries {
			t.Fatalf("step %d %s: evictions/entries %d/%d, oracle %d/%d", step, op, g.Evictions, g.Entries, w.Evictions, w.Entries)
		}
		for k, el := range want.cache {
			if g, w := got.cache[k].Value.(*cacheEntry).res, el.Value.(*cacheEntry).res; g.Score != w.Score {
				t.Fatalf("step %d %s: key %c holds the result of step %v, oracle %v", step, op, k[0], g.Score, w.Score)
			}
		}
	}
	if st, order := got.CacheStats(), string(lruKeys(got)); st.Evictions != 8 || st.Entries != 3 || order != "ihg" {
		t.Fatalf("script ended with %d evictions, %d entries, order %q; want 8, 3, \"ihg\"", st.Evictions, st.Entries, order)
	}
}

// TestCachePutFullAllocs pins an insert into a full LRU at 0
// allocations: the evicted entry's list element and cacheEntry carry
// the new key.
func TestCachePutFullAllocs(t *testing.T) {
	const size = 64
	e := New(WithCacheSize(size))
	var key cacheKey
	next := func() cacheKey {
		binary.LittleEndian.PutUint64(key[:], binary.LittleEndian.Uint64(key[:])+1)
		return key
	}
	res := soc.Result{PointResidency: []float64{1}}
	for range size {
		e.cachePut(next(), res)
	}
	allocs := testing.AllocsPerRun(1000, func() { e.cachePut(next(), res) })
	if allocs != 0 {
		t.Errorf("cachePut into a full LRU: %v allocs, want 0", allocs)
	}
	if st := e.CacheStats(); st.Entries != size || st.Evictions != 1001 {
		t.Fatalf("after the puts: %+v, want %d entries and 1001 evictions", st, size)
	}
}

// TestLRUReuseKeepsDeliveredResults runs batch misses and Lookups at
// once on a 1-entry LRU, so every insert evicts and reuses the entry a
// concurrent Lookup may have just read. No delivered result may change
// afterwards: each still equals a fresh simulation of its config when
// all traffic has stopped. Run under -race, a write into a delivered
// result's PointResidency also shows as a data race.
func TestLRUReuseKeepsDeliveredResults(t *testing.T) {
	e := New(WithCacheSize(1), WithParallelism(2))
	var jobs []Job
	var keys []cacheKey
	var want []soc.Result
	for i := range 4 {
		cfg := lruConfig(t, sim.Time(20+10*i)*sim.Millisecond)
		// Alternate ladder points, so the results' PointResidency differ.
		cfg.Policy = policy.NewStaticPoint(i%2, false)
		key, ok := spec.Key(cfg)
		if !ok {
			t.Fatal("config has no key")
		}
		res, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs, keys, want = append(jobs, Job{Config: cfg}), append(keys, key), append(want, res)
	}

	type delivered struct {
		job int
		res soc.Result
	}
	var (
		mu   sync.Mutex
		seen []delivered
		wg   sync.WaitGroup
	)
	keep := func(job int, res soc.Result) {
		mu.Lock()
		seen = append(seen, delivered{job, res})
		mu.Unlock()
	}
	for range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 3 {
				out, err := e.RunBatchContext(context.Background(), jobs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range out {
					keep(i, r)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range 200 {
				for i, key := range keys {
					if r, ok := e.Lookup(key); ok {
						keep(i, r)
					}
				}
			}
		}()
	}
	wg.Wait()

	if st := e.CacheStats(); st.Entries != 1 || st.Evictions == 0 {
		t.Fatalf("stats %+v: the LRU never evicted", st)
	}
	for _, d := range seen {
		if !reflect.DeepEqual(d.res, want[d.job]) {
			t.Fatalf("job %d: a delivered result changed after delivery", d.job)
		}
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

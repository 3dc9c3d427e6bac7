package soc

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

// flipPolicy alternates between two ladder indices every period
// decisions — it drives real DVFS transitions, so spans run under
// changing programming and the runs carry stall-charged (uncacheable)
// spans alongside cacheable ones.
type flipPolicy struct {
	period int
	a, b   int
	calls  int
}

func (p *flipPolicy) Name() string { return "test-flip" }
func (p *flipPolicy) Reset()       { p.calls = 0 }
func (p *flipPolicy) Clone() Policy {
	c := *p
	c.Reset()
	return &c
}
func (p *flipPolicy) Decide(ctx PolicyContext) PolicyDecision {
	idx := p.a
	if (p.calls/p.period)%2 == 1 {
		idx = p.b
	}
	p.calls++
	if idx >= len(ctx.Ladder) {
		idx = len(ctx.Ladder) - 1
	}
	top := ctx.Ladder[0]
	return PolicyDecision{
		Target:       ctx.Ladder[idx],
		OptimizedMRC: true,
		IOBudget:     ctx.WorstIO(top),
		MemBudget:    ctx.WorstMem(top),
	}
}

func spanCacheTestConfig(t *testing.T, wlName string, pol Policy) Config {
	t.Helper()
	w, err := workload.SPEC(wlName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = pol
	cfg.Duration = 200 * sim.Millisecond
	return cfg
}

// TestSpanCacheIdentity pins the cache's core contract: a run served
// from the span cache — cold (all misses, inserting), warm (hits), or
// warm through a different pooled Runner — is bit-identical to the
// same run with the cache disabled. Deltas store pre-multiplied
// increments, so the apply path adds the very float64 values the
// uncached path adds; DeepEqual, not tolerance, is the assertion.
func TestSpanCacheIdentity(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return highPin() },
		func() Policy { return lowPin(true) },
		func() Policy { return &flipPolicy{period: 2, a: 0, b: 1} },
	}
	for _, wl := range []string{"473.astar", "470.lbm"} {
		for _, mk := range policies {
			label := wl + "/" + mk().Name()

			ref, err := Run(spanCacheTestConfig(t, wl, mk()))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			cache := NewSpanCache(0)
			r := NewRunner()
			r.SetSpanCache(cache)

			// Cache attached but disabled by the A/B knob.
			off := spanCacheTestConfig(t, wl, mk())
			off.DisableSpanCache = true
			got, err := r.Run(off)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: DisableSpanCache run != plain run", label)
			}
			if s := cache.Stats(); s.Hits+s.Misses+s.Entries != 0 {
				t.Errorf("%s: disabled cache was touched: %+v", label, s)
			}

			// Cold: every cacheable span misses and inserts.
			got, err = r.Run(spanCacheTestConfig(t, wl, mk()))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: cold cached run != uncached run", label)
			}
			cold := cache.Stats()
			if cold.Misses == 0 || cold.Entries == 0 {
				t.Fatalf("%s: cold run populated nothing: %+v", label, cold)
			}

			// Warm: the same spans come back as cached deltas.
			got, err = r.Run(spanCacheTestConfig(t, wl, mk()))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: warm cached run != uncached run", label)
			}
			warm := cache.Stats()
			if warm.Hits == cold.Hits {
				t.Errorf("%s: warm run scored no span hits: %+v", label, warm)
			}

			// Cross-runner: a different pooled Runner sharing the cache
			// reuses the first runner's spans — the cross-job scenario.
			r2 := NewRunner()
			r2.SetSpanCache(cache)
			got, err = r2.Run(spanCacheTestConfig(t, wl, mk()))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: cross-runner cached run != uncached run", label)
			}
			if s := cache.Stats(); s.Hits <= warm.Hits {
				t.Errorf("%s: second runner scored no span hits: %+v", label, s)
			}
		}
	}
}

// TestSpanCacheBound pins the full-cache behaviour: a cache bounded to
// one entry stops inserting (counting drops) instead of growing, and
// results stay identical to the unbounded run.
func TestSpanCacheBound(t *testing.T) {
	ref, err := Run(spanCacheTestConfig(t, "473.astar", &flipPolicy{period: 2, a: 0, b: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSpanCache(1)
	r := NewRunner()
	r.SetSpanCache(cache)
	got, err := r.Run(spanCacheTestConfig(t, "473.astar", &flipPolicy{period: 2, a: 0, b: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("full-cache run != uncached run")
	}
	s := cache.Stats()
	if s.Entries > 1 {
		t.Errorf("cache bound ignored: %d entries resident", s.Entries)
	}
	if s.Dropped == 0 {
		t.Errorf("full cache dropped nothing: %+v", s)
	}
}

// allocsConfig is the steady-state config the allocation pins run:
// single-phase SPEC under a static governor, the engine worker's
// recycled-platform scenario.
func allocsConfig(t *testing.T) Config {
	t.Helper()
	return spanCacheTestConfig(t, "473.astar", highPin())
}

// TestRunnerPooledAllocs pins the warm pooled run at exactly 1
// allocation: the Result's PointResidency slice, which escapes to the
// caller and cannot be pooled. Everything else — closures, counter
// samples, span bookkeeping — must stay off the heap. A regression
// here is a hot-path regression for every engine worker; fix the
// allocation, don't bump the pin.
func TestRunnerPooledAllocs(t *testing.T) {
	cfg := allocsConfig(t)
	r := NewRunner()
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm pooled run: %v allocs/op, want exactly 1 (PointResidency)", allocs)
	}
}

// TestRunnerWarmSpanCacheAllocs pins the warm span-cache path at the
// same single allocation: serving spans as cached deltas must not add
// heap traffic (the key is hashed in registers and compared by value,
// the delta is copied into the run's own stack slot, and hit/miss
// counters accumulate in locals).
func TestRunnerWarmSpanCacheAllocs(t *testing.T) {
	cfg := allocsConfig(t)
	cache := NewSpanCache(0)
	r := NewRunner()
	r.SetSpanCache(cache)
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm span-cache run: %v allocs/op, want exactly 1 (PointResidency)", allocs)
	}
	if after := cache.Stats(); after.Hits <= before.Hits {
		t.Fatalf("warm runs scored no span hits — the pin measured the wrong path: %+v", after)
	}
}

// spanKeyLeaves returns a settable reflect.Value for every leaf field
// of k — Phase with its Residency, tickProg with its OperatingPoint and
// Timing, and the top-level fields — reaching unexported fields
// through their addresses.
func spanKeyLeaves(t *testing.T, k *spanKey) (paths []string, leaves []reflect.Value) {
	t.Helper()
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
				walk(path+"."+v.Type().Field(i).Name, f)
			}
			return
		}
		switch v.Kind() {
		case reflect.Float64, reflect.Int, reflect.Int64, reflect.Uint64, reflect.String:
		default:
			t.Fatalf("%s: leaf kind %v has no perturbation rule; extend spanKey.hash and this test", path, v.Kind())
		}
		paths = append(paths, path)
		leaves = append(leaves, v)
	}
	walk("spanKey", reflect.ValueOf(k).Elem())
	return paths, leaves
}

// perturbLeaf changes v to a different value of its kind.
func perturbLeaf(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(v.Float()*3 + 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	}
}

// TestSpanKeyHashCoversEveryField pins spanKey.hash to the key's full
// field set: perturbing any single leaf, on its own, must move the
// hash. A field added to spanKey, workload.Phase, tickProg,
// vf.OperatingPoint or dram.Timing and left out of hash() would not
// break any result — lookups still confirm by value — but would turn
// span hits into collision misses; this test is what notices.
func TestSpanKeyHashCoversEveryField(t *testing.T) {
	var base spanKey
	paths, leaves := spanKeyLeaves(t, &base)
	if len(leaves) < 40 {
		t.Fatalf("walk found only %d leaves: %v", len(leaves), paths)
	}
	// Distinct non-zero values everywhere, so no perturbation lands on
	// a coincidence with a neighbouring field.
	for i, v := range leaves {
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(float64(i) + 0.25)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(i) + 1)
		case reflect.Uint64:
			v.SetUint(uint64(i) + 1)
		case reflect.String:
			v.SetString("point-name-longer-than-one-word")
		}
	}
	h0 := base.hash()

	for i := range leaves {
		k := base
		_, kl := spanKeyLeaves(t, &k)
		perturbLeaf(kl[i])
		if k == base {
			t.Fatalf("%s: perturbation left the key unchanged", paths[i])
		}
		if k.hash() == h0 {
			t.Errorf("%s: changing it does not change spanKey.hash — mix it in", paths[i])
		}
	}

	// Keys equal under == must hash equal: +0 and -0 compare equal.
	negZero := math.Copysign(0, -1)
	for i, v := range leaves {
		if v.Kind() != reflect.Float64 {
			continue
		}
		pos, neg := base, base
		_, pl := spanKeyLeaves(t, &pos)
		_, nl := spanKeyLeaves(t, &neg)
		pl[i].SetFloat(0)
		nl[i].SetFloat(negZero)
		if pos != neg {
			t.Fatalf("%s: +0 and -0 keys compare unequal", paths[i])
		}
		if pos.hash() != neg.hash() {
			t.Errorf("%s: +0 and -0 keys are equal but hash apart", paths[i])
		}
	}
}

// TestSpanCacheHashCollisionIsMiss pins exactness under a 64-bit index
// collision: a different key filed under a resident key's hash misses,
// cannot displace the resident entry, and the resident key still hits
// with its own delta.
func TestSpanCacheHashCollisionIsMiss(t *testing.T) {
	c := NewSpanCache(0)
	a := spanKey{plat: 1, n: 10}
	b := spanKey{plat: 2, n: 10}
	da := spanDelta{dWork: 1.5, perfOK: true}
	db := spanDelta{dWork: 2.5}
	const h = 0xfeedface

	if !c.insert(h, &a, &da) {
		t.Fatal("insert into an empty cache dropped")
	}
	var got spanDelta
	if c.lookup(h, &b, &got) {
		t.Fatalf("colliding key hit: got %+v", got)
	}
	c.insert(h, &b, &db)
	if !c.lookup(h, &a, &got) {
		t.Fatal("resident key lost after a colliding insert")
	}
	if !reflect.DeepEqual(got, da) {
		t.Errorf("resident key returned %+v, want %+v", got, da)
	}
	if c.lookup(h, &b, &got) {
		t.Error("colliding key hit after its insert")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("%d entries resident, want 1", s.Entries)
	}
}

package soc

import (
	"math"
	"sync"
	"sync/atomic"

	"sysscale/internal/cache"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// SpanCache memoizes closed-form span integrations *across* runs.
//
// A figure-style sweep re-simulates the same workloads under many
// policy/config variants, so most of a batch's spans are literally
// identical across jobs: the same phase, under the same platform
// programming, for the same number of ticks, integrates to the same
// deltas every time. The cache keys each policy-epoch span by
// (platform signature, phase, programming snapshot, span length) and
// stores the span's self-contained integration outcome (spanDelta), so
// a later run whose span matches applies an O(1) delta instead of
// re-deriving the fixpoint and the per-rail power sums.
//
// The map is indexed by a 64-bit word mix of the key (spanKey.hash),
// computed once per cacheable span by the run loop and passed to both
// lookup and insert. The index only locates a candidate: each entry
// carries its full key, and a lookup hits only when that key equals
// the probe by value (==, the comparison a map keyed by spanKey would
// make). A 64-bit collision therefore costs a miss, never a wrong
// delta, and insert never overwrites a resident entry.
//
// The key is exact, not heuristic: the phase and the programming
// snapshot are compared by value (they are comparable structs), and
// the platform signature folds every remaining Config input that feeds
// span integration — TDP, DRAM kind, ladder, CSR, sample interval,
// fixed-frequency pins, workload class. Two spans with equal keys are
// therefore integrated from bit-identical inputs, and applying a
// cached delta reproduces the uncached accumulator updates bit for
// bit (enforced by TestSpanCacheIdentity and the engine's A/B race
// test; Config.DisableSpanCache keeps the claim falsifiable).
//
// A SpanCache is safe for concurrent use; the run engine owns one per
// Engine and threads it into every pooled Runner. Lookups share a read
// lock; inserts take the write lock. The entry count and the counters
// are atomics, so once the cache has reached its bound a miss is
// dropped without locking or probing the map again — the steady state
// of sweeps whose distinct spans outnumber the bound.
// Spans carrying a DVFS stall charge are never cached (the stall
// perturbs the first tick's progress), and runs with TracePower or
// DisableSpanBatching bypass the cache entirely.
type SpanCache struct {
	// max bounds the entry count: once full, new spans simulate
	// without being inserted (sweeps re-visit their hot spans long
	// before a realistically sized cache fills).
	max int
	// entries mirrors len(m), written under mu, read without it. Once
	// the cache is full nothing writes it, so the padding keeps every
	// miss's bound check off the cache line that each lookup's RLock
	// writes.
	entries atomic.Int64
	_       [48]byte

	mu sync.RWMutex
	m  map[uint64]*spanEntry

	hits, misses, dropped atomic.Int64
}

// spanEntry is one resident span: the full key confirms a hit found
// through the hashed index, the delta is what the hit applies.
// Entries are immutable once inserted.
type spanEntry struct {
	key spanKey
	d   spanDelta
}

// DefaultSpanCacheEntries bounds a default-constructed span cache.
// An entry is 568 bytes on 64-bit platforms (unsafe.Sizeof(spanEntry{}):
// a 328-byte key and a 240-byte delta); with the runtime's 8-byte
// malloc header it fills a 576-byte allocation, plus about 36 bytes of
// map slot for its hash and pointer, so the default caps resident
// cache memory at roughly 40MB while holding several thousand sweep
// jobs' worth of distinct spans.
const DefaultSpanCacheEntries = 1 << 16

// NewSpanCache returns a cache bounded to maxEntries spans
// (maxEntries <= 0 selects DefaultSpanCacheEntries).
func NewSpanCache(maxEntries int) *SpanCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSpanCacheEntries
	}
	return &SpanCache{m: make(map[uint64]*spanEntry), max: maxEntries}
}

// SpanCacheStats is a snapshot of the cache counters.
type SpanCacheStats struct {
	// Entries is the number of cached span integrations.
	Entries int
	// Hits counts spans applied as cached deltas; Misses counts spans
	// integrated in full (whether or not they were then inserted).
	Hits, Misses int
	// Dropped counts integrations not inserted because the cache was
	// full.
	Dropped int
}

// Stats returns a snapshot of the cache counters. The counters are
// read individually, so a snapshot taken while runs are in flight may
// mix moments; each counter is itself exact.
func (c *SpanCache) Stats() SpanCacheStats {
	return SpanCacheStats{
		Entries: int(c.entries.Load()),
		Hits:    int(c.hits.Load()),
		Misses:  int(c.misses.Load()),
		Dropped: int(c.dropped.Load()),
	}
}

// Clear drops every cached span (the counters are kept).
func (c *SpanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[uint64]*spanEntry)
	c.entries.Store(0)
}

// lookup copies the cached delta for key, whose hash is h, into *d and
// reports whether it was present. An entry filed under h with a
// different key (a hash collision) is a miss.
func (c *SpanCache) lookup(h uint64, key *spanKey, d *spanDelta) bool {
	c.mu.RLock()
	e := c.m[h]
	c.mu.RUnlock()
	if e == nil || e.key != *key {
		return false
	}
	*d = e.d
	return true
}

// insert stores a freshly integrated span under its hash h unless the
// cache is full or h is already taken (by this key, inserted by a
// concurrent run, or by a colliding one). It returns false when the
// delta was dropped because the cache was full; the caller counts the
// drop (see addStats).
func (c *SpanCache) insert(h uint64, key *spanKey, d *spanDelta) bool {
	if c.entries.Load() >= int64(c.max) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[h]; ok {
		return true
	}
	if len(c.m) >= c.max {
		return false
	}
	c.m[h] = &spanEntry{key: *key, d: *d}
	c.entries.Store(int64(len(c.m)))
	return true
}

// addStats folds one run's locally accumulated hit/miss/drop counters
// into the shared counters. Runs count locally and flush once, so the
// hot loop never writes shared state beyond the inserts themselves.
func (c *SpanCache) addStats(hits, misses, dropped int) {
	c.hits.Add(int64(hits))
	c.misses.Add(int64(misses))
	c.dropped.Add(int64(dropped))
}

// spanKey identifies one cacheable span across runs. Every input that
// feeds span integration is either present by value (phase, platform
// programming, span length) or folded into the platform signature
// (see platformSig). The struct is comparable: the cache confirms a
// hit with ==, and hash() locates candidates.
type spanKey struct {
	// plat is the platform-class signature: a fold over the Config
	// inputs outside the programming snapshot (TDP, DRAM kind, ladder,
	// CSR, sample interval, fixed pins, workload class).
	plat uint64
	// phase is the active workload phase, by value.
	phase workload.Phase
	// prog is the live platform-programming snapshot (operating point,
	// DRAM register image, compute clocks, budgets).
	prog tickProg
	// coreF and duty pin the raw core P-state and HDC duty cycle:
	// tickProg folds them into one effective frequency, which the
	// progress fixpoint depends on, but the power model sees them
	// separately (leakage follows the P-state voltage, switching the
	// duty cycle), so distinct (P-state, duty) pairs with equal
	// products must not alias.
	coreF vf.Hz
	duty  float64
	// n is the span length in ticks.
	n int
}

// hash mixes every key field, one 8-byte word at a time, into the
// cache's 64-bit index. Keys equal under == hash equal: a float enters
// as its IEEE bits with -0 folded onto +0 (NaN keys never compare
// equal, so they never hit whatever they hash to). Each mix step is a
// bijection of the running state for a fixed word and injective in the
// word for a fixed state, so keys differing in a single numeric field
// always hash apart. TestSpanKeyHashCoversEveryField fails when a
// field is added to the key, or to a struct it embeds, without being
// mixed in here; a field left out would not break results, but would
// turn hits into collision misses.
func (k *spanKey) hash() uint64 {
	h := mix(k.plat, uint64(k.n))
	ph := &k.phase
	h = mix(h, uint64(ph.Duration))
	h = mixF(h, ph.CoreFrac)
	h = mixF(h, ph.GfxFrac)
	h = mixF(h, ph.MemLatFrac)
	h = mixF(h, ph.MemBWFrac)
	h = mixF(h, ph.IOFrac)
	h = mixF(h, ph.MemBW)
	h = mixF(h, ph.IOBW)
	h = mix(h, uint64(ph.ActiveCores))
	h = mixF(h, ph.CoreActivity)
	h = mixF(h, ph.GfxActivity)
	h = mixF(h, ph.Residency.C0)
	h = mixF(h, ph.Residency.C2)
	h = mixF(h, ph.Residency.C6)
	h = mixF(h, ph.Residency.C8)

	pt := &k.prog.point
	h = mixS(h, pt.Name)
	h = mixF(h, float64(pt.DDR))
	h = mixF(h, float64(pt.MC))
	h = mixF(h, float64(pt.Interco))
	h = mixF(h, float64(pt.VSA))
	h = mixF(h, float64(pt.VIO))
	tm := &k.prog.timing
	h = mixF(h, float64(tm.ForFreq))
	h = mix(h, uint64(tm.CL))
	h = mix(h, uint64(tm.RCD))
	h = mix(h, uint64(tm.RP))
	h = mix(h, uint64(tm.RAS))
	h = mix(h, uint64(tm.WR))
	h = mix(h, uint64(tm.RFC))
	h = mix(h, uint64(tm.REFI))
	h = mixF(h, tm.InterfaceEff)
	h = mixF(h, tm.TermEff)
	h = mixF(h, float64(k.prog.coreEff))
	h = mixF(h, float64(k.prog.gfxF))
	h = mixF(h, float64(k.prog.bonus))
	h = mixF(h, float64(k.prog.ioB))
	h = mixF(h, float64(k.prog.memB))

	h = mixF(h, float64(k.coreF))
	return mixF(h, k.duty)
}

// mixMul is the mixer's odd multiplier (2^64 / golden ratio).
const mixMul = 0x9e3779b97f4a7c15

// mix folds one word into the running hash: xor, multiply, xorshift.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= mixMul
	return h ^ h>>29
}

// mixF folds a float by its bits, mapping -0 to +0 so that the two
// zeros (equal under ==) hash equal.
func mixF(h uint64, f float64) uint64 {
	if f == 0 {
		return mix(h, 0)
	}
	return mix(h, math.Float64bits(f))
}

// mixS folds a string's length, then its bytes eight at a time.
func mixS(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := i; j < len(s) && j < i+8; j++ {
			w |= uint64(s[j]) << (8 * (j - i))
		}
		h = mix(h, w)
	}
	return h
}

// spanDelta is one span's self-contained integration outcome: every
// accumulator increment and every piece of platform state the uncached
// span path would have produced, except what the apply path derives,
// on cached and uncached spans alike, from the rails or from the key
// itself (the domain power sums, residency time, core and graphics
// frequency sums). Increments are stored pre-multiplied (rate ×
// residency × tickSec × n), so applying a delta adds the very float64
// values the uncached path would have added — bit-identical results by
// construction.
type spanDelta struct {
	// The components' rolling epochs from the resolved tick
	// evaluation, restored on apply (they feed the next DVFS
	// transition's drain latency), exactly as a tick-memo hit restores
	// them.
	mcEp  memctrl.Epoch
	fabEp interconnect.Epoch
	llcEp cache.Epoch
	// sample is the counter-file image the span latches n times.
	sample perfcounters.Sample
	// rails is the constant per-rail draw metered over the span.
	rails [vf.NumRails]power.Watt
	// dWork and dActive are the pre-multiplied work and active-time
	// increments.
	dWork, dActive float64
	// perfOK is false when a fixed-demand workload missed its
	// performance demand during the span.
	perfOK bool
}

// platformSig folds the span-relevant Config inputs that are not part
// of the programming snapshot into a 64-bit FNV-1a signature. It
// allocates nothing (the fold is field-by-field, no hashing buffer),
// so computing it per run keeps the pooled path allocation-free.
//
// The signature is the only inexact component of the span key — the
// phase and programming snapshot compare by value — so a collision
// needs two *platform classes* (not spans) agreeing on 64 bits while
// also matching phase, programming, and span length. Sweeps hold a
// handful of platform classes, putting the collision probability at
// the 2^-64 floor; the DisableSpanCache A/B suites would surface one.
func platformSig(cfg *Config) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	foldF := func(f float64) { fold(math.Float64bits(f)) }
	foldS := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		fold(uint64(len(s)))
	}

	foldF(float64(cfg.TDP))
	fold(uint64(cfg.DRAMKind))
	fold(uint64(cfg.SampleInterval))
	foldF(float64(cfg.FixedCoreFreq))
	foldF(float64(cfg.FixedGfxFreq))
	fold(uint64(cfg.Workload.Class))
	fold(uint64(len(cfg.Ladder)))
	for i := range cfg.Ladder {
		op := &cfg.Ladder[i]
		foldS(op.Name)
		foldF(float64(op.DDR))
		foldF(float64(op.MC))
		foldF(float64(op.Interco))
		foldF(float64(op.VSA))
		foldF(float64(op.VIO))
	}
	for i := range cfg.CSR.Panels {
		p := &cfg.CSR.Panels[i]
		fold(uint64(p.Res))
		foldF(p.RefreshHz)
	}
	fold(uint64(cfg.CSR.Camera))
	return h
}

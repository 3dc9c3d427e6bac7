package faultinject

import (
	"encoding/binary"
	"os"
	"sync/atomic"

	"sysscale/internal/diskcache"
	"sysscale/internal/soc"
)

// Store wraps a diskcache.Tier with deterministic fault injection. It
// satisfies diskcache.Tier itself, so it slots under the engine
// (engine.WithDiskTier) or under a breaker exactly like the real
// store. Faults are decided per content-addressed key — a pure
// function of (seed, key, operation) — so the injected fault set is
// identical whatever order or parallelism the sweep runs at.
//
// Three fault modes, all off by default:
//
//   - FailGets/FailPuts(perMille): the operation fails with an
//     ErrIO-classed FaultError before reaching the inner tier — an
//     unreadable file, a failed write. The breaker counts these like
//     real I/O failures.
//   - ShortWrites(dir, perMille): the Put "succeeds" but the entry on
//     disk is truncated afterwards — a torn write the atomic-rename
//     protocol could only suffer from hardware lying about durability.
//     The next Get must detect it as corrupt, prune it, and degrade to
//     a miss.
//   - SetBroken(true): every subsequent operation fails — a disk dying
//     mid-sweep, the scenario the circuit breaker exists for.
//
// Counters (Ops, InjectedGets, InjectedPuts, ShortWrites) expose the
// ground truth the torture tests reconcile engine stats against.
type Store struct {
	inner diskcache.Tier
	seed  uint64

	getPerMille   int
	putPerMille   int
	shortPerMille int
	shortDir      string

	broken atomic.Bool

	ops          atomic.Int64
	injectedGets atomic.Int64
	injectedPuts atomic.Int64
	shortWrites  atomic.Int64
}

// NewStore wraps inner with fault injection under seed. Configure the
// fault modes before handing the store to an engine; the setters are
// not synchronized against in-flight operations.
func NewStore(inner diskcache.Tier, seed uint64) *Store {
	return &Store{inner: inner, seed: seed}
}

// FailGets makes perMille/1000 of keys fail their reads.
func (s *Store) FailGets(perMille int) { s.getPerMille = perMille }

// FailPuts makes perMille/1000 of keys fail their writes.
func (s *Store) FailPuts(perMille int) { s.putPerMille = perMille }

// ShortWrites makes perMille/1000 of keys tear their writes: the Put
// reports success but the entry file under dir is truncated to half.
// dir must be the wrapped store's directory (diskcache.EntryPath
// locates the victim).
func (s *Store) ShortWrites(dir string, perMille int) {
	s.shortDir, s.shortPerMille = dir, perMille
}

// SetBroken switches the dying-disk mode: while true, every operation
// fails with an ErrIO-classed fault and nothing reaches the inner
// tier.
func (s *Store) SetBroken(b bool) { s.broken.Store(b) }

// Ops returns how many operations were issued to this tier (including
// faulted ones).
func (s *Store) Ops() int64 { return s.ops.Load() }

// InnerOps returns how many operations passed through to the inner
// tier — the number that actually issued I/O. A tripped breaker above
// this store freezes both counters; InnerOps is the one that proves no
// I/O happened.
func (s *Store) InnerOps() int64 {
	return s.ops.Load() - s.injectedGets.Load() - s.injectedPuts.Load()
}

// InjectedGets and InjectedPuts count faults fired so far; ShortWrites
// counts torn writes performed.
func (s *Store) InjectedGets() int64 { return s.injectedGets.Load() }

// InjectedPuts counts injected write failures.
func (s *Store) InjectedPuts() int64 { return s.injectedPuts.Load() }

// TornWrites counts short writes performed.
func (s *Store) TornWrites() int64 { return s.shortWrites.Load() }

// keyBits folds a cache key into the fault-decision hash input.
func keyBits(key diskcache.Key) uint64 {
	return binary.LittleEndian.Uint64(key[:8])
}

// Get implements diskcache.Tier.
func (s *Store) Get(key diskcache.Key) (soc.Result, bool, error) {
	s.ops.Add(1)
	if s.broken.Load() || coin(s.seed, keyBits(key)^0x6e74, s.getPerMille) {
		s.injectedGets.Add(1)
		return soc.Result{}, false, &FaultError{Op: "get"}
	}
	return s.inner.Get(key)
}

// Put implements diskcache.Tier.
func (s *Store) Put(key diskcache.Key, res soc.Result) error {
	s.ops.Add(1)
	if s.broken.Load() || coin(s.seed, keyBits(key)^0x7075, s.putPerMille) {
		s.injectedPuts.Add(1)
		return &FaultError{Op: "put"}
	}
	err := s.inner.Put(key, res)
	if err == nil && s.shortDir != "" && coin(s.seed, keyBits(key)^0x746f, s.shortPerMille) {
		// Torn write: the caller saw success, the disk kept half the
		// entry. Best-effort — if the truncate fails the entry is
		// simply intact.
		path := diskcache.EntryPath(s.shortDir, key)
		if info, statErr := os.Stat(path); statErr == nil && info.Size() > 1 {
			if os.Truncate(path, info.Size()/2) == nil {
				s.shortWrites.Add(1)
			}
		}
	}
	return err
}

// Stats implements diskcache.Tier: the inner tier's counters plus the
// injected faults, accounted the way the real store would have —
// every injected fault is an error, and injected read failures are
// also misses (the engine re-simulated those jobs).
func (s *Store) Stats() diskcache.Stats {
	st := s.inner.Stats()
	ig, ip := int(s.injectedGets.Load()), int(s.injectedPuts.Load())
	st.Errors += ig + ip
	st.Misses += ig
	return st
}

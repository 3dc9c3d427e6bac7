package sweepd

import (
	"container/list"
	"sync"

	"sysscale/internal/engine"
)

// memoBound caps the keys the sweep memo holds, summed over its
// entries: one result cache's worth at its default size, 32 B each
// (256 KiB). Every admissible sweep (DefaultMaxSpecsPerSweep specs)
// fits in it.
const memoBound = engine.DefaultCacheSize

// sweepMemo maps the sha256 of a /v1/sweeps body to the cache keys of
// its jobs in index order, least-recently-used first out once the keys
// held exceed memoBound. It holds keys only, never decoded specs or
// results: a key outlives nothing, and a key whose result left the
// engine's tiers sends its job back through decoding. Safe for
// concurrent use.
type sweepMemo struct {
	mu    sync.Mutex
	bySum map[[32]byte]*list.Element
	order list.List // of *memoEntry, most recently used first
	keys  int       // summed len(memoEntry.keys)
}

type memoEntry struct {
	sum  [32]byte
	keys [][32]byte
}

// get returns the keys stored for the body digest sum, refreshing its
// recency. The slice is shared and must not be modified.
func (m *sweepMemo) get(sum [32]byte) ([][32]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySum[sum]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).keys, true
}

// put stores keys under sum unless sum is already held, and evicts the
// least recently used entries beyond memoBound. The memo keeps keys.
func (m *sweepMemo) put(sum [32]byte, keys [][32]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bySum == nil {
		m.bySum = make(map[[32]byte]*list.Element)
	}
	if el, ok := m.bySum[sum]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.bySum[sum] = m.order.PushFront(&memoEntry{sum: sum, keys: keys})
	m.keys += len(keys)
	for m.keys > memoBound {
		back := m.order.Back()
		e := m.order.Remove(back).(*memoEntry)
		delete(m.bySum, e.sum)
		m.keys -= len(e.keys)
	}
}

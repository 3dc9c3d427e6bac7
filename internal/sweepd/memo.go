package sweepd

import (
	"container/list"
	"sync"

	"sysscale/internal/engine"
)

// The sweep memo's two bounds, constants both. memoBound caps the keys
// held, summed over the entries: one result cache's worth at its
// default size, 32 B each (256 KiB). Every admissible sweep
// (DefaultMaxSpecsPerSweep specs) fits in it. memoLineBound caps the
// rendered result lines held; a body whose lines exceed it on their
// own keeps a keys-only entry. A result's workload name comes from the
// client, so nothing else bounds a line's size.
const (
	memoBound     = engine.DefaultCacheSize
	memoLineBound = 4 << 20
)

// sweepMemo maps the sha256 of a /v1/sweeps body to the cache keys of
// its jobs in index order and, once a post of the body served by key
// rendered them, to its result lines. It never holds a decoded spec or
// a result: a stored line is written only after Engine.Lookup found its
// key, and a key whose result left the engine's tiers sends its job
// back through decoding. Whole entries leave least recently used first
// once either total exceeds its bound. Safe for concurrent use.
type sweepMemo struct {
	mu        sync.Mutex
	bySum     map[[32]byte]*list.Element
	order     list.List // of *memoEntry, most recently used first
	keys      int       // summed len(memoEntry.keys)
	lineBytes int       // summed len(memoEntry.lines)
}

// memoEntry is one body's memo. The fields are set once, under the
// memo's lock, and never modified after, so a copy read under the lock
// can be used without it.
type memoEntry struct {
	sum  [32]byte
	keys [][32]byte
	// lines holds job i's NDJSON result line at
	// lines[ends[i-1]:ends[i]] (from 0 for job 0), exactly as a post
	// served by key writes it. Both are nil until attach.
	lines []byte
	ends  []int
}

// line returns job i's stored result line.
func (e *memoEntry) line(i int) []byte {
	start := 0
	if i > 0 {
		start = e.ends[i-1]
	}
	return e.lines[start:e.ends[i]]
}

// get returns the entry stored for the body digest sum, refreshing its
// recency. Its slices are shared and must not be modified.
func (m *sweepMemo) get(sum [32]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySum[sum]
	if !ok {
		return memoEntry{}, false
	}
	m.order.MoveToFront(el)
	return *el.Value.(*memoEntry), true
}

// put stores keys under sum unless sum is already held, and evicts the
// least recently used entries beyond the bounds. The memo keeps keys.
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
	m.evict()
}

// attach stores a copy of lines, one result line per key of the entry
// under sum with line i ending at ends[i], unless the entry is gone,
// already holds lines, or lines alone exceed memoLineBound. It keeps
// ends.
func (m *sweepMemo) attach(sum [32]byte, lines []byte, ends []int) {
	if len(lines) > memoLineBound {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySum[sum]
	if !ok {
		return
	}
	e := el.Value.(*memoEntry)
	if e.lines != nil || len(ends) != len(e.keys) {
		return
	}
	e.lines = make([]byte, len(lines))
	copy(e.lines, lines)
	e.ends = ends
	m.lineBytes += len(lines)
	m.order.MoveToFront(el)
	m.evict()
}

// evict drops least recently used entries until both totals are within
// their bounds.
func (m *sweepMemo) evict() {
	for m.keys > memoBound || m.lineBytes > memoLineBound {
		e := m.order.Remove(m.order.Back()).(*memoEntry)
		delete(m.bySum, e.sum)
		m.keys -= len(e.keys)
		m.lineBytes -= len(e.lines)
	}
}

package sweepd

import (
	"container/list"
	"sync"
)

// memoBound caps the bytes the sweep memo holds, summed over its
// entries: 32 B per key plus the result lines. It is a constant. A
// result's workload name comes from the client, so nothing else bounds
// a line's size; a body whose entry alone exceeds memoBound is not
// stored.
const memoBound = 4 << 20

// sweepMemo maps the sha256 of a /v1/sweeps body to the cache keys of
// its jobs and their result lines, both in index order. It never holds
// a decoded spec or a result: a stored line is written only after
// Engine.Lookup found its key, and a key whose result left the
// engine's tiers sends its job back through decoding. Whole entries
// leave least recently used first once the total exceeds memoBound.
// Safe for concurrent use.
type sweepMemo struct {
	mu    sync.Mutex
	bySum map[[32]byte]*list.Element
	order list.List // of *memoEntry, most recently used first
	bytes int       // summed memoEntry.size()
}

// memoEntry is one body's memo. It is never modified once stored, so
// it can be read without the memo's lock.
type memoEntry struct {
	sum  [32]byte
	keys [][32]byte
	// lines holds job i's NDJSON result line at
	// lines[ends[i-1]:ends[i]] (from 0 for job 0).
	lines []byte
	ends  []int
}

// size is the entry's charge against memoBound.
func (e *memoEntry) size() int { return 32*len(e.keys) + len(e.lines) }

// line returns job i's stored result line.
func (e *memoEntry) line(i int) []byte {
	start := 0
	if i > 0 {
		start = e.ends[i-1]
	}
	return e.lines[start:e.ends[i]]
}

// get returns the entry stored for the body digest sum, refreshing its
// recency, or nil.
func (m *sweepMemo) get(sum [32]byte) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySum[sum]
	if !ok {
		return nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// put stores keys under sum with a copy of job i's line
// lines[spans[i][0]:spans[i][1]], in index order, unless sum is
// already held or the entry alone exceeds memoBound, and evicts the
// least recently used entries beyond the bound. The spans must cover
// lines exactly, in any order. The memo keeps keys.
func (m *sweepMemo) put(sum [32]byte, keys [][32]byte, lines []byte, spans [][2]int) {
	if 32*len(keys)+len(lines) > memoBound {
		return
	}
	e := &memoEntry{sum: sum, keys: keys, lines: make([]byte, 0, len(lines)), ends: make([]int, len(spans))}
	for i, sp := range spans {
		e.lines = append(e.lines, lines[sp[0]:sp[1]]...)
		e.ends[i] = len(e.lines)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bySum == nil {
		m.bySum = make(map[[32]byte]*list.Element)
	}
	if el, ok := m.bySum[sum]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.bySum[sum] = m.order.PushFront(e)
	m.bytes += e.size()
	for m.bytes > memoBound {
		old := m.order.Remove(m.order.Back()).(*memoEntry)
		delete(m.bySum, old.sum)
		m.bytes -= old.size()
	}
}

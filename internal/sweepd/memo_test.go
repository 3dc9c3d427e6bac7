package sweepd

import (
	"bytes"
	"testing"
)

// MemoTotals reports the keys and the rendered line bytes the server's
// sweep memo holds.
func (s *Server) MemoTotals() (keys, lineBytes int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.keys, s.memo.lineBytes
}

// checkTotals fails unless m's totals are the sums over its entries,
// its map and list hold the same entries, and both totals are within
// their bounds.
func checkTotals(t *testing.T, m *sweepMemo) {
	t.Helper()
	keys, lineBytes := 0, 0
	for el := m.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		if m.bySum[e.sum] != el {
			t.Fatalf("entry %x is listed but not mapped", e.sum[:4])
		}
		keys += len(e.keys)
		lineBytes += len(e.lines)
	}
	if len(m.bySum) != m.order.Len() {
		t.Fatalf("%d entries mapped, %d listed", len(m.bySum), m.order.Len())
	}
	if keys != m.keys || lineBytes != m.lineBytes {
		t.Fatalf("totals %d keys, %d line bytes; the entries hold %d and %d", m.keys, m.lineBytes, keys, lineBytes)
	}
	if m.keys > memoBound || m.lineBytes > memoLineBound {
		t.Fatalf("totals %d keys, %d line bytes exceed the bounds %d and %d", m.keys, m.lineBytes, memoBound, memoLineBound)
	}
}

// TestMemoBounds: lines over memoLineBound leave a keys-only entry,
// attach keeps the first lines it is given, and eviction drops whole
// entries, least recently used first, until both the keys and the line
// bytes held are within their bounds.
func TestMemoBounds(t *testing.T) {
	var m sweepMemo
	sum := func(i int) [32]byte { return [32]byte{byte(i), byte(i >> 8)} }
	// lines returns n result lines of size bytes each and their ends.
	lines := func(n, size int, fill byte) ([]byte, []int) {
		b := bytes.Repeat([]byte{fill}, n*size)
		ends := make([]int, n)
		for i := range ends {
			ends[i] = (i + 1) * size
		}
		return b, ends
	}

	m.put(sum(0), make([][32]byte, 2))
	big, bigEnds := lines(2, memoLineBound/2+1, 'x')
	m.attach(sum(0), big, bigEnds)
	if e, ok := m.get(sum(0)); !ok || e.lines != nil || len(e.keys) != 2 {
		t.Fatalf("lines over the bound: entry %v (lines %d B), want keys only", ok, len(e.lines))
	}
	checkTotals(t, &m)

	small, smallEnds := lines(2, 10, 'a')
	m.attach(sum(0), small[:10], smallEnds[:1])
	if e, _ := m.get(sum(0)); e.lines != nil {
		t.Fatal("attached one line to an entry of two keys")
	}
	m.attach(sum(0), small, smallEnds)
	other, otherEnds := lines(2, 10, 'b')
	m.attach(sum(0), other, otherEnds)
	e, _ := m.get(sum(0))
	if !bytes.Equal(e.line(0), small[:10]) || !bytes.Equal(e.line(1), small[10:]) {
		t.Fatalf("stored lines %q, want the first attached %q", e.lines, small)
	}
	small[0] = 'z'
	if e.lines[0] != 'a' {
		t.Fatal("the memo kept the caller's buffer instead of a copy")
	}
	checkTotals(t, &m)

	// Three entries of a third of the line bound and more: attaching the
	// third drops the least recently used, which is entry 1 once entry
	// 0 was read.
	third, thirdEnds := lines(1, memoLineBound/3+1, 'c')
	for i := 1; i <= 3; i++ {
		m.put(sum(i), make([][32]byte, 1))
	}
	for i := 1; i <= 2; i++ {
		m.attach(sum(i), third, thirdEnds)
	}
	m.get(sum(0))
	m.attach(sum(3), third, thirdEnds)
	checkTotals(t, &m)
	for i, want := range []bool{true, false, true, true} {
		if _, ok := m.get(sum(i)); ok != want {
			t.Errorf("entry %d held: %v, want %v", i, ok, want)
		}
	}

	// Keys alone evict too: a body of half the key bound and one more,
	// twice, leaves only the later.
	m.put(sum(4), make([][32]byte, memoBound/2+1))
	m.put(sum(5), make([][32]byte, memoBound/2+1))
	checkTotals(t, &m)
	if _, ok := m.get(sum(4)); ok {
		t.Error("the older of two half-bound bodies survived")
	}
	if _, ok := m.get(sum(5)); !ok {
		t.Error("the newer of two half-bound bodies was evicted")
	}
}

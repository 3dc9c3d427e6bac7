package sweepd

import (
	"bytes"
	"testing"
)

// MemoTotals reports the keys and the result line bytes the server's
// sweep memo holds, summed over its entries.
func (s *Server) MemoTotals() (keys, lineBytes int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	for el := s.memo.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		keys += len(e.keys)
		lineBytes += len(e.lines)
	}
	return keys, lineBytes
}

// checkTotals fails unless m's total is the sum of its entries' sizes,
// its map and list hold the same entries, and the total is within
// memoBound.
func checkTotals(t *testing.T, m *sweepMemo) {
	t.Helper()
	total := 0
	for el := m.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		if m.bySum[e.sum] != el {
			t.Fatalf("entry %x is listed but not mapped", e.sum[:4])
		}
		total += e.size()
	}
	if len(m.bySum) != m.order.Len() {
		t.Fatalf("%d entries mapped, %d listed", len(m.bySum), m.order.Len())
	}
	if total != m.bytes {
		t.Fatalf("total %d B; the entries hold %d B", m.bytes, total)
	}
	if m.bytes > memoBound {
		t.Fatalf("total %d B exceeds the bound %d", m.bytes, memoBound)
	}
}

// TestMemoBounds: an entry over memoBound on its own is not stored,
// lines given in completion order are stored in index order, put keeps
// a copy of the first lines it is given for a sum, and eviction drops
// whole entries, least recently used first, until the total is within
// the bound.
func TestMemoBounds(t *testing.T) {
	var m sweepMemo
	sum := func(i int) [32]byte { return [32]byte{byte(i), byte(i >> 8)} }
	// lines returns n result lines of size bytes each and their spans
	// in index order.
	lines := func(n, size int, fill byte) ([]byte, [][2]int) {
		spans := make([][2]int, n)
		for i := range spans {
			spans[i] = [2]int{i * size, (i + 1) * size}
		}
		return bytes.Repeat([]byte{fill}, n*size), spans
	}

	over, overSpans := lines(1, memoBound-31, 'x')
	m.put(sum(0), make([][32]byte, 1), over, overSpans)
	if m.get(sum(0)) != nil {
		t.Fatalf("stored an entry of %d B over the %d B bound", 32+len(over), memoBound)
	}
	checkTotals(t, &m)
	full, fullSpans := lines(1, memoBound-32, 'x')
	m.put(sum(0), make([][32]byte, 1), full, fullSpans)
	if m.get(sum(0)) == nil || m.bytes != memoBound {
		t.Fatalf("an entry of exactly the bound was not stored (total %d B)", m.bytes)
	}
	checkTotals(t, &m)

	// Job 1 completed first, so its line comes first in the buffer.
	done := []byte("bb\naaa\n")
	m.put(sum(1), make([][32]byte, 2), done, [][2]int{{3, 7}, {0, 3}})
	e := m.get(sum(1))
	if e == nil || string(e.line(0)) != "aaa\n" || string(e.line(1)) != "bb\n" {
		t.Fatalf("stored lines %q, want %q in index order", e.lines, "aaa\nbb\n")
	}
	if m.get(sum(0)) != nil {
		t.Error("the full entry survived a second one")
	}
	checkTotals(t, &m)

	small, smallSpans := lines(2, 10, 'a')
	m.put(sum(2), make([][32]byte, 2), small, smallSpans)
	other, otherSpans := lines(2, 10, 'b')
	m.put(sum(2), make([][32]byte, 2), other, otherSpans)
	e = m.get(sum(2))
	if !bytes.Equal(e.line(0), small[:10]) || !bytes.Equal(e.line(1), small[10:]) {
		t.Fatalf("stored lines %q, want the first put's %q", e.lines, small)
	}
	small[0] = 'z'
	if e.lines[0] != 'a' {
		t.Fatal("the memo kept the caller's buffer instead of a copy")
	}
	checkTotals(t, &m)

	// Three entries of a third of the bound and more: putting the third
	// drops the least recently used, which is entry 3 once entries 1
	// and 2 were read.
	third, thirdSpans := lines(1, memoBound/3, 'c')
	for i := 3; i <= 5; i++ {
		if i == 5 {
			m.get(sum(1))
			m.get(sum(2))
		}
		m.put(sum(i), make([][32]byte, 1), third, thirdSpans)
		checkTotals(t, &m)
	}
	for i, want := range []bool{false, true, true, false, true, true} {
		if held := m.get(sum(i)) != nil; held != want {
			t.Errorf("entry %d held: %v, want %v", i, held, want)
		}
	}

	// Keys count too: a body of half the bound's worth of keys and one
	// more, twice, leaves only the later.
	m.put(sum(6), make([][32]byte, memoBound/64+1), nil, nil)
	checkTotals(t, &m)
	m.put(sum(7), make([][32]byte, memoBound/64+1), nil, nil)
	checkTotals(t, &m)
	if m.get(sum(6)) != nil {
		t.Error("the older of two half-bound bodies survived")
	}
	if m.get(sum(7)) == nil {
		t.Error("the newer of two half-bound bodies was evicted")
	}
}

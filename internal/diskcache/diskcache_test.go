package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

func testResult(name string) soc.Result {
	r := soc.Result{
		Workload:       name,
		Policy:         "sysscale",
		Duration:       1e9,
		Score:          0.987654321,
		ActiveScore:    1.125,
		PerfMet:        true,
		AvgPower:       4.5,
		Energy:         18.0,
		EDP:            0.0421,
		Transitions:    7,
		TransitionTime: 3500,
		MaxTransition:  900,
		PointResidency: []float64{0.6, 0.4},
		AvgCoreFreq:    1.9e9,
		AvgGfxFreq:     3.5e8,
	}
	for i := range r.CounterAvg {
		r.CounterAvg[i] = float64(i) * 0.017
	}
	_ = workload.CPUSingleThread
	return r
}

func keyOf(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func mustOpen(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	want := testResult("470.lbm")
	s.Put(keyOf(1), want)
	got, ok, _ := s.Get(keyOf(1))
	if !ok {
		t.Fatalf("Get missed a just-put entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if _, ok, _ := s.Get(keyOf(2)); ok {
		t.Errorf("Get hit an absent key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 0 errors / 1 entry", st)
	}
}

// TestStoreSurvivesReopen is the in-process stand-in for the
// cross-process contract (CI runs the real two-process smoke): a
// result written by one Store is returned bit-identically by a fresh
// Store over the same directory.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	want := testResult("482.sphinx3")
	mustOpen(t, dir).Put(keyOf(9), want)

	fresh := mustOpen(t, dir)
	got, ok, _ := fresh.Get(keyOf(9))
	if !ok {
		t.Fatalf("fresh store missed the persisted entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("persisted result not bit-identical:\n got %+v\nwant %+v", got, want)
	}
	if st := fresh.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("reopen did not size existing entries: %+v", st)
	}
}

// TestCorruptionTorture: every way an entry can rot reads as a counted
// miss and is pruned from the directory — never a wrong result, never
// a panic.
func TestCorruptionTorture(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(data []byte) []byte // nil result = zero-length file
	}{
		{"zero-length", func(data []byte) []byte { return nil }},
		{"truncated header", func(data []byte) []byte { return data[:headerSize/2] }},
		{"truncated payload", func(data []byte) []byte { return data[:len(data)-5] }},
		{"bad magic", func(data []byte) []byte { data[0] ^= 0xff; return data }},
		{"wrong version", func(data []byte) []byte {
			binary.LittleEndian.PutUint32(data[4:], Version+1)
			return data
		}},
		{"bit-flipped checksum", func(data []byte) []byte { data[12] ^= 0x01; return data }},
		{"bit-flipped payload", func(data []byte) []byte { data[len(data)-1] ^= 0x80; return data }},
		{"payload with trailing garbage", func(data []byte) []byte {
			// Extend the payload and fix length + checksum so only the
			// result decode itself can catch it.
			payload := append(append([]byte(nil), data[headerSize:]...), 0xAA)
			sum := sha256.Sum256(payload)
			out := append([]byte(nil), data[:headerSize]...)
			binary.LittleEndian.PutUint32(out[8:], uint32(len(payload)))
			copy(out[12:], sum[:])
			return append(out, payload...)
		}},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			s.Put(keyOf(3), testResult("433.milc"))
			path := filepath.Join(dir, pathBase(t, dir))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatalf("corrupt entry: %v", err)
			}

			before := s.Stats()
			if _, ok, _ := s.Get(keyOf(3)); ok {
				t.Fatalf("corrupt entry served as a hit")
			}
			after := s.Stats()
			if after.Errors != before.Errors+1 {
				t.Errorf("Errors %d -> %d, want +1", before.Errors, after.Errors)
			}
			if after.Misses != before.Misses+1 {
				t.Errorf("Misses %d -> %d, want +1 (corruption degrades to a miss)", before.Misses, after.Misses)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not pruned (stat err %v)", err)
			}
			// The slot is usable again: a rewrite serves hits.
			s.Put(keyOf(3), testResult("433.milc"))
			if _, ok, _ := s.Get(keyOf(3)); !ok {
				t.Errorf("rewrite after prune missed")
			}
		})
	}
}

// pathBase returns the single entry file's name in dir.
func pathBase(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if isEntryName(e.Name()) {
			return e.Name()
		}
	}
	t.Fatalf("no entry file in %s", dir)
	return ""
}

func TestEvictionOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(keyOf(1), testResult("a"))
	entrySize := s.Stats().Bytes
	if entrySize <= 0 {
		t.Fatalf("no bytes after Put")
	}

	// Cap at ~3 entries, write 5 with strictly increasing mtimes.
	s = mustOpen(t, dir, WithMaxBytes(3*entrySize+entrySize/2))
	base := time.Now().Add(-time.Hour)
	for i := byte(1); i <= 5; i++ {
		s.Put(keyOf(i), testResult("a"))
		// Pin distinct mtimes: filesystem timestamp granularity would
		// otherwise make "oldest" ambiguous.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, pathFor(s, keyOf(i))), mt, mt); err != nil {
			t.Fatalf("Chtimes: %v", err)
		}
	}
	s.Put(keyOf(6), testResult("a")) // now as mtime: newest; triggers eviction

	for i := byte(1); i <= 3; i++ {
		if _, ok, _ := s.Get(keyOf(i)); ok {
			t.Errorf("oldest entry %d survived eviction", i)
		}
	}
	for i := byte(4); i <= 6; i++ {
		if _, ok, _ := s.Get(keyOf(i)); !ok {
			t.Errorf("newest entry %d was evicted", i)
		}
	}
	if st := s.Stats(); st.Bytes > 3*entrySize+entrySize/2 {
		t.Errorf("bytes %d still over cap", st.Bytes)
	}
}

func pathFor(s *Store, k Key) string { return filepath.Base(s.path(k)) }

func TestOpenCleansStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("temp file counted as an entry: %+v", st)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("foreign file counted as an entry: %+v", st)
	}
	if !isEntryName(strings.Repeat("ab", sha256.Size)+entrySuffix) ||
		isEntryName("README.txt") || isEntryName("zz"+entrySuffix) {
		t.Errorf("isEntryName misclassifies")
	}
}

// TestPutFailedRenameRemovesTemp: a failing rename (the last step of
// the atomic commit) must count an error, leave no entry, and remove
// its temp file — Put cleans up every error path itself rather than
// relying on the stale-temp sweep at the next Open.
func TestPutFailedRenameRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	osRename = func(string, string) error { return errors.New("injected rename failure") }
	defer func() { osRename = os.Rename }()

	err := s.Put(keyOf(7), testResult("456.hmmer"))
	if !errors.Is(err, ErrIO) {
		t.Fatalf("Put error = %v, want ErrIO-classed", err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after failed Put = %+v, want 1 error, 0 entries, 0 bytes", st)
	}
	ents, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range ents {
		t.Errorf("failed Put left %q behind", e.Name())
	}

	osRename = os.Rename
	if err := s.Put(keyOf(7), testResult("456.hmmer")); err != nil {
		t.Fatalf("Put after rename recovery: %v", err)
	}
	if _, ok, _ := s.Get(keyOf(7)); !ok {
		t.Errorf("store unusable after a failed rename")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := keyOf(byte(i % 8))
				if i%2 == g%2 {
					s.Put(k, testResult("a"))
				} else {
					s.Get(k)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	// All entries readable and intact afterwards.
	for i := byte(0); i < 8; i++ {
		if res, ok, _ := s.Get(keyOf(i)); ok && !reflect.DeepEqual(res, testResult("a")) {
			t.Errorf("concurrent traffic corrupted entry %d", i)
		}
	}
}

// TestConcurrentPutOneKey: concurrent Puts of one key, as two sweeps
// of one spec issue them, leave one entry counted once, its bytes
// counted once, and Get serving it.
func TestConcurrentPutOneKey(t *testing.T) {
	const writers = 8
	want := testResult("470.lbm")
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Put(keyOf(3), want); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		info, err := os.Stat(EntryPath(dir, keyOf(3)))
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Entries != 1 || st.Bytes != info.Size() {
			t.Fatalf("round %d: %d concurrent Puts of one key left %d entries / %d bytes, want 1 / %d",
				round, writers, st.Entries, st.Bytes, info.Size())
		}
		if got, ok, _ := s.Get(keyOf(3)); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Get after concurrent Puts: found=%v", round, ok)
		}
	}
}

// BenchmarkGet times a warm entry's read: the file read, the checksum,
// the result decode and the mtime refresh.
func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(keyOf(1), testResult("470.lbm")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, ok, _ := s.Get(keyOf(1)); !ok {
			b.Fatal("warm entry missed")
		}
	}
}

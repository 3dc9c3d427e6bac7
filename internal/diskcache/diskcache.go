// Package diskcache is the persistent, content-addressed on-disk
// result tier: a directory of simulation results keyed by the engine's
// canonical config fingerprint (sha256 of the canonical spec bytes —
// spec.Fingerprint), shared across processes and machines by
// construction because the key is reproducible from a job's JSON
// anywhere.
//
// The store is built corruption-safe from day one:
//
//   - Writes are atomic: entries are rendered to a temp file in the
//     cache directory, synced, and renamed into place, so a reader —
//     in this process or another — only ever sees absent or complete
//     files, never a torn write.
//   - Every entry carries a versioned header and a sha256 checksum
//     over a deterministic binary encoding of the soc.Result
//     (soc.AppendResult, exact float64 round-trip). A read that fails
//     the magic, version, length, checksum, or decode is treated as a
//     miss, the bad entry is deleted, and Stats.Errors increments —
//     corruption never poisons a result and never aborts a sweep.
//   - The store is size-bounded: once the entry bytes exceed the cap,
//     the oldest entries (by modification time; hits refresh it) are
//     reclaimed first. Concurrent processes may share one directory —
//     renames are atomic, and an entry evicted under a concurrent
//     reader degrades to a miss.
//
// Layout: flat files named <64-hex-fingerprint>.ssr in the cache
// directory; in-flight writes are dot-prefixed temp files, cleaned up
// on Open if a crash left them behind.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sysscale/internal/soc"
)

// Key is a content-addressed entry key: the engine's canonical config
// fingerprint.
type Key = [sha256.Size]byte

// The two failure classes every store error wraps. The distinction
// drives the circuit breaker (Breaker): corruption is self-healing —
// the entry is pruned and the same key cannot fail the same way twice —
// while an I/O failure is environmental (dying disk, revoked mount,
// ENOSPC) and tends to repeat on every operation, so only ErrIO-classed
// failures count toward tripping the tier open.
var (
	// ErrIO classes operating-system I/O failures: unreadable files,
	// failed temp writes, failed renames.
	ErrIO = errors.New("diskcache: I/O failure")
	// ErrCorrupt classes invalid entries: bad magic, wrong version,
	// truncation, checksum or decode failure. The entry is pruned.
	ErrCorrupt = errors.New("diskcache: corrupt entry")
)

// Tier is the disk-tier interface the engine consumes — implemented by
// *Store, by *Breaker (which wraps any Tier), and by fault-injection
// wrappers (internal/faultinject). Get reports a hit via found; err is
// diagnostic (ErrIO- or ErrCorrupt-classed) and never implies a wrong
// result — every failure degrades to a miss. Put's error likewise
// reports a skipped insert, nothing else.
type Tier interface {
	Get(key Key) (res soc.Result, found bool, err error)
	Put(key Key, res soc.Result) error
	Stats() Stats
}

// Version is the entry wire-format version. Any change to the header
// layout or to soc.AppendResult's encoding must bump it; entries
// carrying any other version read as misses and are pruned, as must a
// change to what a stored result holds under an unchanged key. Version
// 2 dropped the per-tick power trace from the result encoding; version
// 3 books MemScale's and CoScale's off-ladder residency to the ladder
// point with their DDR bin (see soc.Result.PointResidency).
const Version = 3

// magic brands every entry file ("SysScale Result Cache").
const magic = "SSRC"

// headerSize is magic + version(u32) + payload length(u32) + sha256.
const headerSize = 4 + 4 + 4 + sha256.Size

// entrySuffix names complete entries; tmpPrefix marks in-flight writes
// (dot-prefixed so the eviction scan's suffix match can't see them
// before the glob-style prefix check does).
const (
	entrySuffix = ".ssr"
	tmpPrefix   = ".tmp-"
)

// DefaultMaxBytes bounds a default-constructed store: 1 GiB of
// entries, roughly a million sweep results at the typical ~1KB entry.
const DefaultMaxBytes = 1 << 30

// Option configures Open.
type Option func(*Store)

// WithMaxBytes bounds the store to n bytes of entries, oldest evicted
// first (n <= 0 selects DefaultMaxBytes).
func WithMaxBytes(n int64) Option {
	return func(s *Store) { s.maxBytes = n }
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts Gets served from disk; Misses counts Gets that found
	// no entry.
	Hits, Misses int
	// Errors counts corruption and I/O failures: entries pruned for a
	// bad header, checksum, or decode, unreadable files, and failed
	// writes. Errors never propagate to results — every one degrades
	// to a miss (or a skipped insert).
	Errors int
	// Bytes is the store's current entry footprint; Entries the entry
	// count (both as tracked since Open — concurrent processes sharing
	// the directory are observed lazily).
	Bytes   int64
	Entries int
	// Degraded reports a tripped circuit breaker: the tier is being
	// skipped entirely (no I/O issued) until a probe succeeds. Always
	// false on a bare *Store; set by Breaker.
	Degraded bool
}

// Store is an on-disk result store rooted at one directory. It is safe
// for concurrent use within a process, and safe (with miss-degraded
// races) across processes sharing the directory.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	hits    int
	misses  int
	errors  int
	bytes   int64
	entries int
}

// Open returns a store rooted at dir, creating the directory if
// needed, deleting stale temp files from crashed writers, and sizing
// the existing entries against the byte cap.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir}
	for _, o := range opts {
		o(s)
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // crashed writer's leavings
			continue
		}
		if !isEntryName(name) {
			continue
		}
		if info, err := e.Info(); err == nil {
			s.bytes += info.Size()
			s.entries++
		}
	}
	s.evict()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Errors: s.errors, Bytes: s.bytes, Entries: s.entries}
}

// Get returns the stored result for key. Absent entries are misses;
// present-but-invalid entries (truncated, bit-flipped, wrong version,
// undecodable) are pruned, counted in Errors, and reported as misses —
// a corrupt cache can cost time, never correctness. The returned error
// is diagnostic only (ErrIO for unreadable files, ErrCorrupt for
// pruned entries); found is authoritative.
func (s *Store) Get(key Key) (soc.Result, bool, error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.misses++
		if os.IsNotExist(err) {
			s.mu.Unlock()
			return soc.Result{}, false, nil
		}
		s.errors++
		s.mu.Unlock()
		return soc.Result{}, false, fmt.Errorf("%w: %w", ErrIO, err)
	}
	res, err := decodeEntry(data)
	if err != nil {
		s.prune(path, int64(len(data)))
		return soc.Result{}, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	// Refresh the entry's age so oldest-first eviction approximates
	// LRU; best-effort, a failure only ages the entry.
	now := time.Now()
	os.Chtimes(path, now, now)
	return res, true, nil
}

// Put stores res under key, atomically (temp file + rename) and
// write-behind-safe: a failed write counts an error, removes its temp
// file, and leaves the store exactly as it was. Put then reclaims
// oldest entries if the byte cap is exceeded. The returned error
// (ErrIO-classed) reports a skipped insert, nothing else.
func (s *Store) Put(key Key, res soc.Result) error {
	payload := soc.AppendResult(make([]byte, 0, 1024), res)
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)

	tmp, err := writeTemp(s.dir, buf)
	if err == nil {
		err = s.commit(tmp, s.path(key), int64(len(buf)))
	}
	if err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrIO, err)
	}
	s.evict()
	return nil
}

// osRename is the rename syscall behind the atomic commit, a variable
// so tests can inject a failing rename and prove the temp file is
// removed on that path too.
var osRename = os.Rename

// writeTemp writes data to a synced temp file in dir and returns its
// path, for commit to rename into place. The temp file is removed on
// every failure path — the deferred cleanup is structural, not
// per-branch, so no future error return can leak one (the Open
// stale-temp sweep remains a crash backstop only).
func writeTemp(dir string, data []byte) (tmp string, err error) {
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}

// commit renames the temp file tmp over path, so concurrent readers
// (any process) see either the old entry, no entry, or the complete
// new one, and accounts for the size-byte entry. The stat of the entry
// it replaces, the rename and the accounting run under s.mu, so
// concurrent Puts of one key count that key once. A failed rename
// removes tmp.
func (s *Store) commit(tmp, path string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, statErr := os.Stat(path)
	if err := osRename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	s.bytes += size
	if statErr == nil {
		s.bytes -= old.Size()
	} else {
		s.entries++
	}
	return nil
}

// prune deletes a corrupt entry and counts it: an error plus a miss
// (the caller reports a miss to the engine).
func (s *Store) prune(path string, size int64) {
	err := os.Remove(path)
	s.mu.Lock()
	s.errors++
	s.misses++
	if err == nil {
		s.bytes -= size
		s.entries--
	}
	s.mu.Unlock()
}

// evict reclaims oldest-first until the entry bytes fit the cap. The
// scan recomputes the footprint from the directory, so drift from
// concurrent processes (or from pruned unreadable files) self-heals
// here.
func (s *Store) evict() {
	s.mu.Lock()
	over := s.bytes > s.maxBytes
	s.mu.Unlock()
	if !over {
		return
	}

	type entry struct {
		name string
		size int64
		mod  time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		return
	}
	var all []entry
	var total int64
	for _, e := range ents {
		if !isEntryName(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		all = append(all, entry{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mod.Equal(all[j].mod) {
			return all[i].mod.Before(all[j].mod)
		}
		return all[i].name < all[j].name // deterministic tie-break
	})
	kept := len(all)
	for _, e := range all {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(filepath.Join(s.dir, e.name)) == nil {
			total -= e.size
			kept--
		}
	}
	s.mu.Lock()
	s.bytes = total
	s.entries = kept
	s.mu.Unlock()
}

func (s *Store) path(key Key) string { return EntryPath(s.dir, key) }

// EntryPath returns the entry file a key maps to under dir — the
// store's on-disk naming contract, exported so fault-injection
// harnesses can corrupt specific entries (torn-write simulation)
// without reimplementing the layout.
func EntryPath(dir string, key Key) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+entrySuffix)
}

// isEntryName reports whether name is a complete entry file:
// 64 hex digits + suffix.
func isEntryName(name string) bool {
	if !strings.HasSuffix(name, entrySuffix) {
		return false
	}
	stem := strings.TrimSuffix(name, entrySuffix)
	if len(stem) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(stem)
	return err == nil
}

// decodeEntry validates one entry file end to end: magic, version,
// exact length, checksum, then the result decode.
func decodeEntry(data []byte) (soc.Result, error) {
	if len(data) < headerSize {
		return soc.Result{}, fmt.Errorf("diskcache: entry shorter than header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return soc.Result{}, fmt.Errorf("diskcache: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return soc.Result{}, fmt.Errorf("diskcache: entry version %d, want %d", v, Version)
	}
	plen := binary.LittleEndian.Uint32(data[8:])
	if int64(len(data)) != int64(headerSize)+int64(plen) {
		return soc.Result{}, fmt.Errorf("diskcache: entry length %d, header says %d", len(data), int64(headerSize)+int64(plen))
	}
	payload := data[headerSize:]
	var want [sha256.Size]byte
	copy(want[:], data[12:12+sha256.Size])
	if sha256.Sum256(payload) != want {
		return soc.Result{}, fmt.Errorf("diskcache: checksum mismatch")
	}
	return soc.DecodeResult(payload)
}

package soc

// SpanCache is an empty placeholder for the removed cross-job span
// cache.
//
// Deprecated: kept so bench/ compiles; delete with its span probes.
type SpanCache struct{}

// SpanCacheStats is the counter snapshot of a SpanCache, always zero.
//
// Deprecated: kept so bench/ compiles; delete with its span probes.
type SpanCacheStats struct {
	Hits, Misses int
}

// NewSpanCache returns an empty SpanCache; the bound is ignored.
//
// Deprecated: kept so bench/ compiles; delete with its span probes.
func NewSpanCache(int) *SpanCache { return &SpanCache{} }

// Stats returns a zero snapshot.
//
// Deprecated: kept so bench/ compiles; delete with its span probes.
func (*SpanCache) Stats() SpanCacheStats { return SpanCacheStats{} }

// SetSpanCache does nothing.
//
// Deprecated: kept so bench/ compiles; delete with its span probes.
func (*Runner) SetSpanCache(*SpanCache) {}

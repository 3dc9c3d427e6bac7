package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span records one call the benchmark made into a layer's public
// functions. Calls repeated per spec, per result or per policy epoch
// are aggregated into one span with a count; for those, Busy is the
// summed time of the calls and Start/End bracket the first and last.
// Probe spans time a stage the request path cannot reach from outside
// the program, over the same jobs; they are kept off the op's critical
// path (their op id is the op whose jobs they reuse, their parent a
// probe root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root span
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"` // since the tracer's epoch
	End    time.Duration      `json:"end_ns"`
	Count  int                `json:"count"`
	Busy   time.Duration      `json:"busy_ns,omitempty"` // aggregated spans only
	Probe  bool               `json:"probe,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Self   time.Duration      `json:"self_ns"` // filled in by finalize
}

// aggregated reports whether the span stands for several calls.
func (s *span) aggregated() bool { return s.Busy > 0 }

// duration is the time the span's calls took: Busy for an aggregated
// span, End-Start otherwise.
func (s *span) duration() time.Duration {
	if s.aggregated() {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer holds spans in memory until the run ends. It is safe for
// concurrent use. A nil *tracer records nothing, so one code path
// serves the untraced and the traced replay.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, op int, probe bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, Count: 1, Probe: probe})
	return len(t.spans)
}

// end closes span id, attaching attrs (which may be nil).
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = attrs
}

// setCount records how many items (specs, jobs) a single call handled.
func (t *tracer) setCount(id, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Count = n
}

// duration is a closed span's End-Start.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	return s.End - s.Start
}

// agg accumulates repeated calls of one function into one span. It is
// owned by one goroutine until add hands it to the tracer. A nil *agg
// (from a nil tracer) just runs the calls.
type agg struct {
	t          *tracer
	name       string
	start, end time.Duration
	busy       time.Duration
	count      int
	attrs      map[string]float64
}

func (t *tracer) agg(name string) *agg {
	if t == nil {
		return nil
	}
	return &agg{t: t, name: name}
}

// time runs f as one aggregated call handling one item.
func (a *agg) time(f func()) { a.timeN(1, f) }

// timeN runs f as one aggregated call handling n items; the span's
// count is the number of items, so per-call metrics are per item.
func (a *agg) timeN(n int, f func()) {
	if a == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	a.record(t0, time.Since(t0), n)
}

// record adds one call of n items that started at t0 and took d.
func (a *agg) record(t0 time.Time, d time.Duration, n int) {
	if d <= 0 {
		d = 1 // a call always takes time; keep Busy > 0 as the aggregation mark
	}
	s := t0.Sub(a.t.epoch)
	if a.count == 0 {
		a.start = s
	}
	a.end = s + d
	a.busy += d
	a.count += n
}

// attr adds v to the aggregated span's attribute k.
func (a *agg) attr(k string, v float64) {
	if a == nil {
		return
	}
	if a.attrs == nil {
		a.attrs = map[string]float64{}
	}
	a.attrs[k] += v
}

// add stores the aggregated span under parent. An agg that recorded no
// calls stores nothing.
func (a *agg) add(parent, op int, probe bool) {
	if a == nil || a.count == 0 {
		return
	}
	t := a.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: a.name,
		Start: a.start, End: a.end, Count: a.count, Busy: a.busy, Probe: probe, Attrs: a.attrs})
}

// finalize fills in every span's self time: its duration minus the
// union of its single-call children's intervals, minus the busy time of
// its aggregated children (whose calls run on the parent's goroutine,
// between its other children, so they never overlap them).
func (t *tracer) finalize() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]interval)
	aggBusy := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		if s.aggregated() {
			aggBusy[s.Parent] += s.Busy
		} else {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		s := &out[i]
		if s.aggregated() {
			s.Self = s.Busy
			continue
		}
		s.Self = max(selfTime(interval{s.Start, s.End}, kids[s.ID])-aggBusy[s.ID], 0)
	}
	return out
}

// spanStat totals the spans of one name.
type spanStat struct {
	Name  string        `json:"name"`
	Probe bool          `json:"probe"`
	Spans int           `json:"spans"`
	Calls int           `json:"calls"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
	// Per-span duration quartiles, in ns.
	Dur summary `json:"span_ns"`
}

// spanStats groups finalized spans by name and kind (op path or
// probe).
func spanStats(spans []span) []spanStat {
	type key struct {
		name  string
		probe bool
	}
	by := make(map[key]*spanStat)
	durs := make(map[key][]float64)
	for _, s := range spans {
		k := key{s.Name, s.Probe}
		st := by[k]
		if st == nil {
			st = &spanStat{Name: s.Name, Probe: s.Probe}
			by[k] = st
		}
		st.Spans++
		st.Calls += s.Count
		st.Total += s.duration()
		st.Self += s.Self
		durs[k] = append(durs[k], float64(s.duration()))
	}
	out := make([]spanStat, 0, len(by))
	for k, st := range by {
		st.Dur = summarize(durs[k])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probe != out[j].Probe {
			return !out[i].Probe
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// traceFile is the JSON document written at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Speed converts the spans' times, which are as measured, to the
	// reference speed the reported metrics use.
	Speed    float64    `json:"speed"`
	Spans    []span     `json:"spans"`
	SelfTime []spanStat `json:"self_time"`
}

// writeTrace stores the trace at path, creating its directory.
func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTime writes the self-time report, one "#"-prefixed line
// per span name, so metric parsers skip it.
func printSelfTime(w io.Writer, st []spanStat) {
	for _, s := range st {
		kind := "op"
		if s.Probe {
			kind = "probe"
		}
		fmt.Fprintf(w, "# span %-28s %-5s spans=%-6d calls=%-7d total_ms=%.3f self_ms=%.3f p50_us=%.2f\n",
			s.Name, kind, s.Spans, s.Calls, ms(s.Total), ms(s.Self), s.Dur.Median/1e3)
	}
}

// byName returns the spans of one name, preferring op-path spans: a
// metric is taken from the request path where the workload's ops call
// the layer, and from probe spans over the same jobs where they don't.
func byName(spans []span, name string) []span {
	var op, probe []span
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if s.Probe {
			probe = append(probe, s)
		} else {
			op = append(op, s)
		}
	}
	if len(op) > 0 {
		return op
	}
	return probe
}

// perCall is the mean time per call (per item, for spans that count
// items) of the named spans, op path preferred.
func perCall(spans []span, name string) (d time.Duration, calls int) {
	var total time.Duration
	for _, s := range byName(spans, name) {
		total += s.duration()
		calls += s.Count
	}
	if calls == 0 {
		return 0, 0
	}
	return total / time.Duration(calls), calls
}

// attrPerCall is the mean of attribute k per call of the named spans.
func attrPerCall(spans []span, name, k string) float64 {
	var sum float64
	calls := 0
	for _, s := range byName(spans, name) {
		sum += s.Attrs[k]
		calls += s.Count
	}
	if calls == 0 {
		return 0
	}
	return sum / float64(calls)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

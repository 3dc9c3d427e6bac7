package sim

import (
	"fmt"
	"strings"
)

// Event is one timestamped record in the simulation event log. The log
// is used by tests to assert flow ordering (for example, that the DVFS
// transition of Fig. 5 drains the interconnect before entering DRAM
// self-refresh) and by the CLI's verbose mode.
type Event struct {
	At      Time
	Source  string
	Message string
}

func (e Event) String() string {
	return fmt.Sprintf("[%s] %s: %s", e.At, e.Source, e.Message)
}

// EventLog accumulates events in order of emission. The zero value is
// ready to use and disabled; call Enable to start recording.
type EventLog struct {
	enabled bool
	events  []Event
	limit   int
}

// NewEventLog returns an enabled log that keeps at most limit events
// (0 means unlimited).
func NewEventLog(limit int) *EventLog {
	return &EventLog{enabled: true, limit: limit}
}

// Enable turns recording on.
func (l *EventLog) Enable() { l.enabled = true }

// Disable turns recording off; Record becomes a no-op.
func (l *EventLog) Disable() { l.enabled = false }

// Enabled reports whether the log records events.
func (l *EventLog) Enabled() bool { return l != nil && l.enabled }

// Record appends an event if the log is enabled. A nil log is safe to
// record into (no-op). The check runs after the caller has boxed args
// into a []any, though, so a hot-path caller with arguments checks
// Enabled before building them: a disabled log then costs no
// allocation.
func (l *EventLog) Record(at Time, source, format string, args ...any) {
	if l == nil || !l.enabled {
		return
	}
	if l.limit > 0 && len(l.events) >= l.limit {
		return
	}
	l.events = append(l.events, Event{At: at, Source: source, Message: fmt.Sprintf(format, args...)})
}

// Events returns the recorded events in emission order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Reset discards all recorded events.
func (l *EventLog) Reset() {
	if l != nil {
		l.events = l.events[:0]
	}
}

// Find returns the first event whose message contains substr, and
// whether one was found.
func (l *EventLog) Find(substr string) (Event, bool) {
	for _, e := range l.Events() {
		if strings.Contains(e.Message, substr) {
			return e, true
		}
	}
	return Event{}, false
}

// IndexOf returns the index of the first event whose message contains
// substr, or -1.
func (l *EventLog) IndexOf(substr string) int {
	for i, e := range l.Events() {
		if strings.Contains(e.Message, substr) {
			return i
		}
	}
	return -1
}

// String renders the log, one event per line.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

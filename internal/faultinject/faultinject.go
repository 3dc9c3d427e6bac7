// Package faultinject is the engine's deterministic chaos harness: it
// injects disk-tier I/O failures, torn writes, policy panics and
// stalls into otherwise-ordinary sweeps, reproducibly.
//
// Determinism is the point. Every fault decision is a pure function of
// a seed and a stable identity — the content-addressed cache key for
// store faults, the job index for fault plans — never of wall-clock
// time or scheduling order. The same seed therefore injects the same
// fault set at parallelism 1, 4, or 16, which is what lets the torture
// tests (-race) assert exact stats and bit-identical surviving results
// instead of "roughly this many errors".
//
// Three injectors compose with the production types they wrap:
//
//   - Store wraps any diskcache.Tier with per-key read/write failures
//     (ErrIO-classed, so the circuit breaker sees them as real), torn
//     writes that corrupt the entry on disk after a "successful" Put,
//     and a SetBroken switch modelling a disk dying mid-sweep.
//   - Chaos wraps any soc.Policy and fires one fault at a chosen
//     decision index: a raw panic (exercising the engine's panic
//     isolation) or a stall (exercising per-job deadlines).
//   - Plan assigns fault kinds to job indices, seed-deterministically,
//     so a 600-job torture batch has a reproducible fault map.
package faultinject

import (
	"fmt"

	"sysscale/internal/diskcache"
)

// FaultError is an injected store failure. It wraps diskcache.ErrIO,
// the sentinel of the layer it was injected into, so that layer's own
// consumers — the circuit breaker above all — treat it exactly like
// the real failure it models.
type FaultError struct {
	// Op names the faulted operation ("get", "put").
	Op string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("faultinject: injected io fault in %s: %v", e.Op, diskcache.ErrIO)
}

// Unwrap exposes diskcache.ErrIO to errors.Is.
func (e *FaultError) Unwrap() error { return diskcache.ErrIO }

// splitmix64 is the fault-decision hash: one round of SplitMix64,
// statistically solid for per-key/per-index coin flips and trivially
// reproducible in any language.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coin reports a deterministic perMille-in-1000 decision for identity
// under seed (perMille <= 0 never fires, >= 1000 always fires).
func coin(seed, identity uint64, perMille int) bool {
	if perMille <= 0 {
		return false
	}
	return int(splitmix64(seed^identity)%1000) < perMille
}

// Kind is one job's assigned fault in a Plan.
type Kind uint8

const (
	// KindNone runs the job clean.
	KindNone Kind = iota
	// KindPanic fires a raw policy panic (engine panic isolation).
	KindPanic
	// KindStall sleeps inside a policy decision (per-job deadlines).
	KindStall
)

// String implements fmt.Stringer for test diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Plan assigns fault kinds to job indices, deterministically in Seed:
// the same plan maps the same indices to the same kinds whatever the
// engine's parallelism or scheduling, so a torture test knows exactly
// which jobs must fail, how, and which must come back bit-identical to
// a fault-free run. Rates are per-mille and drawn disjointly (a job
// gets at most one kind); their sum must stay <= 1000.
type Plan struct {
	Seed uint64
	// PanicPerMille/StallPerMille are the per-job probabilities (in
	// 1/1000) of each fault kind.
	PanicPerMille int
	StallPerMille int
}

// Kind returns job index i's assigned fault.
func (p Plan) Kind(i int) Kind {
	r := int(splitmix64(p.Seed^(uint64(i)+0x51a7)) % 1000)
	if r < p.PanicPerMille {
		return KindPanic
	}
	r -= p.PanicPerMille
	if r < p.StallPerMille {
		return KindStall
	}
	return KindNone
}

package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"

	"sysscale/internal/soc"
)

// Mode selects what a Chaos policy does when it fires.
type Mode uint8

const (
	// ModePanic panics with a plain value mid-decision — the
	// misbehaving-policy case the engine's panic isolation must
	// contain: recover on the worker, discard the platform, surface a
	// *PanicError on that one job.
	ModePanic Mode = iota + 1
	// ModeAbort panics with soc.RunAbort carrying a transient
	// FaultError — the policy-layer error escape hatch, surfacing as
	// an ordinary (retryable) job failure.
	ModeAbort
	// ModeStall sleeps inside the decision, modelling a wedged or
	// pathologically slow governor; with a per-job deadline set the
	// job fails with engine.ErrJobTimeout at the next epoch check.
	ModeStall
)

// DefaultStall is ModeStall's sleep when Chaos.Stall is zero.
const DefaultStall = 100 * time.Millisecond

// Chaos wraps a soc.Policy and fires one injected fault at a chosen
// decision index. It is deliberately not registered with the policy
// registry (and does not expose Unwrap), so a chaotic config has no
// canonical key: the engine never serves it from any cache tier, never
// coalesces it onto a sibling, and re-runs it fresh on every retry
// attempt.
//
// Attempt counting is shared across clones: the engine clones the
// configured policy once per execution attempt, and every clone
// increments one shared counter, so FailFirst = n means "the first n
// attempts fail, the rest succeed" — the shape a retry test needs —
// regardless of which goroutine runs which attempt.
type Chaos struct {
	// FireAt is the decision index (0-based) at which the fault
	// fires.
	FireAt int
	// Stall is ModeStall's sleep (DefaultStall when zero).
	Stall time.Duration
	// FailFirst, when positive, arms the fault only for the first
	// FailFirst attempts; 0 arms it for every attempt.
	FailFirst int

	inner     soc.Policy
	mode      Mode
	attempts  *atomic.Int64
	attempt   int64 // 1-based attempt this clone is; 0 on the prototype
	decisions int
}

// NewChaos wraps inner with a fault of the given mode. Configure
// FireAt / Stall / FailFirst on the returned value before submitting
// it to an engine.
func NewChaos(inner soc.Policy, mode Mode) *Chaos {
	return &Chaos{inner: inner, mode: mode, attempts: new(atomic.Int64)}
}

// Name implements soc.Policy.
func (c *Chaos) Name() string { return c.inner.Name() + "+chaos" }

// Reset implements soc.Policy.
func (c *Chaos) Reset() {
	c.decisions = 0
	c.inner.Reset()
}

// Clone implements soc.Policy: the clone shares the attempt counter
// and claims the next attempt number.
func (c *Chaos) Clone() soc.Policy {
	cl := *c
	cl.inner = c.inner.Clone()
	cl.decisions = 0
	cl.attempt = c.attempts.Add(1)
	return &cl
}

// Attempts returns how many execution attempts (clones) the engine has
// made so far.
func (c *Chaos) Attempts() int64 { return c.attempts.Load() }

// armed reports whether this attempt's fault is live.
func (c *Chaos) armed() bool {
	return c.FailFirst == 0 || c.attempt <= int64(c.FailFirst)
}

// Decide implements soc.Policy, firing the configured fault at
// decision index FireAt.
func (c *Chaos) Decide(pc soc.PolicyContext) soc.PolicyDecision {
	d := c.inner.Decide(pc)
	n := c.decisions
	c.decisions++
	if n == c.FireAt && c.armed() {
		switch c.mode {
		case ModePanic:
			panic(fmt.Sprintf("faultinject: chaos panic at decision %d (attempt %d)", n, c.attempt))
		case ModeAbort:
			panic(soc.RunAbort{Err: &FaultError{Op: "decide", Kind: "abort"}})
		case ModeStall:
			stall := c.Stall
			if stall <= 0 {
				stall = DefaultStall
			}
			time.Sleep(stall)
		}
	}
	return d
}

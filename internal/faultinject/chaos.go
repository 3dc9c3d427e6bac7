package faultinject

import (
	"fmt"
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
	// ModeStall sleeps inside the decision, modelling a wedged or
	// pathologically slow governor; with an engine job deadline
	// (engine.WithJobTimeout) shorter than the stall, the job fails
	// with engine.ErrJobTimeout at the next epoch check.
	ModeStall
)

// DefaultStall is ModeStall's sleep when Chaos.Stall is zero.
const DefaultStall = 100 * time.Millisecond

// Chaos wraps a soc.Policy and fires one injected fault — a panic or a
// stall — at a chosen decision index, on every run. It is deliberately
// not registered with the policy registry (and does not expose
// Unwrap), so a chaotic config has no canonical key: the engine never
// serves it from the LRU or the disk tier, and never stores it there.
type Chaos struct {
	// FireAt is the decision index (0-based) at which the fault
	// fires.
	FireAt int
	// Stall is ModeStall's sleep (DefaultStall when zero).
	Stall time.Duration

	inner     soc.Policy
	mode      Mode
	decisions int
}

// NewChaos wraps inner with a fault of the given mode. Configure
// FireAt / Stall on the returned value before submitting it to an
// engine.
func NewChaos(inner soc.Policy, mode Mode) *Chaos {
	return &Chaos{inner: inner, mode: mode}
}

// Name implements soc.Policy.
func (c *Chaos) Name() string { return c.inner.Name() + "+chaos" }

// Reset implements soc.Policy.
func (c *Chaos) Reset() {
	c.decisions = 0
	c.inner.Reset()
}

// Clone implements soc.Policy.
func (c *Chaos) Clone() soc.Policy {
	cl := *c
	cl.inner = c.inner.Clone()
	cl.decisions = 0
	return &cl
}

// Decide implements soc.Policy, firing the configured fault at
// decision index FireAt.
func (c *Chaos) Decide(pc soc.PolicyContext) soc.PolicyDecision {
	d := c.inner.Decide(pc)
	n := c.decisions
	c.decisions++
	if n == c.FireAt {
		switch c.mode {
		case ModePanic:
			panic(fmt.Sprintf("faultinject: chaos panic at decision %d", n))
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

package policy

import "sysscale/internal/soc"

// This file provides ablation decorators: they wrap a governor and
// strip one design element, letting the experiments quantify each
// element's contribution (DESIGN.md §6).

type mrcOff struct{ inner soc.Policy }

// WithoutOptimizedMRC returns p with per-frequency MRC reloads
// disabled: every transition keeps the boot register image, the
// Observation 4 failure mode inside an otherwise unchanged policy.
func WithoutOptimizedMRC(p soc.Policy) soc.Policy { return &mrcOff{inner: p} }

func (m *mrcOff) Name() string       { return m.inner.Name() + "-no-mrc" }
func (m *mrcOff) Reset()             { m.inner.Reset() }
func (m *mrcOff) Clone() soc.Policy  { return &mrcOff{inner: m.inner.Clone()} }
func (m *mrcOff) Unwrap() soc.Policy { return m.inner }
func (m *mrcOff) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	d := m.inner.Decide(ctx)
	d.OptimizedMRC = false
	return d
}

type noRedist struct{ inner soc.Policy }

// WithoutRedistribution returns p with power-budget redistribution
// disabled: the IO and memory domains still scale (saving power), but
// the compute domain keeps its baseline worst-case allocation — the
// "pure power-saving" mode the ablation compares against.
func WithoutRedistribution(p soc.Policy) soc.Policy { return &noRedist{inner: p} }

func (n *noRedist) Name() string       { return n.inner.Name() + "-no-redist" }
func (n *noRedist) Reset()             { n.inner.Reset() }
func (n *noRedist) Clone() soc.Policy  { return &noRedist{inner: n.inner.Clone()} }
func (n *noRedist) Unwrap() soc.Policy { return n.inner }
func (n *noRedist) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	d := n.inner.Decide(ctx)
	d.IOBudget = ctx.Reserve[0].IO
	d.MemBudget = ctx.Reserve[0].Mem
	d.ComputeBonus = 0
	return d
}

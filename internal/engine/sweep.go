package engine

import (
	"context"
	"fmt"

	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// Sweep declaratively builds the policy × workload cross-product every
// figure of the paper's evaluation is shaped like, replacing the
// hand-rolled double loops the experiment harness used to repeat. A
// sweep starts from a base config template, crosses the configured
// workloads with the configured policies (workload-major, so cache
// locality and result ordering match the historical runMatrix layout),
// applies the Configure hooks to every cell, and runs the whole
// product as one engine batch:
//
//	rs, err := engine.NewSweep().
//		Policies(policy.NewBaseline(), policy.NewSysScaleDefault()).
//		Workloads(workload.SPECSuite()...).
//		Configure(func(c *soc.Config) { c.TDP = 3.5 }).
//		RunContext(ctx, eng)
//
// The builder mutates and returns the same *Sweep for chaining; it is
// not safe for concurrent mutation, but the produced configs are
// independent values.
type Sweep struct {
	base      soc.Config
	baseSet   bool
	workloads []workload.Workload
	policies  []soc.Policy
	configure []func(*soc.Config)
	cell      []func(w workload.Workload, pi int, cfg *soc.Config)
}

// NewSweep returns an empty sweep over the default platform
// (soc.DefaultConfig).
func NewSweep() *Sweep { return &Sweep{} }

// Base replaces the config template every cell starts from (default
// soc.DefaultConfig()). The template's Workload and Policy fields are
// overwritten per cell.
func (s *Sweep) Base(cfg soc.Config) *Sweep {
	s.base, s.baseSet = cfg, true
	return s
}

// Workloads appends the sweep's workload axis.
func (s *Sweep) Workloads(ws ...workload.Workload) *Sweep {
	s.workloads = append(s.workloads, ws...)
	return s
}

// Policies appends the sweep's policy axis. One instance per column is
// enough — the engine clones it for every job.
func (s *Sweep) Policies(ps ...soc.Policy) *Sweep {
	s.policies = append(s.policies, ps...)
	return s
}

// Configure appends hooks applied to every cell's config (after the
// workload and policy are set), in order.
func (s *Sweep) Configure(fs ...func(*soc.Config)) *Sweep {
	s.configure = append(s.configure, fs...)
	return s
}

// ConfigureCell appends a hook that additionally sees the cell's
// workload and policy index, for per-row or per-column adjustments
// (for example pinning a different core frequency per policy column).
// Cell hooks run after the Configure hooks.
func (s *Sweep) ConfigureCell(f func(w workload.Workload, pi int, cfg *soc.Config)) *Sweep {
	s.cell = append(s.cell, f)
	return s
}

// Configs materializes the cross-product, workload-major: the config
// for (workload wi, policy pi) is at index wi*len(policies)+pi.
func (s *Sweep) Configs() []soc.Config {
	base := s.base
	if !s.baseSet {
		base = soc.DefaultConfig()
	}
	cfgs := make([]soc.Config, 0, len(s.workloads)*len(s.policies))
	for _, w := range s.workloads {
		for pi, p := range s.policies {
			cfg := base
			cfg.Workload = w
			cfg.Policy = p
			for _, f := range s.configure {
				f(&cfg)
			}
			for _, f := range s.cell {
				f(w, pi, &cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// RunContext executes the sweep on the engine and returns the
// ResultSet, inheriting the engine batch semantics: fail-fast with a
// *JobError on the first failed cell, ctx.Err() pass-through on
// cancellation.
func (s *Sweep) RunContext(ctx context.Context, e *Engine) (*ResultSet, error) {
	if len(s.workloads) == 0 || len(s.policies) == 0 {
		return nil, fmt.Errorf("%w: sweep needs at least one workload and one policy", soc.ErrInvalidConfig)
	}
	cfgs := s.Configs()
	jobs := make([]Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = Job{Config: c}
	}
	flat, err := e.RunBatchContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Workloads: s.workloads, Policies: s.policies}
	rs.results = make([][]soc.Result, len(s.workloads))
	for wi := range s.workloads {
		rs.results[wi] = flat[wi*len(s.policies) : (wi+1)*len(s.policies)]
	}
	return rs, nil
}

// ResultSet is a completed sweep: the policy × workload result matrix
// plus the cross-product comparison helpers the evaluation figures are
// built from.
type ResultSet struct {
	// Workloads and Policies are the sweep axes, in sweep order.
	Workloads []workload.Workload
	Policies  []soc.Policy

	results [][]soc.Result // [workload][policy]
}

// Result returns the cell for (workload wi, policy pi).
func (rs *ResultSet) Result(wi, pi int) soc.Result { return rs.results[wi][pi] }

// Row returns workload wi's results across every policy column.
func (rs *ResultSet) Row(wi int) []soc.Result { return rs.results[wi] }

// Col returns policy pi's results across every workload, in workload
// order.
func (rs *ResultSet) Col(pi int) []soc.Result {
	out := make([]soc.Result, len(rs.results))
	for wi := range rs.results {
		out[wi] = rs.results[wi][pi]
	}
	return out
}

// Comparison is a cross-product comparison matrix: one metric value
// per (policy, workload) cell, each policy compared against the same
// baseline column. Values is indexed [policy][workload] in sweep
// order; Value looks cells up by name.
type Comparison struct {
	// Metric names the compared quantity (for rendering).
	Metric string
	// Policies and Workloads name the axes, in sweep order.
	Policies  []string
	Workloads []string
	// Values[pi][wi] compares policy pi to the baseline column on
	// workload wi (the baseline's own row is identically zero).
	Values [][]float64
}

// Value returns the cell for the named policy and workload. Lookup is
// by Name(), so sweeps whose policy columns share a name (two pinned
// static points, say) should index Values directly instead.
func (c Comparison) Value(policy, workload string) (float64, bool) {
	for pi, pn := range c.Policies {
		if pn != policy {
			continue
		}
		for wi, wn := range c.Workloads {
			if wn == workload {
				return c.Values[pi][wi], true
			}
		}
	}
	return 0, false
}

// RowMean averages policy pi's comparison across the workloads, in
// workload order (the arithmetic the figures report as "average").
func (c Comparison) RowMean(pi int) float64 {
	if len(c.Values[pi]) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.Values[pi] {
		sum += v
	}
	return sum / float64(len(c.Values[pi]))
}

// Compare builds a comparison matrix with a caller-supplied metric:
// f(r, base) for every cell, against baseline policy column basePi.
func (rs *ResultSet) Compare(metric string, basePi int, f func(r, base soc.Result) float64) Comparison {
	c := Comparison{
		Metric:    metric,
		Policies:  make([]string, len(rs.Policies)),
		Workloads: make([]string, len(rs.Workloads)),
		Values:    make([][]float64, len(rs.Policies)),
	}
	for pi, p := range rs.Policies {
		c.Policies[pi] = p.Name()
		c.Values[pi] = make([]float64, len(rs.Workloads))
		for wi := range rs.Workloads {
			c.Values[pi][wi] = f(rs.results[wi][pi], rs.results[wi][basePi])
		}
	}
	for wi, w := range rs.Workloads {
		c.Workloads[wi] = w.Name
	}
	return c
}

// PerfImprovement returns the performance-improvement matrix against
// baseline column basePi.
func (rs *ResultSet) PerfImprovement(basePi int) Comparison {
	return rs.Compare("perf improvement", basePi, soc.PerfImprovement)
}

// PowerReduction returns the average-power-reduction matrix against
// baseline column basePi.
func (rs *ResultSet) PowerReduction(basePi int) Comparison {
	return rs.Compare("power reduction", basePi, soc.PowerReduction)
}

// EDPImprovement returns the energy-delay-product-improvement matrix
// against baseline column basePi.
func (rs *ResultSet) EDPImprovement(basePi int) Comparison {
	return rs.Compare("EDP improvement", basePi, soc.EDPImprovement)
}

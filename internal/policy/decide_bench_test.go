package policy

import (
	"testing"

	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload/gen"
)

// recorder wraps a policy and records every context it is asked to
// decide on, with the decision its inner policy returned.
type recorder struct {
	inner     soc.Policy
	ctxs      []soc.PolicyContext
	decisions []soc.PolicyDecision
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	d := r.inner.Decide(ctx)
	r.ctxs = append(r.ctxs, ctx)
	r.decisions = append(r.decisions, d)
	return d
}

func (r *recorder) Reset() {
	r.inner.Reset()
	r.ctxs, r.decisions = r.ctxs[:0], r.decisions[:0]
}

func (r *recorder) Clone() soc.Policy { return &recorder{inner: r.inner.Clone()} }

// BenchmarkDecide is one Decide of each closed-loop family, on the
// contexts a 2 s run of generated workload 0 (seed 1) under that
// family handed its policy, replayed in order on a clone reset at the
// start of every pass. Before timing, one pass must return the
// recorded decisions, so the replay is the run's decision sequence.
func BenchmarkDecide(b *testing.B) {
	w := gen.GenerateN(gen.DefaultConfig(1), 1)[0]
	for _, c := range []struct {
		name string
		pol  soc.Policy
	}{
		{"baseline", NewBaseline()},
		{"sysscale", NewSysScaleDefault()},
		{"memscale-redist", NewMemScaleRedist()},
		{"coscale-redist", NewCoScaleRedist()},
	} {
		b.Run(c.name, func(b *testing.B) {
			rec := &recorder{inner: c.pol}
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = rec
			cfg.Duration = 2 * sim.Second
			if _, err := soc.Run(cfg); err != nil {
				b.Fatal(err)
			}
			ctxs := rec.ctxs
			p := c.pol.Clone()
			for i, ctx := range ctxs {
				if d := p.Decide(ctx); d != rec.decisions[i] {
					b.Fatalf("replayed decision %d of %d differs from the recorded one", i, len(ctxs))
				}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i%len(ctxs) == 0 {
					p.Reset()
				}
				p.Decide(ctxs[i%len(ctxs)])
			}
		})
	}
}

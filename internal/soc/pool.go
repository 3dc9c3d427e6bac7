package soc

import (
	"context"
	"fmt"

	"sysscale/internal/cache"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/pmu"
	"sysscale/internal/vf"
)

// Reset reprograms an assembled platform for a new run of cfg without
// reallocating its components. After validating cfg and checking that
// the platform's structure can absorb it, Reset runs program, the same
// routine that ends newPlatform, so a recycled platform is restored to
// exactly what newPlatform(cfg) would build and produces bit-identical
// Results by construction.
//
// Structural changes a reset cannot absorb (a different DRAM
// technology, which needs retrained MRC images, or event recording,
// which needs a log wired through the flow) return an error and the
// caller assembles fresh.
//
// Reset is not failure-atomic: on any error the platform may be left
// half-reprogrammed and must be discarded, not reused. (Runner does
// exactly that, falling back to fresh assembly.)
func (p *Platform) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.DRAMKind != p.cfg.DRAMKind || cfg.recordEvents || p.log != nil {
		return fmt.Errorf("soc: platform cannot be recycled for this configuration")
	}
	return p.program(cfg)
}

// program puts every piece of mutable state at cfg's boot point
// (ladder[0]) with the trained MRC image and worst-case reservations:
// clock, rail voltages, DRAM timing image and self-refresh statistics,
// controller/fabric/LLC operating points and rolling epochs, IO
// configuration, compute P-states, counters, meters, the reservation
// table, budget, flow statistics and options, the reference-latency
// terms, and the tick and PBM memos. It is the only code that programs
// the boot point; newPlatform and Reset both end in it.
func (p *Platform) program(cfg Config) error {
	boot := cfg.Ladder[0]
	p.cfg = cfg

	p.clock.Restart(cfg.SampleInterval)
	if _, err := p.rails.Get(vf.RailVSA).Set(boot.VSA); err != nil {
		return err
	}
	if _, err := p.rails.Get(vf.RailVIO).Set(boot.VIO); err != nil {
		return err
	}
	if err := p.dev.Reset(boot.DDR); err != nil {
		return err
	}
	if err := p.mc.SetOperatingPoint(boot.MC, boot.VSA); err != nil {
		return err
	}
	p.mc.Release()
	p.mc.RestoreEpoch(memctrl.Epoch{})
	p.llc.RestoreEpoch(cache.Epoch{})
	if err := p.fabric.SetOperatingPoint(boot.Interco, boot.VSA); err != nil {
		return err
	}
	p.fabric.Release()
	p.fabric.RestoreEpoch(interconnect.Epoch{})
	p.ioeng.Configure(cfg.CSR)
	p.cores.Reset()
	p.gfx.Reset()
	p.counters.Reset()
	p.meters.Reset()

	// Budget: boot reservations are the worst case at the boot point.
	p.fillWorstCase()
	io, mem := p.clampReservations(p.worst[0].io, p.worst[0].mem)
	if err := p.budget.Reset(cfg.TDP, io, mem, uncoreBudget); err != nil {
		return err
	}
	p.flow.ResetStats()
	p.flow.Reconfigure(pmu.DefaultFlowOptions(boot.DDR))
	p.refT = p.mc.Terms()

	p.current = boot
	p.currentIdx = 0
	p.bonus = 0
	p.tickProg = tickProg{}
	p.memoReady = false
	p.evalCalls = 0
	p.spans = 0
	p.imageSpans = 0
	p.pbmMemo = pbmMemo{}
	p.reprogrammed = false
	return nil
}

// Runner executes simulations on one reusable Platform. The first Run
// assembles a platform; subsequent Runs recycle it through Reset,
// skipping MRC retraining, component construction, and the per-run
// slice/map allocations. A Runner is not safe for concurrent use —
// the run engine keeps a sync.Pool of them, one per in-flight job.
type Runner struct {
	p *Platform
}

// NewRunner returns an empty runner; its platform is assembled lazily
// on first use.
func NewRunner() *Runner { return &Runner{} }

// Run simulates cfg, recycling the held platform when possible. It is
// result-equivalent to Run(cfg): a reset platform is bit-identical to
// a fresh one, and any configuration the reset path cannot absorb is
// simulated on a freshly assembled platform instead.
func (r *Runner) Run(cfg Config) (Result, error) {
	return r.RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation (see RunContext at package
// level). A run cancelled mid-flight leaves the held platform in a
// consistent, fully resettable state: the next RunContext reprograms
// it bit-identically to fresh assembly, so cancellation never poisons
// a pooled Runner.
func (r *Runner) RunContext(ctx context.Context, cfg Config) (Result, error) {
	if r.p != nil {
		if err := r.p.Reset(cfg); err == nil {
			return r.p.run(ctx)
		}
		// Any Reset failure — structural incompatibility or a config
		// error — leaves the platform unusable: discard and assemble
		// fresh, which re-reports genuine configuration errors
		// identically to Run.
		r.p = nil
	}
	p, err := newPlatform(cfg)
	if err != nil {
		return Result{}, err
	}
	r.p = p
	return p.run(ctx)
}

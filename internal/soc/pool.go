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

// fillLadderIndex rebuilds the OperatingPoint→index map from the
// configured ladder. The fill runs highest index first so that, should
// a ladder list the same point twice, the lowest index wins — matching
// the semantics of the linear scan the map replaces.
func (p *Platform) fillLadderIndex() {
	clear(p.ladderIdx)
	for i := len(p.cfg.Ladder) - 1; i >= 0; i-- {
		p.ladderIdx[p.cfg.Ladder[i]] = i
	}
}

// Reset reprograms an assembled platform for a new run of cfg without
// reallocating its components. Every piece of mutable state — clocks,
// rail voltages, DRAM timing image and self-refresh statistics,
// controller/fabric/LLC rolling epochs, compute P-states, counters,
// meters, budget, flow statistics, the reference-latency cache, and
// the tick memo — is restored to exactly what newPlatform(cfg) would
// build, so a recycled platform produces bit-identical Results.
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
	if cfg.DRAMKind != p.cfg.DRAMKind || cfg.RecordEvents || p.log != nil {
		return fmt.Errorf("soc: platform cannot be recycled for this configuration")
	}
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

	io, mem := p.clampReservations(p.WorstCaseIOBudget(boot), p.WorstCaseMemBudget(boot))
	if err := p.budget.Reset(cfg.TDP, io, mem, uncoreBudget); err != nil {
		return err
	}
	p.flow.ResetStats()
	p.flow.Reconfigure(pmu.DefaultFlowOptions(boot.DDR))

	if err := p.refMC.Device().Reset(boot.DDR); err != nil {
		return err
	}
	if err := p.refMC.SetOperatingPoint(boot.MC, boot.VSA); err != nil {
		return err
	}
	p.refMC.RestoreEpoch(memctrl.Epoch{})

	p.current = boot
	p.currentIdx = 0
	p.fillLadderIndex()
	p.bonus = 0
	p.tickProg = tickProg{}
	p.memoReady = false
	p.evalCalls = 0
	p.pbmMemo = pbmMemo{}
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

// Package soc assembles the full mobile SoC model — compute, IO and
// memory domains, rails, PMU flow, counters, meters — and runs the
// epoch simulation that stands in for the paper's real Skylake system.
//
// The package defines the Policy interface that power-management
// governors implement (SysScale and the baselines live in
// internal/policy) and exposes Run, the simulation entry point.
package soc

import (
	"fmt"
	"time"

	"sysscale/internal/cache"
	"sysscale/internal/compute"
	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/ioengine"
	"sysscale/internal/memctrl"
	"sysscale/internal/mrc"
	"sysscale/internal/perfcounters"
	"sysscale/internal/pmu"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// PolicyContext is the information a governor sees at each evaluation
// interval: exactly what the PMU firmware can observe — averaged
// counters, peripheral CSRs, the operating-point ladder, and the
// worst-case budget table. No oracle workload knowledge is exposed.
type PolicyContext struct {
	Now      sim.Time
	Interval sim.Time
	// Counters is the window-averaged sample (1ms samples averaged
	// over the evaluation interval, §4.3).
	Counters perfcounters.Sample
	// CSR is the IO peripheral configuration register file.
	CSR ioengine.CSR
	// Current is the active IO+memory operating point.
	Current vf.OperatingPoint
	// Ladder is the supported operating points, highest first.
	Ladder []vf.OperatingPoint
	// Reserve is the PBM reservation table: Reserve[i] holds the
	// worst-case IO and memory budgets at Ladder[i]. Like Ladder it is
	// read-only and valid only during Decide; the platform reuses its
	// backing array across runs.
	Reserve []Reservation
	// ComputeBudget and ComputePower report last interval's compute
	// allocation and measured draw (used by running-average governors
	// such as CoScale's credit mechanism).
	ComputeBudget power.Watt
	ComputePower  power.Watt
	// IOMemPower is the measured IO+memory domain draw averaged over
	// the last interval — the quantity the MemScale/CoScale projection
	// turns into a redistribution credit (§6).
	IOMemPower power.Watt
	// CoreFreq is the core P-state granted in the last interval.
	CoreFreq vf.Hz
	// Warmup is true on the first evaluation after reset, before any
	// counter samples exist.
	Warmup bool
	// GfxBusy hints that the driver has an active graphics context
	// (drivers know this; it selects the PBM split).
	GfxBusy bool
}

// PolicyDecision is a governor's output for the next interval.
type PolicyDecision struct {
	// Target operating point for the IO and memory domains.
	Target vf.OperatingPoint
	// OptimizedMRC selects per-frequency register images (SysScale);
	// false keeps the boot image (MemScale/CoScale, Observation 4).
	OptimizedMRC bool
	// IOBudget and MemBudget are the domain reservations to program
	// into the PBM.
	IOBudget, MemBudget power.Watt
	// CoreFreqReq and GfxFreqReq cap the compute P-states (0 = let the
	// PBM grant the budget maximum). CoScale uses CoreFreqReq.
	CoreFreqReq, GfxFreqReq vf.Hz
	// ComputeBonus is extra compute budget granted this interval from
	// a governor-managed running-average credit (CoScale-Redist).
	ComputeBonus power.Watt
}

// Policy is a power-management governor. Implementations must be
// deterministic functions of the context (plus their own state).
type Policy interface {
	// Name identifies the governor in results.
	Name() string
	// Decide returns the governor's decision for the next interval.
	Decide(ctx PolicyContext) PolicyDecision
	// Reset clears internal state before a run.
	Reset()
	// Clone returns an independent copy of the policy carrying the same
	// configuration but none of the accumulated decision state. Run
	// mutates policy state (governors are stateful and Reset at run
	// start), so sharing one Policy value across concurrent simulations
	// is a data race; the run engine clones the configured policy once
	// per job instead. Clone must be safe to call from any goroutine.
	Clone() Policy
}

// Config describes one simulation run.
type Config struct {
	TDP      power.Watt
	DRAMKind dram.Kind
	Ladder   []vf.OperatingPoint // highest first; index 0 is the boot point
	CSR      ioengine.CSR
	Workload workload.Workload
	Policy   Policy
	Duration sim.Time

	// EvalInterval is the PMU algorithm period (§4.3: 30ms default);
	// SampleInterval is the counter sampling period (1ms default).
	EvalInterval   sim.Time
	SampleInterval sim.Time

	// FixedCoreFreq pins the CPU cores (used by the §3 motivation
	// experiments, which fix 1.2 or 1.3GHz). 0 = PBM-managed.
	FixedCoreFreq vf.Hz
	// FixedGfxFreq pins the graphics engines. 0 = PBM-managed.
	FixedGfxFreq vf.Hz

	// Test hooks, unexported because they select how the simulator
	// integrates time or what it logs, not the platform, so none belongs
	// in the job's identity (the cache key). The two memos are exact:
	// noTickMemo resolves the progress-rate fixpoint on every tick, and
	// noPBMMemo re-runs the budget→P-state arbitration on every applyPBM
	// call, so A/B tests can keep the bit-identity claims falsifiable.
	// noSpanBatching walks the run one tick at a time, the reference
	// oracle for the span-batched core: the two paths differ only in
	// floating-point summation order (closed-form multiplication versus
	// repeated addition) and agree to ≤1e-9 relative on every Result
	// field across the shipped suites (TestSpanBatchingEquivalence).
	// recordEvents wires an event log through the flow (flow tracing);
	// such a platform is always assembled fresh.
	noTickMemo     bool
	noPBMMemo      bool
	noSpanBatching bool
	recordEvents   bool
}

// DefaultConfig returns the Table 2 platform: 4.5W TDP, LPDDR3-1600,
// the two-point ladder, one HD panel, 30ms evaluation interval.
func DefaultConfig() Config {
	return Config{
		TDP:            4.5,
		DRAMKind:       dram.LPDDR3,
		Ladder:         vf.TwoPointLadder(),
		CSR:            ioengine.SingleHDLaptop(),
		Duration:       2 * sim.Second,
		EvalInterval:   30 * sim.Millisecond,
		SampleInterval: 1 * sim.Millisecond,
	}
}

// Validate checks the configuration. Every rejection wraps
// ErrInvalidConfig, so callers can classify failures with errors.Is.
func (c Config) Validate() error {
	if c.TDP <= 0 {
		return fmt.Errorf("%w: non-positive TDP", ErrInvalidConfig)
	}
	if len(c.Ladder) == 0 {
		return fmt.Errorf("%w: empty operating-point ladder", ErrInvalidConfig)
	}
	for _, op := range c.Ladder {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
		if !c.DRAMKind.SupportsBin(op.DDR) {
			return fmt.Errorf("%w: ladder point %s uses unsupported bin %v", ErrInvalidConfig, op.Name, op.DDR)
		}
	}
	if c.Policy == nil {
		return fmt.Errorf("%w: nil policy", ErrInvalidConfig)
	}
	if v, ok := c.Policy.(PolicyValidator); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("%w: policy %s: %w", ErrInvalidConfig, c.Policy.Name(), err)
		}
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("%w: non-positive duration", ErrInvalidConfig)
	}
	if c.EvalInterval <= 0 || c.SampleInterval <= 0 {
		return fmt.Errorf("%w: non-positive interval", ErrInvalidConfig)
	}
	if c.SampleInterval > c.EvalInterval {
		return fmt.Errorf("%w: sample interval exceeds evaluation interval", ErrInvalidConfig)
	}
	if c.Duration < c.SampleInterval {
		return fmt.Errorf("%w: duration %v shorter than one tick (%v)", ErrInvalidConfig, time.Duration(c.Duration), time.Duration(c.SampleInterval))
	}
	// The run integrates whole ticks and reads the phase at each tick's
	// start, so a run or phase duration off the tick grid would drop
	// time from the energy and residency sums or alias a phase away.
	if c.Duration%c.SampleInterval != 0 {
		return fmt.Errorf("%w: duration %v is not a whole number of ticks (%v)", ErrInvalidConfig, time.Duration(c.Duration), time.Duration(c.SampleInterval))
	}
	for i, p := range c.Workload.Phases {
		if p.Duration%c.SampleInterval != 0 {
			return fmt.Errorf("%w: phase %d duration %v is not a whole number of ticks (%v)", ErrInvalidConfig, i, time.Duration(p.Duration), time.Duration(c.SampleInterval))
		}
	}
	return nil
}

// Platform is one assembled SoC instance. Assembly (newPlatform) and
// recycling (Reset) share one programming routine, program, which
// puts every component at the configuration's boot point.
type Platform struct {
	cfg Config

	clock    *sim.Clock
	rails    *vf.Rails
	dev      *dram.Device
	store    *mrc.Store
	mc       *memctrl.Controller
	llc      *cache.LLC
	fabric   *interconnect.Fabric
	ioeng    *ioengine.Engines
	cores    *compute.Cores
	gfx      *compute.Gfx
	ddrio    *ddrio
	counters *perfcounters.File
	meters   *power.MeterBank
	budget   *power.Budget
	pbm      *pmu.PBM
	flow     *pmu.Flow
	log      *sim.EventLog
	dramPow  dram.PowerParams

	// refT is the memory controller's Terms at the boot point with the
	// trained timing, taken at the end of programming: each phase's
	// reference latency is its unloaded-point latency under them.
	refT memctrl.Terms

	current vf.OperatingPoint
	// currentIdx caches the ladder index of current, so the hot loop's
	// residency accounting does not rescan the ladder every tick
	// (maybeTransition updates it; see ladderIndex).
	currentIdx int
	bonus      power.Watt

	// Steady-state tick memo (run.go): one tickEval slot per phase —
	// the resolved fixpoint plus its stall-free span image — valid
	// while tickProg, the programmable state feeding evalTick,
	// sampleFor and tickPower, is unchanged. An evaluation writes only
	// its slot, so a slot marked valid is all a memo hit needs. program
	// sizes the memo for the workload, recycling a pooled platform's
	// backing array. evalCalls counts full fixpoint evaluations, spans
	// integrated spans, and imageSpans the spans served from a slot's
	// span image.
	tickProg   tickProg
	tickMemo   []tickEval
	evalCalls  int
	spans      int
	imageSpans int

	// fabUtil is the IO interconnect's utilization on the last
	// integrated span: the load a DVFS transition's block-and-drain
	// step empties (maybeTransition).
	fabUtil float64

	// pbm grant memo (run.go): skips the budget→P-state search when the
	// request, the compute budget, and the currently programmed compute
	// state all match the previous applyPBM outcome.
	pbmMemo pbmMemo

	// reprogrammed marks that tickProg's inputs may have moved since
	// the last refreshTickMemo: maybeTransition sets it when it takes a
	// transition and applyPBM when it misses its memo, the only writers
	// of that state inside run. syncTickMemo refreshes the tick memo
	// only when it is set.
	reprogrammed bool

	// worst is the PBM reservation table: the worst-case IO and memory
	// budgets of every ladder point, in ladder order, filled by program
	// (budgets.go). Policies read it as PolicyContext.Reserve.
	worst []Reservation
}

// NewPlatform assembles an SoC without running it, for callers that
// need the budget tables or component models (the experiment harness).
func NewPlatform(cfg Config) (*Platform, error) { return newPlatform(cfg) }

// newPlatform builds the components for cfg — the DRAM technology,
// its trained MRC images, the event log when cfg records events, and
// whatever a constructor needs as an argument — and then programs
// them to the boot point (ladder[0]) through program, exactly as
// Reset does.
func newPlatform(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	boot := cfg.Ladder[0]

	p := &Platform{}
	p.clock = sim.NewClock(cfg.SampleInterval)
	p.rails = vf.DefaultRails()
	if cfg.recordEvents {
		p.log = sim.NewEventLog(0)
	}

	var err error
	p.dev, err = dram.NewDevice(cfg.DRAMKind, dram.DefaultGeometry(), boot.DDR)
	if err != nil {
		return nil, err
	}
	p.store, err = mrc.Train(cfg.DRAMKind)
	if err != nil {
		return nil, err
	}
	p.mc, err = memctrl.New(memctrl.DefaultParams(), p.dev)
	if err != nil {
		return nil, err
	}
	p.llc, err = cache.New(cache.DefaultParams())
	if err != nil {
		return nil, err
	}
	p.fabric, err = interconnect.New(interconnect.DefaultParams(), boot.Interco, boot.VSA)
	if err != nil {
		return nil, err
	}
	p.ioeng = ioengine.NewEngines()
	p.cores, err = compute.NewCores(compute.DefaultCoreParams())
	if err != nil {
		return nil, err
	}
	p.gfx, err = compute.NewGfx(compute.DefaultGfxParams())
	if err != nil {
		return nil, err
	}
	p.ddrio = newDDRIO()
	p.counters = perfcounters.New()
	p.meters = power.NewMeterBank()
	p.dramPow = dram.DefaultPowerParams()
	p.budget = new(power.Budget)
	p.pbm, err = pmu.NewPBM(p.budget, p.cores, p.gfx)
	if err != nil {
		return nil, err
	}
	p.flow, err = pmu.NewFlow(p.rails, p.fabric, p.mc, p.dev, p.store, p.log, pmu.FlowOptions{})
	if err != nil {
		return nil, err
	}
	if err := p.program(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// EventLog returns the run's event log (nil unless the config records
// events, which only tests switch on).
func (p *Platform) EventLog() *sim.EventLog { return p.log }

// uncoreBudget is the fixed reservation for miscellaneous uncore logic.
const uncoreBudget power.Watt = 0.20

// uncorePower is the actual uncore draw while the package is active.
const uncorePower power.Watt = 0.10

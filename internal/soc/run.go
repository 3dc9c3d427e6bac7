package soc

import (
	"context"
	"math"
	"slices"

	"sysscale/internal/cache"
	"sysscale/internal/compute"
	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/perfcounters"
	"sysscale/internal/pmu"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// Run simulates one workload under one policy and returns the Result.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation checks ctx at
// every policy-evaluation boundary (spans never cross an epoch, so the
// check also bounds the span-batched core) and unwinds within one
// policy epoch of wall-progress once ctx is done, returning the
// context's cancel cause (context.Cause) — ctx.Err() when no distinct
// cause was set.
// The platform state is left consistent — a cancelled pooled platform
// resets bit-identically for its next run.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	p, err := newPlatform(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.run(ctx)
}

// tickEval is the resolved state of one simulation tick, and the tick
// memo's per-phase slot. The fields up to c2BW are the fixpoint
// evaluation evalTick writes, a pure function of the phase and the
// programming tickProg keys on; the evaluation writes nothing outside
// the slot. img is the stall-free span image integrateSpan derives
// from them: the counter sample, the rails, and the per-tick work and
// active-time products of a span with no DVFS stall charge. It is a
// function of the same inputs, so it stays valid exactly as long as
// the evaluation does; evalTick clears imgOK. valid marks the slot as
// holding the evaluation for the current tickProg.
type tickEval struct {
	r      float64 // progress rate relative to reference (C0)
	mcEp   memctrl.Epoch
	fabEp  interconnect.Epoch
	llcEp  cache.Epoch
	c2Util float64 // memory utilization during C2 (static traffic only)
	c2IO   float64 // fabric utilization during C2
	c2BW   float64 // achieved memory bytes during C2

	// img holds one tick's increments (dWork and dActive not yet
	// multiplied by a span length); imgOK marks it filled.
	img   spanDelta
	imgOK bool

	valid bool
}

func (p *Platform) run(ctx context.Context) (Result, error) {
	cfg := p.cfg
	cfg.Policy.Reset()

	res := Result{
		Workload:       cfg.Workload.Name,
		Policy:         cfg.Policy.Name(),
		Duration:       cfg.Duration,
		PerfMet:        true,
		PointResidency: make([]float64, len(cfg.Ladder)),
	}

	tick := cfg.SampleInterval
	tickSec := tick.Seconds()
	evalEvery := int(cfg.EvalInterval / tick)
	if evalEvery < 1 {
		evalEvery = 1
	}

	var (
		work, activeTime   float64
		counterSum         perfcounters.Sample
		counterTicks       int
		coreFreqSum        float64
		gfxFreqSum         float64
		lastComputePower   power.Watt
		ioMemPowerInterval float64
		intervalTicks      int
		pendingStall       sim.Time
	)

	cursor := newPhaseCursor(cfg.Workload)

	nTicks := int(cfg.Duration / tick)

	// Program the initial compute P-states from the boot budgets. The
	// PBM memo starts empty, so this grant runs the arbitration and the
	// sync fills the tick memo's key.
	firstPhase := cfg.Workload.PhaseAt(0)
	if _, _, err := p.applyPBM(&firstPhase, 0, 0); err != nil {
		return Result{}, err
	}
	p.syncTickMemo()

	// The loop advances in spans: runs of consecutive ticks over which
	// the platform programming, the phase, and the stall charge are all
	// provably constant, so every per-tick quantity is identical and
	// the span integrates in O(1) by closed-form multiplication. Span
	// length is bounded by the next policy-eval epoch, the next phase
	// boundary, and the end of the run; DVFS stall charges fall back to
	// single-tick spans. With the noSpanBatching hook every span is one
	// tick, which reproduces the per-tick walk bit-for-bit (all batch
	// accumulators are exact identities at n=1).
	batch := !cfg.noSpanBatching

	// The per-epoch cancellation poll is a non-blocking receive on done.
	// Unlike ctx.Err(), it takes no lock, and a batch's workers share
	// one context. done is nil for a context that is never cancelled; a
	// receive from nil never proceeds.
	done := ctx.Done()

	for i := 0; i < nTicks; {
		idx := cursor.index()
		ph := cursor.phase()

		// Policy evaluation at interval boundaries. Spans never cross an
		// epoch boundary, so every multiple of evalEvery starts a span.
		if i%evalEvery == 0 {
			// Cancellation is observed here, once per policy epoch: a
			// cancelled run unwinds within one epoch of wall-progress and
			// costs the hot loop nothing between decisions. The cancel
			// cause is surfaced when one was set (context.WithTimeoutCause
			// is how the engine brands per-job deadlines), so callers can
			// tell a job's own timeout from batch-cancellation collateral.
			select {
			case <-done:
				err := ctx.Err()
				if cause := context.Cause(ctx); cause != nil {
					err = cause
				}
				return Result{}, err
			default:
			}
			now := p.clock.Now()
			avg, n := p.counters.WindowAverage()
			if n == 0 {
				avg = p.counters.Current()
			}
			ioMemAvg := power.Watt(0)
			if intervalTicks > 0 {
				ioMemAvg = power.Watt(ioMemPowerInterval / float64(intervalTicks))
			}
			ctx := PolicyContext{
				Now:           now,
				Interval:      cfg.EvalInterval,
				Counters:      avg,
				CSR:           p.ioeng.CSR(),
				Current:       p.current,
				Ladder:        cfg.Ladder,
				Reserve:       p.worst,
				ComputeBudget: p.budget.Compute(),
				ComputePower:  lastComputePower,
				IOMemPower:    ioMemAvg,
				CoreFreq:      p.cores.Frequency(),
				Warmup:        i == 0,
				GfxBusy:       ph.GfxFrac > 0.02 || ph.GfxActivity > 0,
			}
			dec := cfg.Policy.Decide(ctx)
			if err := p.executeDecision(&dec); err != nil {
				return Result{}, err
			}
			stall, err := p.maybeTransition(now, &dec)
			if err != nil {
				return Result{}, err
			}
			pendingStall += stall
			p.setBonus(dec.ComputeBonus)
			if _, _, err := p.applyPBM(ph, dec.CoreFreqReq, dec.GfxFreqReq); err != nil {
				return Result{}, err
			}
			p.counters.ResetWindow()
			ioMemPowerInterval = 0
			intervalTicks = 0
			p.syncTickMemo()
		}

		// Span length: how many ticks from i share this exact evaluation.
		n := 1
		if batch && pendingStall == 0 {
			n = spanTicks(i, nTicks, evalEvery, &cursor, tick)
		}
		fn := float64(n)

		// Charge DVFS stall time against this tick's progress. A span
		// with a pending stall is a single tick (n == 1 above), so the
		// charge lands on exactly the tick that issued the transition.
		stallFrac := 0.0
		if pendingStall > 0 {
			stallFrac = float64(pendingStall) / float64(tick)
			if stallFrac > 1 {
				stallFrac = 1
			}
			pendingStall = 0
		}

		var d spanDelta
		p.integrateSpan(&d, idx, ph, stallFrac, tickSec, fn)

		// Apply the delta. Every increment below is either the
		// pre-multiplied float64 integrateSpan stored or one computed here
		// from the delta's rails and the span's clocks. The explicit
		// float64 conversions round each product before it is added,
		// which the Go spec guarantees no fused multiply-add bypasses, so
		// each product rounds as written on every target.
		work += d.dWork
		activeTime += d.dActive

		// Counters reflect each tick's average activity, constant over
		// the span: latch the same sample n times in one step.
		p.counters.Restore(d.sample)
		p.counters.LatchN(n)
		counterSum = addSampleN(counterSum, d.sample, fn)
		counterTicks += n

		// Power: the per-rail draws are constant over the span, so the
		// meters integrate n ticks in closed form.
		p.meters.AccumulateN(d.rails, tick, n)
		lastComputePower = d.rails[vf.RailVCore] + d.rails[vf.RailVGfx]
		ioMemW := d.rails[vf.RailVSA] + d.rails[vf.RailVDDQ] + d.rails[vf.RailVIO]
		ioMemPowerInterval += float64(float64(ioMemW) * fn)
		intervalTicks += n

		if !d.perfOK {
			res.PerfMet = false
		}
		res.PointResidency[p.currentIdx] += float64(tickSec * fn)
		coreFreqSum += float64(float64(p.cores.Frequency()) * fn)
		gfxFreqSum += float64(float64(p.gfx.Frequency()) * fn)

		p.clock.AdvanceTicks(n)
		cursor.advance(sim.Time(n) * tick)
		i += n
	}

	elapsed := cfg.Duration.Seconds()
	res.Score = work / elapsed
	if activeTime > 0 {
		res.ActiveScore = work / activeTime
	}
	res.AvgPower = p.meters.Total().Average()
	res.Energy = p.meters.Total().Energy()
	if res.Score > 0 {
		res.EDP = float64(res.AvgPower) / (res.Score * res.Score)
	}
	for i := 0; i < vf.NumRails; i++ {
		res.RailAvg[i] = p.meters.Rail(vf.RailID(i)).Average()
	}
	res.Transitions = p.flow.Transitions()
	res.TransitionTime = p.flow.TotalTime()
	res.MaxTransition = p.flow.MaxTime()
	for i := range res.PointResidency {
		res.PointResidency[i] /= elapsed
	}
	res.AvgCoreFreq = vf.Hz(coreFreqSum / float64(nTicks))
	res.AvgGfxFreq = vf.Hz(gfxFreqSum / float64(nTicks))
	if counterTicks > 0 {
		for i := range counterSum {
			counterSum[i] /= float64(counterTicks)
		}
		res.CounterAvg = counterSum
	}
	return res, nil
}

// integrateSpan resolves one span: the tick evaluation (via the
// steady-state memo), the residency split, and the accumulator
// increments, pre-multiplied by the span length. It writes every field
// of *d in place, so the delta is never copied on its way to the
// caller, and records the span's fabric utilization as the load the
// next transition drains.
//
// A stall-free span whose memo slot already holds the span image is
// served from it: the image stores effRate*c0*tickSec and c0*tickSec,
// and Go evaluates effRate*c0*tickSec*fn left to right, so multiplying
// the stored product by fn rounds exactly as computing it afresh. A
// span carrying a stall charge neither reads nor fills the image.
func (p *Platform) integrateSpan(d *spanDelta, idx int, ph *workload.Phase, stallFrac, tickSec, fn float64) {
	ev := p.tickEvalFor(idx, ph)
	p.spans++
	p.fabUtil = ev.fabEp.Utilization
	if stallFrac == 0 && ev.imgOK {
		p.imageSpans++
		*d = ev.img
		d.dWork *= fn
		d.dActive *= fn
		return
	}
	effRate := ev.r * (1 - stallFrac)

	// C-state residency; fixed-demand workloads stretch or shrink
	// their active window to hold work constant (race-to-sleep).
	resid := ph.Residency
	c0 := resid.C0
	perfOK := true
	if p.cfg.Workload.Class == workload.Battery && effRate > 0 {
		c0 = resid.C0 / effRate
		if c0 > 1 {
			c0 = 1
			perfOK = false
		}
	}
	idleScale := 1.0
	if rem := resid.C2 + resid.C6 + resid.C8; rem > 0 {
		idleScale = (1 - c0) / rem
		if idleScale < 0 {
			idleScale = 0
		}
	}
	c2 := resid.C2 * idleScale
	deep := (resid.C6 + resid.C8) * idleScale

	d.sample = p.sampleFor(ev, c0, c2)
	d.dWork = effRate * c0 * tickSec
	d.dActive = c0 * tickSec
	d.perfOK = perfOK
	d.rails = p.tickPower(ph, ev, c0, c2, deep, resid)
	if stallFrac == 0 {
		ev.img = *d
		ev.imgOK = true
	}
	d.dWork *= fn
	d.dActive *= fn
}

// spanDelta is one span's integration outcome: the accumulator
// increments and the counter image the span applies, except what the
// run loop derives from the rails or the span's clocks (the domain
// power sums, residency time, core and graphics frequency sums).
// Increments are stored pre-multiplied (rate × residency × tickSec ×
// n), so a span of n ticks adds one float64 per accumulator; the span
// image in a memo slot holds the same struct at n = 1, unmultiplied.
type spanDelta struct {
	// sample is the counter-file image the span latches n times.
	sample perfcounters.Sample
	// rails is the constant per-rail draw metered over the span.
	rails [vf.NumRails]power.Watt
	// dWork and dActive are the pre-multiplied work and active-time
	// increments.
	dWork, dActive float64
	// perfOK is false when a fixed-demand workload missed its
	// performance demand during the span.
	perfOK bool
}

// spanTicks returns how many consecutive ticks, starting at tick index
// i, the platform evaluation is provably constant for: the span ends at
// the earliest of the next policy-eval epoch (the next multiple of
// evalEvery), the cursor's next phase boundary, and the end of the run.
// The result is always ≥ 1 (i itself is inside the run, inside the
// active phase, and past its own epoch boundary).
func spanTicks(i, nTicks, evalEvery int, c *phaseCursor, tick sim.Time) int {
	n := nTicks - i
	if untilEval := evalEvery - i%evalEvery; untilEval < n {
		n = untilEval
	}
	if untilPhase := int((c.nextBoundary() + tick - 1) / tick); untilPhase < n {
		n = untilPhase
	}
	return n
}

// --- policy execution helpers ---

// bonus budget granted by the active decision, applied on PBM calls.
func (p *Platform) setBonus(b power.Watt) {
	if b < 0 {
		b = 0
	}
	p.bonus = b
}

// executeDecision programs the budget reservations (clamped by the
// TDP-proportional reservation cap).
func (p *Platform) executeDecision(dec *PolicyDecision) error {
	io, mem := dec.IOBudget, dec.MemBudget
	if io <= 0 {
		io = p.worst[0].IO
	}
	if mem <= 0 {
		mem = p.worst[0].Mem
	}
	io, mem = p.clampReservations(io, mem)
	return p.pbm.SetIOMemoryBudget(io, mem)
}

// maybeTransition runs the Fig. 5 flow when the target point differs
// from the current one, honoring the decision's MRC mode; the flow
// drains the fabric load of the last integrated span. The platform
// owns one persistent flow, allocated at assembly and reconfigured per
// decision, so cumulative transition statistics accrue natively on it
// and the hot loop allocates nothing per transition. A transition
// marks the platform reprogrammed.
func (p *Platform) maybeTransition(now sim.Time, dec *PolicyDecision) (sim.Time, error) {
	if dec.Target.Name == "" || dec.Target == p.current {
		return 0, nil
	}
	opts := pmu.DefaultFlowOptions(p.cfg.Ladder[0].DDR)
	opts.OptimizedMRC = dec.OptimizedMRC
	p.flow.Reconfigure(opts)
	stall, err := p.flow.Transition(now, dec.Target, p.fabUtil)
	if err != nil {
		return 0, err
	}
	p.current = dec.Target
	p.currentIdx = p.ladderIndex(p.current)
	p.reprogrammed = true
	return stall, nil
}

// ladderIndex returns the ladder index residency is booked to while
// the platform sits at op: op's own (lowest) index when it is on the
// ladder, otherwise the first point with the same DDR bin, otherwise
// 0. MemScale and CoScale target derived points off the ladder (their
// low DDR bin with the top point's interconnect clock and voltages),
// which the DDR bin books to the ladder point they stand in for.
// Ladders hold two to four points and this runs once per transition,
// so it scans rather than keeping an index.
func (p *Platform) ladderIndex(op vf.OperatingPoint) int {
	if i := slices.Index(p.cfg.Ladder, op); i >= 0 {
		return i
	}
	for i, l := range p.cfg.Ladder {
		if l.DDR == op.DDR {
			return i
		}
	}
	return 0
}

// pbmMemo caches the last applyPBM outcome. PBM.Apply is a pure
// function of the request and the compute budget that programs the
// core/graphics P-states and duty cycle; when the same request meets
// the same budget AND the programmed compute state still equals what
// the last Apply left behind (nothing else touched the clocks), the
// arbitration — including the budget→frequency search — is skipped.
// In steady state this turns every policy epoch's PBM call into a few
// comparisons.
type pbmMemo struct {
	valid  bool
	req    pmu.Request
	budget power.Watt
	// granted frequencies returned to the caller.
	coreF, gfxF vf.Hz
	// compute state Apply (plus fixed-frequency overrides) programmed;
	// a mismatch means someone reprogrammed the clocks and the memo is
	// unsound.
	coreState, gfxState vf.Hz
	duty                float64
}

// applyPBM converts the current budgets into compute P-states for the
// phase, honoring fixed-frequency overrides and policy caps. A call
// that misses the memo and runs the arbitration marks the platform
// reprogrammed.
func (p *Platform) applyPBM(ph *workload.Phase, coreCap, gfxCap vf.Hz) (vf.Hz, vf.Hz, error) {
	req := pmu.Request{
		ActiveCores: ph.ActiveCores,
		GfxShare:    gfxShareFor(ph),
		BonusBudget: p.bonus,
	}
	// Class-level OS requests: battery workloads request the lowest
	// usable P-states (§7.3); during graphics workloads the cores run
	// at the most energy-efficient frequency Pn while the graphics
	// engines take the rest of the budget (§7.2); throughput CPU
	// workloads request maximum.
	if p.cfg.Workload.Class == workload.Battery {
		req.CoreFreq = 1.2 * vf.GHz
		req.GfxFreq = 0.45 * vf.GHz
	} else if req.GfxShare >= 0.75 {
		req.CoreFreq = 1.2 * vf.GHz
	}
	if coreCap > 0 && (req.CoreFreq == 0 || coreCap < req.CoreFreq) {
		req.CoreFreq = coreCap
	}
	if gfxCap > 0 && (req.GfxFreq == 0 || gfxCap < req.GfxFreq) {
		req.GfxFreq = gfxCap
	}
	if m := &p.pbmMemo; !p.cfg.noPBMMemo && m.valid && req == m.req && p.budget.Compute() == m.budget &&
		p.cores.Frequency() == m.coreState && p.gfx.Frequency() == m.gfxState &&
		p.cores.DutyCycle() == m.duty {
		return m.coreF, m.gfxF, nil
	}
	p.reprogrammed = true
	coreF, gfxF, err := p.pbm.Apply(req)
	if err != nil {
		return 0, 0, err
	}
	// Fixed-frequency overrides pin the clocks exactly: the §3
	// motivation experiments and the §6 scalability probes bypass
	// budget arbitration by design.
	if p.cfg.FixedCoreFreq > 0 {
		if err := p.cores.SetPState(p.cfg.FixedCoreFreq); err != nil {
			return 0, 0, err
		}
		coreF = p.cores.Frequency()
	}
	if p.cfg.FixedGfxFreq > 0 {
		if err := p.gfx.SetPState(p.cfg.FixedGfxFreq); err != nil {
			return 0, 0, err
		}
		gfxF = p.gfx.Frequency()
	}
	p.pbmMemo = pbmMemo{
		valid: true, req: req, budget: p.budget.Compute(),
		coreF: coreF, gfxF: gfxF,
		coreState: p.cores.Frequency(), gfxState: p.gfx.Frequency(),
		duty: p.cores.DutyCycle(),
	}
	return coreF, gfxF, nil
}

// gfxShareFor is the PBM's compute-budget split: graphics workloads
// hand 80-90% of the compute budget to the graphics engines (§7.2).
func gfxShareFor(ph *workload.Phase) float64 {
	switch {
	case ph.GfxFrac > 0.25:
		return 0.75
	case ph.GfxFrac > 0.03 || ph.GfxActivity > 0.05:
		return 0.35
	default:
		return 0
	}
}

// --- per-tick evaluation ---

// tickProg captures every piece of programmable platform state that
// feeds evalTick, sampleFor and tickPower. Between policy decisions
// nothing in it changes, so a phase's memo slot — the fixpoint
// evaluation and the span image derived from it — is identical on
// every span; that is what makes the steady-state tick memo sound.
// The struct is comparable; equality of two snapshots means a slot is
// a pure function of the phase index alone. The key may be finer than
// the slot's true inputs (that only costs re-evaluations), never
// coarser.
type tickProg struct {
	// point determines the MC/fabric/DRAM clocks and their voltages;
	// the transition flow leaves the DRAM out of self-refresh.
	point vf.OperatingPoint
	// timing is the live DRAM register image: an optimized image and a
	// detuned boot image at the same point evaluate differently
	// (Observation 4), so the image itself is part of the key.
	timing dram.Timing
	// coreF, duty and gfxF are the compute programming. The fixpoint
	// slows against the effective core frequency (coreF × duty), but
	// the power model reads the P-state and the duty cycle separately,
	// so two programmings with equal effective frequency differ here.
	// The core and graphics voltages follow from their frequencies.
	coreF vf.Hz
	duty  float64
	gfxF  vf.Hz
	// vsa and vio are the live V_SA and V_IO rail voltages the IO
	// engine and DDRIO power models read.
	vsa, vio vf.Volt
}

// programming snapshots the current tick-evaluation inputs.
func (p *Platform) programming() tickProg {
	return tickProg{
		point:  p.current,
		timing: p.dev.Timing(),
		coreF:  p.cores.Frequency(),
		duty:   p.cores.DutyCycle(),
		gfxF:   p.gfx.Frequency(),
		vsa:    p.rails.Voltage(vf.RailVSA),
		vio:    p.rails.Voltage(vf.RailVIO),
	}
}

// syncTickMemo refreshes the tick memo when the platform was
// reprogrammed since the last refresh. Only a transition or a PBM
// grant that missed its memo can move the programming the memo keys
// on, so a policy epoch that did neither skips the snapshot and its
// comparison.
func (p *Platform) syncTickMemo() {
	if p.reprogrammed {
		p.refreshTickMemo()
	}
}

// refreshTickMemo re-snapshots the programming state after the
// decision path reprogrammed the platform (a transition, or a PBM
// grant that missed its memo), and invalidates the per-phase memo if
// anything actually changed. Reprogramming identical values keeps the
// memo warm — the steady state — so between decisions, and across
// decisions that do not move the platform, each phase's fixpoint is
// resolved exactly once.
func (p *Platform) refreshTickMemo() {
	p.reprogrammed = false
	prog := p.programming()
	if prog == p.tickProg {
		return
	}
	p.tickProg = prog
	for i := range p.tickMemo {
		p.tickMemo[i].valid = false
	}
}

// tickEvalFor returns the tick evaluation for phase idx: the phase's
// memo slot, evaluated first unless it is valid. Evaluation writes
// only the slot, so serving a valid one leaves the platform exactly as
// evaluating it afresh would. The result points into the slot (with
// the memo off the slot is scratch, refilled on every call), so a
// caller must not hold it across another tickEvalFor.
func (p *Platform) tickEvalFor(idx int, ph *workload.Phase) *tickEval {
	ev := &p.tickMemo[idx]
	if ev.valid {
		return ev
	}
	p.evalCalls++
	p.evalTick(ev, ph, p.refLatOf(ph))
	ev.valid = !p.cfg.noTickMemo
	return ev
}

// refLatOf returns ph's reference loaded latency: the latency of the
// phase's unloaded-point demand under the boot-point terms program
// stored.
func (p *Platform) refLatOf(ph *workload.Phase) float64 {
	return p.refT.Latency(p.ioeng.StaticBandwidth() + ph.MemBW)
}

// evalTick resolves the tick's progress-rate fixpoint and component
// epochs for the active (C0) scenario, plus the C2 (static-only)
// utilizations used for idle-state power, into *ev. It reads the
// platform's programming and writes nothing but *ev.
//
// Only the progress rate r changes across the fixpoint's iterations:
// the controller's operating-point terms, the bandwidth headroom and
// the phase's residual CPI share are resolved once, before the loop.
// An iteration reads nothing of the memory controller but its loaded
// latency, which it takes from the same helper Evaluate uses, and
// nothing of the fabric at all. The full controller and fabric epochs
// are resolved once, after the loop, on the demands its last iteration
// used.
func (p *Platform) evalTick(ev *tickEval, ph *workload.Phase, refLat float64) {
	ev.imgOK = false
	static := p.ioeng.StaticBandwidth()
	mcT := p.mc.Terms()
	fabT := p.fabric.Terms()

	// C2 scenario: only static isochronous traffic flows.
	c2Mem := p.mc.Resolve(&mcT, static)
	c2Fab := p.fabric.Resolve(&fabT, static)
	ev.c2Util, ev.c2IO, ev.c2BW = c2Mem.Utilization, c2Fab.Utilization, c2Mem.AchievedBytes

	coreEff := float64(p.cores.EffectiveFrequency())
	gfxF := float64(p.gfx.Frequency())
	coreSlow := float64(workload.RefCoreFreq) / max(coreEff, 1)
	gfxSlow := float64(workload.RefGfxFreq) / max(gfxF, 1)

	avail := float64(p.mc.UsableBandwidth()) - static
	if avail < 1e6 {
		avail = 1e6
	}
	availIO := float64(p.fabric.Capacity()) - static
	if availIO < 1e6 {
		availIO = 1e6
	}
	other := ph.OtherFrac()

	r := 1.0
	var memDemand, ioDemand float64
	for it := 0; it < 16; it++ {
		memDemand = static + r*ph.MemBW
		ioDemand = static + r*ph.IOBW
		lat := mcT.Latency(memDemand)

		bwSlow := 1.0
		if ph.MemBW > 0 {
			served := min(r*ph.MemBW, avail)
			if served < 1e6 {
				served = 1e6
			}
			bwSlow = (r * ph.MemBW) / served
			if bwSlow < 1 {
				bwSlow = 1
			}
		}
		latSlow := 1.0
		if refLat > 0 && !math.IsInf(lat, 1) {
			latSlow = lat / refLat
		}
		ioSlow := 1.0
		if ph.IOBW > 0 {
			served := min(r*ph.IOBW, availIO)
			if served < 1e6 {
				served = 1e6
			}
			ioSlow = (r * ph.IOBW) / served
			if ioSlow < 1 {
				ioSlow = 1
			}
		}

		t := ph.CoreFrac*coreSlow + ph.GfxFrac*gfxSlow +
			ph.MemLatFrac*latSlow + ph.MemBWFrac*bwSlow +
			ph.IOFrac*ioSlow + other
		if t < 1e-9 {
			t = 1e-9
		}
		rNew := 1 / t
		r = 0.5*r + 0.5*rNew
	}
	ev.r = r
	ev.mcEp = p.mc.Resolve(&mcT, memDemand)
	ev.fabEp = p.fabric.Resolve(&fabT, ioDemand)
	mcLat := ev.mcEp.Latency

	// LLC epoch for counters: split workload traffic between core and
	// graphics agents by their compute-boundedness ratio.
	gfxTraffic := 0.0
	if d := ph.GfxFrac + ph.CoreFrac; d > 0 {
		gfxTraffic = ph.GfxFrac / d
	}
	wlBytes := r * ph.MemBW
	// Fraction of wall-clock time the agents spend stalled on memory
	// latency at the achieved progress rate: the latency-bound share of
	// the CPI stack scaled by the loaded-vs-reference latency ratio.
	finalLatSlow := 1.0
	if refLat > 0 && !math.IsInf(mcLat, 1) {
		finalLatSlow = mcLat / refLat
	}
	stallFrac := ph.MemLatFrac * finalLatSlow * r
	ev.llcEp = p.llc.Evaluate(cache.Traffic{
		CoreMissBytes: wlBytes * (1 - gfxTraffic),
		GfxMissBytes:  wlBytes * gfxTraffic,
		CoreHitBytes:  wlBytes * 2.5, // typical LLC hit:miss byte ratio
		LatStallFrac:  stallFrac,
	}, mcLat)
}

// sampleFor computes the tick's counter-file image, weighting
// active-only events by residency (the counters are free-running; idle
// time simply contributes no events). The image covers the whole file,
// so restoring it into the counter file is equivalent to the
// historical per-counter writes.
func (p *Platform) sampleFor(ev *tickEval, c0, c2 float64) perfcounters.Sample {
	var s perfcounters.Sample
	s[perfcounters.GfxLLCMisses] = ev.llcEp.GfxMisses * c0
	s[perfcounters.LLCOccupancyTracer] = ev.llcEp.OccupancyTracer * c0
	s[perfcounters.LLCStalls] = ev.llcEp.Stalls * c0
	s[perfcounters.IORPQ] = ev.fabEp.RPQOccupancy * c0
	s[perfcounters.CoreCycles] = float64(p.cores.EffectiveFrequency()) * c0
	s[perfcounters.MemReadBytes] = ev.mcEp.AchievedBytes*c0*0.7 + ev.c2BW*c2*0.7
	s[perfcounters.MemWriteBytes] = ev.mcEp.AchievedBytes*c0*0.3 + ev.c2BW*c2*0.3
	return s
}

// tickPower computes the tick's per-rail power.
func (p *Platform) tickPower(ph *workload.Phase, ev *tickEval, c0, c2, deep float64, orig compute.Residency) [vf.NumRails]power.Watt {
	var rails [vf.NumRails]power.Watt

	// Split the deep fraction between C6 and C8 in their original
	// proportions.
	c6, c8 := 0.0, 0.0
	if d := orig.C6 + orig.C8; d > 0 {
		c6 = deep * orig.C6 / d
		c8 = deep * orig.C8 / d
	}

	// Compute domain.
	coreActive := p.cores.ActivePower(ph.ActiveCores, ph.CoreActivity)
	llcW := p.llc.Power(p.cores.Voltage(), p.cores.Frequency(), ev.mcEp.AchievedBytes*3.5)
	coreW := power.Watt(c0)*(coreActive+llcW) +
		power.Watt(c2)*p.cores.IdlePower(compute.C2) +
		power.Watt(c6)*p.cores.IdlePower(compute.C6) +
		power.Watt(c8)*p.cores.IdlePower(compute.C8)
	rails[vf.RailVCore] = coreW

	var gfxW power.Watt
	if ph.GfxActivity > 0 {
		gfxW = power.Watt(c0) * p.gfx.ActivePower(ph.GfxActivity)
	} else {
		gfxW = power.Watt(c0) * gfxGatedPower
	}
	gfxW += power.Watt(c2+c6)*gfxGatedPower + power.Watt(c8)*gfxOffPower
	rails[vf.RailVGfx] = gfxW

	// IO + memory domains: active and C2 run with their respective
	// utilizations; deep states are gated to residuals.
	mcW := power.Watt(c0)*p.mc.Power(ev.mcEp.Utilization) + power.Watt(c2)*p.mc.Power(ev.c2Util)
	fabW := power.Watt(c0)*p.fabric.Power(ev.fabEp.Utilization) + power.Watt(c2)*p.fabric.Power(ev.c2IO)
	engW := power.Watt(c0+c2) * p.ioeng.Power(p.rails.Voltage(vf.RailVSA), p.fabric.Frequency())
	saGated := power.Watt(c6+c8) * saResidualPower
	uncore := power.Watt(c0+c2)*uncorePower + power.Watt(c6+c8)*uncoreIdlePower
	rails[vf.RailVSA] = mcW + fabW + engW + saGated + uncore

	dramActiveW := p.dramPow.Draw(p.dev, ev.mcEp.AchievedBytes, ev.mcEp.Utilization)
	dramC2W := p.dramPow.Draw(p.dev, ev.c2BW, ev.c2Util)
	rails[vf.RailVDDQ] = power.Watt(c0)*dramActiveW + power.Watt(c2)*dramC2W +
		power.Watt(c6+c8)*p.dramPow.SelfRefresh

	vio := p.rails.Voltage(vf.RailVIO)
	rails[vf.RailVIO] = power.Watt(c0)*p.ddrio.Power(vio, p.dev.Frequency(), ev.mcEp.Utilization) +
		power.Watt(c2)*p.ddrio.Power(vio, p.dev.Frequency(), ev.c2Util) +
		power.Watt(c6+c8)*ddrioOffPower
	return rails
}

// Idle/gated residual draws.
const (
	gfxGatedPower   power.Watt = 0.012
	gfxOffPower     power.Watt = 0.002
	saResidualPower power.Watt = 0.010
	uncoreIdlePower power.Watt = 0.005
	ddrioOffPower   power.Watt = 0.004
)

// addSampleN accumulates n copies of b into a in closed form. n == 1
// is an exact identity with per-tick addition (x*1.0 == x in IEEE
// arithmetic), which keeps the span-off path bit-identical to the
// historical per-tick walk.
func addSampleN(a, b perfcounters.Sample, n float64) perfcounters.Sample {
	for i := range a {
		a[i] += b[i] * n
	}
	return a
}

package soc

import (
	"math"
	"testing"

	"sysscale/internal/cache"
	"sysscale/internal/dram"
	"sysscale/internal/interconnect"
	"sysscale/internal/memctrl"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// evalTickReference is the tick fixpoint as first written: every one
// of its 16 iterations evaluates the memory controller and the fabric
// in full, and recomputes the bandwidth headroom and the residual CPI
// share. evalTick hoists all of that out of the loop;
// TestEvalTickMatchesReference holds it to this oracle exactly.
func (p *Platform) evalTickReference(ph workload.Phase, refLat float64) tickEval {
	static := p.ioeng.CSR().StaticBandwidth()

	// C2 scenario: only static isochronous traffic flows.
	c2Mem := p.mc.Evaluate(static)
	c2Fab := p.fabric.Evaluate(static)
	ev := tickEval{c2Util: c2Mem.Utilization, c2IO: c2Fab.Utilization, c2BW: c2Mem.AchievedBytes}

	coreEff := float64(p.cores.EffectiveFrequency())
	gfxF := float64(p.gfx.Frequency())
	coreSlow := float64(workload.RefCoreFreq) / math.Max(coreEff, 1)
	gfxSlow := float64(workload.RefGfxFreq) / math.Max(gfxF, 1)

	r := 1.0
	var mcEp memctrl.Epoch
	var fabEp interconnect.Epoch
	for it := 0; it < 16; it++ {
		memDemand := static + r*ph.MemBW
		mcEp = p.mc.Evaluate(memDemand)
		fabEp = p.fabric.Evaluate(static + r*ph.IOBW)

		usable := p.mc.UsableBandwidth()
		avail := usable - static
		if avail < 1e6 {
			avail = 1e6
		}
		bwSlow := 1.0
		if ph.MemBW > 0 {
			served := math.Min(r*ph.MemBW, avail)
			if served < 1e6 {
				served = 1e6
			}
			bwSlow = (r * ph.MemBW) / served
			if bwSlow < 1 {
				bwSlow = 1
			}
		}
		latSlow := 1.0
		if refLat > 0 && !math.IsInf(mcEp.Latency, 1) {
			latSlow = mcEp.Latency / refLat
		}
		ioSlow := 1.0
		if ph.IOBW > 0 {
			availIO := p.fabric.Capacity() - static
			if availIO < 1e6 {
				availIO = 1e6
			}
			served := math.Min(r*ph.IOBW, availIO)
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
			ph.IOFrac*ioSlow + ph.OtherFrac()
		if t < 1e-9 {
			t = 1e-9
		}
		rNew := 1 / t
		r = 0.5*r + 0.5*rNew
	}
	ev.r = r
	ev.mcEp = mcEp
	ev.fabEp = fabEp

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
	if refLat > 0 && !math.IsInf(mcEp.Latency, 1) {
		finalLatSlow = mcEp.Latency / refLat
	}
	stallFrac := ph.MemLatFrac * finalLatSlow * r
	ev.llcEp = p.llc.Evaluate(cache.Traffic{
		CoreMissBytes: wlBytes * (1 - gfxTraffic),
		GfxMissBytes:  wlBytes * gfxTraffic,
		CoreHitBytes:  wlBytes * 2.5, // typical LLC hit:miss byte ratio
		LatStallFrac:  stallFrac,
	}, mcEp.Latency)
	return ev
}

// TestEvalTickMatchesReference compares evalTick with the reference
// fixpoint for every phase of every built-in workload, at every ladder
// point, on LPDDR3 and DDR4, with the optimized and the detuned MRC
// image loaded, and with memory traffic blocked. The tick evaluation
// and the rolling epochs it leaves on the controller, the fabric and
// the LLC must be equal, not merely close.
func TestEvalTickMatchesReference(t *testing.T) {
	platforms := []struct {
		kind   dram.Kind
		ladder []vf.OperatingPoint
	}{
		{dram.LPDDR3, vf.LadderLPDDR3()},
		{dram.DDR4, []vf.OperatingPoint{vf.DDR4HighPoint(), vf.DDR4LowPoint()}},
	}
	checked := 0
	for _, pl := range platforms {
		for _, name := range workload.BuiltinNames() {
			w, err := workload.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workload = w
			cfg.DRAMKind = pl.kind
			cfg.Ladder = pl.ladder
			cfg.Policy = highPin()
			p, err := newPlatform(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.refreshTickMemo()
			for li, op := range pl.ladder {
				for _, optimized := range []bool{true, false} {
					// A transition loads the MRC image, so reach each
					// point from a different one.
					if p.current == op {
						other := pl.ladder[(li+1)%len(pl.ladder)]
						if _, err := p.maybeTransition(0, &PolicyDecision{Target: other, OptimizedMRC: true}); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := p.maybeTransition(0, &PolicyDecision{Target: op, OptimizedMRC: optimized}); err != nil {
						t.Fatal(err)
					}
					for idx := range w.Phases {
						ph := &w.Phases[idx]
						if _, _, err := p.applyPBM(ph, 0, 0); err != nil {
							t.Fatal(err)
						}
						label := name + "/" + pl.kind.String() + "/" + op.Name
						if !optimized {
							label += "/detuned"
						}
						checkEvalTick(t, p, idx, ph, label)
						p.mc.Block()
						p.fabric.BlockAndDrain()
						checkEvalTick(t, p, idx, ph, label+"/blocked")
						p.mc.Release()
						p.fabric.Release()
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no phase checked")
	}
}

// checkEvalTick evaluates phase idx with the reference fixpoint and
// with evalTick and fails on any difference in the result or in the
// components' rolling epochs.
func checkEvalTick(t *testing.T, p *Platform, idx int, ph *workload.Phase, label string) {
	t.Helper()
	refLat := p.refLatOf(ph)
	want := p.evalTickReference(*ph, refLat)
	wantMC, wantFab, wantLLC := p.mc.LastEpoch(), p.fabric.LastEpoch(), p.llc.LastEpoch()

	// Scramble the rolling epochs, so evalTick must set each itself.
	p.mc.RestoreEpoch(memctrl.Epoch{Latency: -1})
	p.fabric.RestoreEpoch(interconnect.Epoch{Latency: -1})
	p.llc.RestoreEpoch(cache.Epoch{Stalls: -1})
	var got tickEval
	p.evalTick(&got, ph, refLat)

	if got != want {
		t.Fatalf("%s phase %d: evalTick\n got %+v\nwant %+v", label, idx, got, want)
	}
	if ep := p.mc.LastEpoch(); ep != wantMC {
		t.Fatalf("%s phase %d: controller epoch\n got %+v\nwant %+v", label, idx, ep, wantMC)
	}
	if ep := p.fabric.LastEpoch(); ep != wantFab {
		t.Fatalf("%s phase %d: fabric epoch\n got %+v\nwant %+v", label, idx, ep, wantFab)
	}
	if ep := p.llc.LastEpoch(); ep != wantLLC {
		t.Fatalf("%s phase %d: LLC epoch\n got %+v\nwant %+v", label, idx, ep, wantLLC)
	}
	if math.IsNaN(got.r) {
		t.Fatalf("%s phase %d: NaN progress rate", label, idx)
	}
}

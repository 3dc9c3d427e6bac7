package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if tab.Baseline.DDR != 1.6e9 || tab.MDDVFS.DDR != 1.06e9 {
		t.Fatal("Table 1 DRAM frequencies wrong")
	}
	if math.Abs(tab.VSARatio()-0.80) > 0.01 {
		t.Fatalf("V_SA ratio %.3f, paper 0.80", tab.VSARatio())
	}
	if math.Abs(tab.VIORatio()-0.85) > 0.01 {
		t.Fatalf("V_IO ratio %.3f, paper 0.85", tab.VIORatio())
	}
	if !strings.Contains(tab.String(), "1.06GHz") {
		t.Fatal("rendering broken")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tab := Table2()
	if tab.CoreBase != 1.2e9 || tab.GfxBase != 0.3e9 {
		t.Fatal("base frequencies wrong (Table 2)")
	}
	if tab.LLCBytes != 4<<20 || tab.TDP != 4.5 {
		t.Fatal("LLC/TDP wrong (Table 2)")
	}
	if tab.Cores != 2 || tab.Threads != 4 {
		t.Fatal("core/thread counts wrong (Table 2)")
	}
	if tab.Geometry.Channels != 2 || tab.Geometry.CapacityGB != 8 || tab.Geometry.ECC {
		t.Fatal("memory configuration wrong (Table 2)")
	}
}

func TestFig2aShape(t *testing.T) {
	r, err := Fig2a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("Fig 2a needs the three motivation benchmarks")
	}
	for _, row := range r.Rows {
		// Average power drops ~10-11% under MD-DVFS for all three.
		if row.PowerDelta > -0.07 || row.PowerDelta < -0.16 {
			t.Errorf("%s: power delta %.3f outside the paper's band", row.Name, row.PowerDelta)
		}
	}
	perl, cactus, lbm := r.Rows[0], r.Rows[1], r.Rows[2]
	// perlbench barely slows; cactusADM and lbm lose real performance.
	if perl.PerfDelta < -0.03 {
		t.Errorf("perlbench lost %.1f%%, want small", -100*perl.PerfDelta)
	}
	if cactus.PerfDelta > -0.04 || lbm.PerfDelta > -0.03 {
		t.Errorf("memory-bound penalties too small: cactus %.3f lbm %.3f", cactus.PerfDelta, lbm.PerfDelta)
	}
	// Redistribution at 1.3GHz helps perlbench, not the memory-bound two.
	if perl.PerfAt13GHz < 0.03 {
		t.Errorf("perlbench @1.3GHz gain %.3f, want positive", perl.PerfAt13GHz)
	}
	if cactus.PerfAt13GHz > perl.PerfAt13GHz || lbm.PerfAt13GHz > perl.PerfAt13GHz {
		t.Error("memory-bound workloads should benefit least from the core boost")
	}
}

func TestFig2bFractions(t *testing.T) {
	r, err := Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		sum := row.MemLatency + row.MemBW + row.NonMemory
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: fractions sum to %v", row.Name, sum)
		}
	}
	// cactusADM latency-dominant, lbm bandwidth-dominant (Fig. 2b).
	if r.Rows[1].MemLatency <= r.Rows[1].MemBW {
		t.Error("cactusADM must be latency dominant")
	}
	if r.Rows[2].MemBW <= r.Rows[2].MemLatency {
		t.Error("lbm must be bandwidth dominant")
	}
}

func TestFig2cSeries(t *testing.T) {
	r, err := Fig2c()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 || len(r.Series[0]) == 0 {
		t.Fatal("series missing")
	}
}

func TestFig3(t *testing.T) {
	a, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Names) != 4 {
		t.Fatal("Fig 3a needs four workloads")
	}
	b := Fig3b()
	var hdFrac, fourKFrac float64
	for _, row := range b.Rows {
		if row.Engine == "display" && strings.Contains(row.Config, "1x HD") {
			hdFrac = row.PeakFrac
		}
		if row.Engine == "display" && strings.Contains(row.Config, "1x 4K") {
			fourKFrac = row.PeakFrac
		}
	}
	// Fig. 3(b) anchors: HD ~17%, 4K ~70% of peak.
	if math.Abs(hdFrac-0.17) > 0.01 {
		t.Errorf("HD fraction %.3f, paper 0.17", hdFrac)
	}
	if math.Abs(fourKFrac-0.70) > 0.01 {
		t.Errorf("4K fraction %.3f, paper 0.70", fourKFrac)
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: +22% power, -10% performance from unoptimized MRC. The
	// memory-rail power increase is the comparable rail-level number.
	if r.MemPowerIncrease < 0.12 || r.MemPowerIncrease > 0.35 {
		t.Errorf("memory-rail power increase %.3f outside the band", r.MemPowerIncrease)
	}
	if r.PerfDegradation < 0.05 || r.PerfDegradation > 0.15 {
		t.Errorf("perf degradation %.3f, paper ~0.10", r.PerfDegradation)
	}
	if r.PowerIncrease <= 0 {
		t.Error("package power must increase with detuned registers")
	}
}

func TestFig5Budget(t *testing.T) {
	r, err := Fig5Latency()
	if err != nil {
		t.Fatal(err)
	}
	if r.DownLatency >= r.Bound || r.UpLatency >= r.Bound {
		t.Fatalf("transition latencies %v/%v exceed the 10us budget", r.DownLatency, r.UpLatency)
	}
	if len(r.StepsDown) < 6 {
		t.Fatal("flow steps missing from the log")
	}
}

func TestFig6Reduced(t *testing.T) {
	opt := DefaultFig6Options()
	opt.PerPanel = 30
	opt.Duration = 300 * sim.Millisecond
	r, err := Fig6(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 9 {
		t.Fatalf("panels = %d, want 9", len(r.Panels))
	}
	for _, p := range r.Panels {
		if p.FalsePos != 0 {
			t.Errorf("%s/%v: %d false positives (paper: zero)", p.Pair, p.Class, p.FalsePos)
		}
		if p.Correlation < 0.6 {
			t.Errorf("%s/%v: correlation %.2f too low", p.Pair, p.Class, p.Correlation)
		}
		if p.Accuracy < 0.4 {
			t.Errorf("%s/%v: accuracy %.2f too low", p.Pair, p.Class, p.Accuracy)
		}
	}
	// The 1.6->0.8 pair degrades more than 1.6->1.06 (§7.4: 2-3x).
	var d08, d106 float64
	for _, p := range r.Panels {
		if p.Class.String() != "cpu-st" {
			continue
		}
		switch p.Pair {
		case "1.6GHz->0.8GHz":
			d08 = 1 - p.MeanActual
		case "1.6GHz->1.06GHz":
			d106 = 1 - p.MeanActual
		}
	}
	if d08 <= d106 {
		t.Errorf("0.8GHz degradation (%.3f) not above 1.06GHz (%.3f)", d08, d106)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 29 {
		t.Fatalf("rows = %d, want 29 benchmarks", len(r.Rows))
	}
	// Paper ordering: SysScale >> CoScale-R > MemScale-R.
	if !(r.AvgSysScale > r.AvgCoScaleR && r.AvgCoScaleR > r.AvgMemScaleR) {
		t.Fatalf("ordering broken: sys %.3f co %.3f mem %.3f",
			r.AvgSysScale, r.AvgCoScaleR, r.AvgMemScaleR)
	}
	// Magnitudes near the paper's 9.2 / 3.8 / 1.7.
	if r.AvgSysScale < 0.05 || r.AvgSysScale > 0.13 {
		t.Errorf("SysScale avg %.3f outside band (paper 0.092)", r.AvgSysScale)
	}
	if r.AvgMemScaleR < 0.005 || r.AvgMemScaleR > 0.03 {
		t.Errorf("MemScale-R avg %.3f outside band (paper 0.017)", r.AvgMemScaleR)
	}
	if r.AvgCoScaleR < 0.015 || r.AvgCoScaleR > 0.06 {
		t.Errorf("CoScale-R avg %.3f outside band (paper 0.038)", r.AvgCoScaleR)
	}
	if r.MaxSysScale < 0.13 || r.MaxSysScale > 0.22 {
		t.Errorf("max %.3f outside band (paper 0.16)", r.MaxSysScale)
	}
	byName := map[string]Fig7Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	// Named behaviours: scalable workloads gain most, memory-bound ~0.
	if byName["416.gamess"].SysScale < 0.12 {
		t.Error("gamess gain too small")
	}
	for _, n := range []string{"410.bwaves", "433.milc", "470.lbm"} {
		if g := byName[n].SysScale; math.Abs(g) > 0.01 {
			t.Errorf("%s gain %.3f, paper ~0", n, g)
		}
	}
	if byName["473.astar"].SysScale < 0.04 {
		t.Error("astar's phased gain missing")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("three 3DMark workloads expected")
	}
	for _, row := range r.Rows {
		if row.SysScale < 0.04 || row.SysScale > 0.14 {
			t.Errorf("%s: SysScale %.3f outside band (paper 6.7-8.9%%)", row.Name, row.SysScale)
		}
		if row.SysScale < 3*row.MemScaleR {
			t.Errorf("%s: SysScale not well above the prior work (paper ~5x)", row.Name)
		}
		if row.MemScaleR != row.CoScaleR {
			t.Errorf("%s: CoScale must equal MemScale on graphics (§7.2)", row.Name)
		}
	}
	// Paper ordering: 3DMark06 > Vantage > 3DMark11.
	if !(r.Rows[0].SysScale > r.Rows[2].SysScale && r.Rows[2].SysScale > r.Rows[1].SysScale) {
		t.Errorf("3DMark ordering broken: %.3f / %.3f / %.3f",
			r.Rows[0].SysScale, r.Rows[1].SysScale, r.Rows[2].SysScale)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatal("four battery workloads expected")
	}
	byName := map[string]Fig9Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if !row.PerfMet {
			t.Errorf("%s: fixed demand not met", row.Name)
		}
		if row.SysScale < 0.05 || row.SysScale > 0.13 {
			t.Errorf("%s: saving %.3f outside the 6.4-10.7%% band", row.Name, row.SysScale)
		}
		if row.MemScaleR >= row.SysScale {
			t.Errorf("%s: prior work not below SysScale", row.Name)
		}
	}
	// Paper ordering: playback and gaming save most, web least.
	if byName["web-browsing"].SysScale >= byName["video-playback"].SysScale {
		t.Error("web browsing should save least (paper 6.4% vs 10.7%)")
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatal("four TDPs expected")
	}
	// Benefit decreases monotonically with TDP (Fig. 10).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Summary.Mean >= r.Rows[i-1].Summary.Mean {
			t.Errorf("mean gain not decreasing: %.1f at %.1fW vs %.1f at %.1fW",
				r.Rows[i].Summary.Mean, float64(r.Rows[i].TDP),
				r.Rows[i-1].Summary.Mean, float64(r.Rows[i-1].TDP))
		}
	}
	// 3.5W roughly doubles the 4.5W average and has the biggest max.
	if r.Rows[0].Summary.Mean < 1.3*r.Rows[1].Summary.Mean {
		t.Errorf("3.5W mean %.1f not well above 4.5W mean %.1f",
			r.Rows[0].Summary.Mean, r.Rows[1].Summary.Mean)
	}
	if r.Rows[0].Summary.Max < 20 {
		t.Errorf("3.5W max %.1f%%, paper up to 33%%", r.Rows[0].Summary.Max)
	}
}

func TestDRAMSensitivityShape(t *testing.T) {
	r, err := DRAMSensitivity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// §7.4: DDR4 1.86->1.33 frees less than LPDDR3 1.6->1.06 (~7%).
	if r.DDR4Freed >= r.LPDDR3Freed {
		t.Fatal("DDR4 freed budget not below LPDDR3")
	}
	rel := 1 - r.DDR4Freed/r.LPDDR3Freed
	if rel < 0.02 || rel > 0.2 {
		t.Errorf("DDR4 deficit %.2f outside band (paper ~0.07)", rel)
	}
	// §7.4: V_SA already at Vmin at 1.06GHz.
	if r.VSAAt08 != r.VSAAt106 {
		t.Fatal("V_SA must be identical at 1.06 and 0.8GHz (Vmin floor)")
	}
	// §7.4: 0.8GHz degrades 2-3x more than 1.06GHz.
	ratio := r.Degrade08 / r.Degrade106
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("0.8GHz penalty ratio %.2f outside the 2-3x band", ratio)
	}
}

func TestImplementationCost(t *testing.T) {
	r, err := ImplementationCost()
	if err != nil {
		t.Fatal(err)
	}
	if r.MRCSRAMBytes > r.SRAMBudget {
		t.Fatal("MRC images exceed the 0.5KB SRAM budget (§5)")
	}
	if r.FirmwareBytes > 700 {
		t.Fatal("firmware exceeds ~0.6KB (§5)")
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]AblationRow{}
	for _, row := range r.Rows {
		rows[row.Name] = row
	}
	full := rows["full"]
	if full.AvgGain <= 0 || full.AvgBatterySaving <= 0 {
		t.Fatal("full SysScale shows no benefit")
	}
	// Observation 4 inside the policy: without MRC reloads both the
	// performance gain and (especially) the battery saving collapse.
	if rows["no-mrc-reload"].AvgGain >= full.AvgGain {
		t.Error("MRC ablation did not cost performance")
	}
	if rows["no-mrc-reload"].AvgBatterySaving >= full.AvgBatterySaving-0.03 {
		t.Error("MRC ablation did not cost battery savings")
	}
	// Without redistribution the perf gain disappears (power-saving
	// only), while battery savings persist.
	if rows["no-redistribution"].AvgGain >= 0.02 {
		t.Error("redistribution ablation still gains performance")
	}
	if rows["no-redistribution"].AvgBatterySaving < full.AvgBatterySaving-0.01 {
		t.Error("redistribution ablation should not hurt battery savings")
	}
	// Stricter thresholds forfeit most of the gain.
	if rows["threshold-half"].AvgGain >= 0.6*full.AvgGain {
		t.Error("halved thresholds should forfeit most of the gain")
	}
}

func TestCalibrateReproducesZeroFP(t *testing.T) {
	r, err := Calibrate(context.Background(), 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.FalsePos != 0 {
		t.Fatalf("calibration left %d false positives", r.FalsePos)
	}
	if r.Accuracy < 0.6 {
		t.Fatalf("calibration accuracy %.2f too low", r.Accuracy)
	}
	if r.Runs < 50 {
		t.Fatalf("too few usable runs: %d", r.Runs)
	}
}

func TestMultiPointShape(t *testing.T) {
	r, err := MultiPoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxStep != 1 {
		t.Fatalf("ladder step %d; §4.3 requires adjacent-point moves only", r.MaxStep)
	}
	rows := map[string]MultiPointRow{}
	for _, row := range r.Rows {
		rows[row.Name] = row
	}
	// lbm must stay pinned high on either ladder.
	if lbm := rows["470.lbm"]; lbm.Residency[0] < 0.95 || lbm.ThreePointGain > 0.01 {
		t.Errorf("lbm not pinned high on the 3-point ladder: %+v", lbm)
	}
	// A light workload descends below the middle point.
	if g := rows["416.gamess"]; g.Residency[2] < 0.5 {
		t.Errorf("gamess did not reach the lowest point: %+v", g.Residency)
	}
	// §7.4's rationale for shipping two points: the 0.8GHz bin hurts
	// mid-memory workloads relative to the two-point ladder.
	if gcc := rows["403.gcc"]; gcc.ThreePointGain >= gcc.TwoPointGain {
		t.Errorf("gcc should lose on the 3-point ladder: %+v", gcc)
	}
}

// TestStepWatcherHasNoKey: the watcher's Decide side effect must never
// be skipped by a cache hit, and it is not, because it is not
// registered: a watched config, bare or under a registered wrapper,
// has no canonical bytes and hence no cache key.
func TestStepWatcherHasNoKey(t *testing.T) {
	cfg := soc.DefaultConfig()
	w, err := workload.SPEC("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	sw := newStepWatcher(policy.NewSysScaleDefault())
	for _, p := range []soc.Policy{sw, policy.WithoutOptimizedMRC(sw)} {
		cfg.Policy = p
		if _, ok := spec.AppendConfig(nil, cfg); ok {
			t.Errorf("%s: watched config has canonical bytes", p.Name())
		}
	}
}

func TestRenderings(t *testing.T) {
	// Smoke-test every String() used by cmd/experiments.
	tab1, tab2 := Table1(), Table2()
	for _, s := range []string{tab1.String(), tab2.String()} {
		if len(s) < 20 {
			t.Fatal("rendering too short")
		}
	}
}

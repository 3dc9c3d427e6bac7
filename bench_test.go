package sysscale_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (go test -bench=. -benchmem). Each benchmark runs
// the corresponding experiment once per iteration and reports the
// headline quantities as custom metrics, so a single -bench run prints
// the paper-versus-measured comparison alongside timing:
//
//	BenchmarkFig7SPEC     sysscale_avg_pct   ...  (paper: 9.2)
//
// Absolute numbers are simulator-relative; the shape (who wins, by what
// factor, where crossovers fall) is the reproduction target. See
// EXPERIMENTS.md for the per-figure comparison.

import (
	"context"
	"runtime"
	"testing"

	"sysscale"
	"sysscale/internal/experiments"
	"sysscale/internal/sim"
)

// BenchmarkTable1Setups regenerates Table 1 (the two experimental
// setups) and reports the voltage ratios.
func BenchmarkTable1Setups(b *testing.B) {
	var vsa, vio float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		vsa, vio = t.VSARatio(), t.VIORatio()
	}
	b.ReportMetric(vsa, "vsa_ratio")
	b.ReportMetric(vio, "vio_ratio")
}

// BenchmarkFig2aMotivation regenerates the §3 motivation experiment
// (MD-DVFS vs baseline on perlbench/cactusADM/lbm).
func BenchmarkFig2aMotivation(b *testing.B) {
	var power float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2a(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		power = 0
		for _, row := range r.Rows {
			power += -100 * row.PowerDelta
		}
		power /= float64(len(r.Rows))
	}
	b.ReportMetric(power, "avg_power_saving_pct") // paper: 10-11
}

// BenchmarkFig3bStaticDemand regenerates the static-demand table.
func BenchmarkFig3bStaticDemand(b *testing.B) {
	var hd float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3b()
		for _, row := range r.Rows {
			if row.Engine == "display" && row.Config == "1x HD@60" {
				hd = 100 * row.PeakFrac
			}
		}
	}
	b.ReportMetric(hd, "hd_peak_pct") // paper: ~17
}

// BenchmarkFig4MRC regenerates the unoptimized-MRC study.
func BenchmarkFig4MRC(b *testing.B) {
	var powerInc, perfDeg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		powerInc, perfDeg = 100*r.MemPowerIncrease, 100*r.PerfDegradation
	}
	b.ReportMetric(powerInc, "mem_power_increase_pct") // paper: 22
	b.ReportMetric(perfDeg, "perf_degradation_pct")    // paper: 10
}

// BenchmarkFig5Flow measures the DVFS transition flow latency.
func BenchmarkFig5Flow(b *testing.B) {
	var down float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Latency()
		if err != nil {
			b.Fatal(err)
		}
		down = r.DownLatency.Micros()
	}
	b.ReportMetric(down, "flow_latency_us") // paper: <10
}

// BenchmarkFig6Prediction runs a reduced prediction study (the full
// 1620-workload sweep runs via cmd/experiments).
func BenchmarkFig6Prediction(b *testing.B) {
	var corr float64
	var fp int
	for i := 0; i < b.N; i++ {
		opt := experiments.DefaultFig6Options()
		opt.PerPanel = 40
		opt.Duration = 300 * sim.Millisecond
		r, err := experiments.Fig6(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		corr, fp = 0, 0
		for _, p := range r.Panels {
			corr += p.Correlation
			fp += p.FalsePos
		}
		corr /= float64(len(r.Panels))
	}
	b.ReportMetric(corr, "mean_correlation")       // paper: 0.84-0.96
	b.ReportMetric(float64(fp), "false_positives") // paper: 0
}

// BenchmarkFig7SPEC regenerates the headline SPEC CPU2006 comparison.
func BenchmarkFig7SPEC(b *testing.B) {
	var sys, co, mem, max float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sys, co, mem, max = 100*r.AvgSysScale, 100*r.AvgCoScaleR, 100*r.AvgMemScaleR, 100*r.MaxSysScale
	}
	b.ReportMetric(sys, "sysscale_avg_pct")   // paper: 9.2
	b.ReportMetric(co, "coscale_r_avg_pct")   // paper: 3.8
	b.ReportMetric(mem, "memscale_r_avg_pct") // paper: 1.7
	b.ReportMetric(max, "sysscale_max_pct")   // paper: 16
}

// BenchmarkFig8Graphics regenerates the 3DMark comparison.
func BenchmarkFig8Graphics(b *testing.B) {
	var g06, g11, gv float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		g06, g11, gv = 100*r.Rows[0].SysScale, 100*r.Rows[1].SysScale, 100*r.Rows[2].SysScale
	}
	b.ReportMetric(g06, "3dmark06_pct")     // paper: 8.9
	b.ReportMetric(g11, "3dmark11_pct")     // paper: 6.7
	b.ReportMetric(gv, "3dmarkvantage_pct") // paper: 8.1
}

// BenchmarkFig9Battery regenerates the battery-life comparison.
func BenchmarkFig9Battery(b *testing.B) {
	var web, game, conf, video float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		web, game = 100*r.Rows[0].SysScale, 100*r.Rows[1].SysScale
		conf, video = 100*r.Rows[2].SysScale, 100*r.Rows[3].SysScale
	}
	b.ReportMetric(web, "web_saving_pct")     // paper: 6.4
	b.ReportMetric(game, "gaming_saving_pct") // paper: 9.5
	b.ReportMetric(conf, "conf_saving_pct")   // paper: 7.6
	b.ReportMetric(video, "video_saving_pct") // paper: 10.7
}

// BenchmarkFig10TDP regenerates the TDP sensitivity sweep.
func BenchmarkFig10TDP(b *testing.B) {
	var m35, m45, m7, m15 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		m35, m45 = r.Rows[0].Summary.Mean, r.Rows[1].Summary.Mean
		m7, m15 = r.Rows[2].Summary.Mean, r.Rows[3].Summary.Mean
	}
	b.ReportMetric(m35, "mean_3p5w_pct") // paper: 19.1
	b.ReportMetric(m45, "mean_4p5w_pct") // paper: 9.2
	b.ReportMetric(m7, "mean_7w_pct")
	b.ReportMetric(m15, "mean_15w_pct")
}

// BenchmarkDRAMSensitivity regenerates the §7.4 analysis.
func BenchmarkDRAMSensitivity(b *testing.B) {
	var deficit, ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.DRAMSensitivity(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		deficit = 100 * (1 - r.DDR4Freed/r.LPDDR3Freed)
		ratio = r.Degrade08 / r.Degrade106
	}
	b.ReportMetric(deficit, "ddr4_deficit_pct")   // paper: ~7
	b.ReportMetric(ratio, "penalty_ratio_08_106") // paper: 2-3
}

// BenchmarkAblations runs the design-choice ablation sweep.
func BenchmarkAblations(b *testing.B) {
	var full, noMRC, noRedist float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Name {
			case "full":
				full = 100 * row.AvgGain
			case "no-mrc-reload":
				noMRC = 100 * row.AvgGain
			case "no-redistribution":
				noRedist = 100 * row.AvgGain
			}
		}
	}
	b.ReportMetric(full, "full_gain_pct")
	b.ReportMetric(noMRC, "no_mrc_gain_pct")
	b.ReportMetric(noRedist, "no_redist_gain_pct")
}

// engineSweepConfigs builds a Fig. 7-style suite sweep: every SPEC
// CPU2006 workload under baseline and SysScale.
func engineSweepConfigs(b *testing.B) []sysscale.Config {
	b.Helper()
	var cfgs []sysscale.Config
	for _, w := range sysscale.SPECSuite() {
		for _, p := range []sysscale.Policy{sysscale.NewBaseline(), sysscale.NewSysScale()} {
			cfg := sysscale.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = p
			cfg.Duration = 300 * sysscale.Millisecond
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// benchEngineSweep runs the sweep with the given worker bound, caching
// disabled so every iteration measures real simulation work (including
// the pooled-platform reuse path: allocs/op here is the per-batch
// allocation bill the pool is meant to shrink).
func benchEngineSweep(b *testing.B, workers int) {
	cfgs := engineSweepConfigs(b)
	jobs := make([]sysscale.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = sysscale.Job{Config: c}
	}
	eng := sysscale.NewEngine(sysscale.WithParallelism(workers), sysscale.WithCache(false))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatchContext(ctx, jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkEngineSequential is the single-worker reference for the
// suite sweep.
func BenchmarkEngineSequential(b *testing.B) { benchEngineSweep(b, 1) }

// BenchmarkEngineParallel runs the same sweep with one worker per
// core; the runs/s ratio to BenchmarkEngineSequential is the engine's
// speedup (≈ core count on a multi-core machine).
func BenchmarkEngineParallel(b *testing.B) { benchEngineSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkEngineStream runs the BenchmarkEngineParallel sweep through
// Engine.Stream instead of RunBatchContext: same jobs, same worker bound,
// results consumed (and dropped) as they complete. The gate pins this
// next to the batch path so the streaming delivery layer — channel
// sends, per-job clones — can never silently regress relative to it.
func BenchmarkEngineStream(b *testing.B) {
	cfgs := engineSweepConfigs(b)
	jobs := make([]sysscale.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = sysscale.Job{Config: c}
	}
	eng := sysscale.NewEngine(sysscale.WithParallelism(runtime.GOMAXPROCS(0)), sysscale.WithCache(false))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for jr := range eng.Stream(ctx, jobs) {
			if jr.Err != nil {
				b.Fatal(jr.Err)
			}
			n++
		}
		if n != len(jobs) {
			b.Fatalf("stream delivered %d of %d jobs", n, len(jobs))
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkMonteCarlo runs a reduced Monte Carlo robustness sweep (25
// generated workloads × 4 policies as one engine batch) — the
// fleet-style load the span-batched core and platform pooling target,
// and one of the three benchmark-regression-gate trajectories. Each
// iteration starts, outside the timer, on a fresh shared engine, so
// every one of the 100 jobs simulates rather than hitting the result
// cache the previous iteration filled.
func BenchmarkMonteCarlo(b *testing.B) {
	var regress int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		experiments.SetParallelism(0)
		b.StartTimer()
		opt := experiments.DefaultMonteCarloOptions()
		opt.N = 25
		r, err := experiments.MonteCarlo(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		regress = 0
		for _, p := range r.Policies {
			regress += p.Regressions
		}
	}
	b.ReportMetric(float64(regress), "regressions")
}

// BenchmarkSimulatorTick measures raw simulator throughput: simulated
// milliseconds per wall-clock second on a single workload/policy pair.
func BenchmarkSimulatorTick(b *testing.B) {
	w, err := experiments.BenchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.BenchConfig(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BenchRun(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cfg.Duration.Millis()*float64(b.N)/b.Elapsed().Seconds(), "sim_ms/s")
}

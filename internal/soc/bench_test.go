package soc

import (
	"testing"

	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

// BenchmarkTickLoop measures the simulator's core loop: ticks per
// second on a phased workload with an active governor.
func BenchmarkTickLoop(b *testing.B) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	cfg.Duration = 500 * sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	ticks := float64(cfg.Duration/cfg.SampleInterval) * float64(b.N)
	b.ReportMetric(ticks/b.Elapsed().Seconds(), "ticks/s")
}

func highPinBench() Policy { return &testPolicy{index: 0, optimizedMRC: true} }

// benchSteadyState runs a steady-state workload (single-phase SPEC,
// stable governor decisions) with the fast-path knobs set as given;
// the ticks/s ratios between the variants are the fast paths' speedups.
func benchSteadyState(b *testing.B, disableSpan, disableMemo bool) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	cfg.Duration = 500 * sim.Millisecond
	cfg.noSpanBatching = disableSpan
	cfg.noTickMemo = disableMemo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	ticks := float64(cfg.Duration/cfg.SampleInterval) * float64(b.N)
	b.ReportMetric(ticks/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkTickLoopSteadyState measures the shipped fast path: span
// batching over the memoized fixpoint.
func BenchmarkTickLoopSteadyState(b *testing.B) { benchSteadyState(b, false, false) }

// BenchmarkTickLoopSpanOff walks tick by tick with the memo on — the
// PR-2 memo-only behaviour, kept as the span path's speedup reference.
func BenchmarkTickLoopSpanOff(b *testing.B) { benchSteadyState(b, true, false) }

// BenchmarkTickLoopMemoOff resolves the fixpoint every tick — the
// pre-memo behaviour, kept as the cumulative speedup reference.
func BenchmarkTickLoopMemoOff(b *testing.B) { benchSteadyState(b, true, true) }

// BenchmarkRunnerPooled measures a pooled steady-state run: the
// platform is recycled through Reset instead of reassembled, which is
// what engine workers do per job. allocs/op versus
// BenchmarkTickLoopSteadyState is the pooling win.
func BenchmarkRunnerPooled(b *testing.B) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	cfg.Duration = 500 * sim.Millisecond
	r := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	ticks := float64(cfg.Duration/cfg.SampleInterval) * float64(b.N)
	b.ReportMetric(ticks/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkPlatformAssembly measures cold-start cost (MRC training,
// component wiring) — relevant for sweep-style experiments that build
// thousands of platforms.
func BenchmarkPlatformAssembly(b *testing.B) {
	w, _ := workload.SPEC("416.gamess")
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlatform(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

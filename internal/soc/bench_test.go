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
	cfg.DisableSpanBatching = disableSpan
	cfg.DisableTickMemo = disableMemo
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

// BenchmarkRunnerPooledWarmSpanCache measures the cross-job fast path:
// a pooled run whose every cacheable span is served from a warm shared
// SpanCache — the steady state of an engine sweep re-visiting a
// workload. The ns/op delta against BenchmarkRunnerPooled is the span
// cache's per-run win; allocs/op must match it (the cache adds no heap
// traffic on hits).
func BenchmarkRunnerPooledWarmSpanCache(b *testing.B) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	cfg.Duration = 500 * sim.Millisecond
	r := NewRunner()
	r.SetSpanCache(NewSpanCache(0))
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	ticks := float64(cfg.Duration/cfg.SampleInterval) * float64(b.N)
	b.ReportMetric(ticks/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkRunnerPooledFullSpanCache measures the saturated miss path:
// a pooled run against a shared SpanCache already filled to its bound
// by other workloads, so every cacheable span is hashed, misses, and
// is dropped — the steady state of a Monte Carlo or cold sweep whose
// distinct spans outnumber the cache. ns/op against
// BenchmarkRunnerPooled is what the cache costs when it cannot pay
// back; allocs/op must match it.
func BenchmarkRunnerPooledFullSpanCache(b *testing.B) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = w
	cfg.Policy = highPinBench()
	cfg.Duration = 500 * sim.Millisecond

	const bound = 32
	cache := NewSpanCache(bound)
	r := NewRunner()
	r.SetSpanCache(cache)
	for _, fill := range workload.SPECSuite() {
		if fill.Name == w.Name || cache.Stats().Entries == bound {
			continue
		}
		fcfg := cfg
		fcfg.Workload = fill
		if _, err := r.Run(fcfg); err != nil {
			b.Fatal(err)
		}
	}
	before := cache.Stats()
	if before.Entries != bound {
		b.Fatalf("the SPEC suite filled only %d of %d entries", before.Entries, bound)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := cache.Stats(); s.Hits != before.Hits || s.Dropped == before.Dropped {
		b.Fatalf("measured runs were not all dropped misses: before %+v, after %+v", before, s)
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

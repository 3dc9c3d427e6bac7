// Package experiments regenerates every table and figure of the
// paper's evaluation: the §3 motivation experiments (Fig. 2-4), the
// flow-latency budget (Fig. 5 / §5), the prediction study (Fig. 6),
// the main results (Figs. 7-9), the TDP sensitivity study (Fig. 10),
// the §7.4 DRAM sensitivity analyses, and the design-choice ablations
// called out in DESIGN.md.
//
// Each experiment is a pure function returning a typed result with a
// String() rendering; cmd/experiments and the benchmark harness are
// thin wrappers around this package. Experiments that simulate take a
// context.Context and unwind within one policy epoch once it is
// cancelled (cmd/experiments wires Ctrl-C to it).
//
// All multi-workload fan-out goes through a shared internal/engine
// instance: every figure declares its policy × workload cross-product
// as an engine.Sweep (or submits a hand-assembled batch for the few
// irregular shapes) and runs it as one batch, so the sweeps execute
// with bounded parallelism (SetParallelism) and repeated runs — the
// baselines every figure compares against, the §6 scalability probes
// — are memoized across figures.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// minRunTime keeps short workloads running long enough to cover PMU
// intervals and phase loops.
const minRunTime = 2 * sim.Second

// shared is the engine every experiment submits to. Replacing it via
// SetParallelism/SetDiskCache/SetJobTimeout drops the memoized results
// (the on-disk tier, when configured, persists by design).
var (
	engMu       sync.Mutex
	parallelism int
	diskDir     string
	jobTimeout  time.Duration
	shared      = engine.New()
)

// rebuild replaces the shared engine with one reflecting the current
// knobs. Callers hold engMu.
func rebuild() {
	opts := []engine.Option{
		engine.WithParallelism(parallelism),
		engine.WithJobTimeout(jobTimeout),
	}
	if diskDir != "" {
		opts = append(opts, engine.WithDiskCache(diskDir))
	}
	shared = engine.New(opts...)
}

// SetJobTimeout rebuilds the shared engine with a per-job wall-time
// budget (0 = unbounded); see engine.WithJobTimeout for the contract.
func SetJobTimeout(timeout time.Duration) {
	engMu.Lock()
	defer engMu.Unlock()
	jobTimeout = timeout
	rebuild()
}

// SetParallelism rebuilds the shared experiment engine with at most n
// simulations in flight (n <= 0 restores the GOMAXPROCS default). The
// in-memory result cache starts empty; a configured disk cache
// persists.
func SetParallelism(n int) {
	engMu.Lock()
	defer engMu.Unlock()
	parallelism = n
	rebuild()
}

// SetDiskCache rebuilds the shared engine with the persistent on-disk
// result tier rooted at dir (empty disables it), so repeated
// figure-style sweeps hit disk across process restarts. A store that
// fails to open is reported here — loudly, since the caller asked for
// persistence — and leaves the engine running without the tier.
func SetDiskCache(dir string) error {
	engMu.Lock()
	defer engMu.Unlock()
	diskDir = dir
	rebuild()
	return shared.DiskCacheError()
}

// Engine returns the shared experiment engine (for cache statistics
// and direct batch submission).
func Engine() *engine.Engine {
	engMu.Lock()
	defer engMu.Unlock()
	return shared
}

// experimentDuration is the harness's duration rule, applied to every
// sweep cell: cover at least two full loops of the workload's phases,
// and never less than minRunTime.
func experimentDuration(cfg *soc.Config) {
	cfg.Duration = 2 * cfg.Workload.TotalDuration()
	if cfg.Duration < minRunTime {
		cfg.Duration = minRunTime
	}
}

// newSweep starts a Sweep over the Table 2 platform with the harness
// duration rule and the given policy columns.
func newSweep(ps ...soc.Policy) *engine.Sweep {
	return engine.NewSweep().Policies(ps...).Configure(experimentDuration)
}

// baseConfig returns the Table 2 platform configured for a workload,
// covering at least two full loops of its phases.
func baseConfig(w workload.Workload) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	experimentDuration(&cfg)
	return cfg
}

// configFor assembles the config for one workload under one policy.
// The policy instance is not consumed: the engine clones it per job.
func configFor(w workload.Workload, p soc.Policy, mut func(*soc.Config)) soc.Config {
	cfg := baseConfig(w)
	cfg.Policy = p
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// submit runs a batch of hand-assembled configurations through the
// shared engine, returning results in input order. Cross-product
// shapes should build an engine.Sweep instead.
func submit(ctx context.Context, cfgs []soc.Config) ([]soc.Result, error) {
	jobs := make([]engine.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = engine.Job{Config: c}
	}
	return Engine().RunBatchContext(ctx, jobs)
}

// scalabilities runs the §6 scalability probes of a suite as one
// batch and returns each row's measured scalability (soc.Scalability);
// a row whose base run exposes no relevant clock has no probe and
// scores 0.
func scalabilities(ctx context.Context, cfgs []soc.Config, bases []soc.Result, gfx bool) ([]float64, error) {
	probes := make([]soc.Config, 0, len(cfgs))
	rows := make([]int, 0, len(cfgs))
	for i, cfg := range cfgs {
		if probe, ok := soc.ScalabilityProbeConfig(cfg, bases[i], gfx); ok {
			probes = append(probes, probe)
			rows = append(rows, i)
		}
	}
	rs, err := submit(ctx, probes)
	if err != nil {
		return nil, err
	}
	scal := make([]float64, len(cfgs))
	for k, i := range rows {
		scal[i] = soc.Scalability(bases[i], rs[k])
	}
	return scal, nil
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }

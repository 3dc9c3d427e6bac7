package experiments

import (
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// Helpers for the top-level benchmark harness (bench_test.go), which
// cannot import internal packages' unexported pieces directly.

// BenchWorkload returns a representative mixed workload for throughput
// benchmarking.
func BenchWorkload() (workload.Workload, error) {
	return workload.SPEC("473.astar")
}

// BenchConfig returns a 1-second SysScale run configuration.
func BenchConfig(w workload.Workload) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewSysScaleDefault()
	cfg.Duration = 1 * sim.Second
	return cfg
}

// BenchRun executes one configuration.
func BenchRun(cfg soc.Config) (soc.Result, error) { return soc.Run(cfg) }

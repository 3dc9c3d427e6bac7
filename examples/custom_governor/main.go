// Custom governor: the Policy interface accepts user-defined
// power-management algorithms. This example implements a naive
// bandwidth-utilization governor (drop to the low point whenever
// measured traffic is under a fixed fraction of peak — no latency
// conditions, no static CSR table, no per-frequency MRC reload) and
// compares it against SysScale on a latency-sensitive workload, where
// the missing LLC_STALLS condition makes the naive governor lose
// performance SysScale preserves.
package main

import (
	"fmt"
	"log"

	"sysscale"
)

// utilGovernor drops to the low point purely on bandwidth utilization.
type utilGovernor struct {
	target float64
}

func (g *utilGovernor) Name() string { return "naive-util" }
func (g *utilGovernor) Reset()       {}
func (g *utilGovernor) Clone() sysscale.Policy {
	c := *g
	return &c
}

func (g *utilGovernor) Decide(ctx sysscale.PolicyContext) sysscale.PolicyDecision {
	// MemReadBytes/MemWriteBytes are counter indices 5 and 6; the
	// utilization is taken against the top point's usable bandwidth.
	bw := ctx.Counters[5] + ctx.Counters[6]
	peak := 25.6e9 * 0.85
	target := 0
	if !ctx.Warmup && bw < g.target*peak {
		target = len(ctx.Ladder) - 1
	}
	// Reserve[i] is the reservation-table row of Ladder[i].
	return sysscale.PolicyDecision{
		Target:       ctx.Ladder[target],
		OptimizedMRC: true,
		IOBudget:     ctx.Reserve[target].IO,
		MemBudget:    ctx.Reserve[target].Mem,
	}
}

func main() {
	// omnetpp: modest bandwidth but heavily latency bound — the
	// workload class that punishes utilization-only governors.
	w, err := sysscale.SPEC("471.omnetpp")
	if err != nil {
		log.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Duration = 4 * sysscale.Second

	run := func(p sysscale.Policy) sysscale.Result {
		c := cfg
		c.Policy = p
		r, err := sysscale.Run(c)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	base := run(sysscale.NewBaseline())
	naive := run(&utilGovernor{target: 0.40})
	sys := run(sysscale.NewSysScale())

	fmt.Printf("baseline:   score %.4f, %.3fW\n", base.Score, float64(base.AvgPower))
	fmt.Printf("naive-util: score %.4f (%+.1f%%), %.3fW\n", naive.Score,
		100*sysscale.PerfImprovement(naive, base), float64(naive.AvgPower))
	fmt.Printf("sysscale:   score %.4f (%+.1f%%), %.3fW\n", sys.Score,
		100*sysscale.PerfImprovement(sys, base), float64(sys.AvgPower))
	fmt.Println("\nThe naive governor sees omnetpp's low bandwidth and drops the memory")
	fmt.Println("domain, paying the latency penalty; SysScale's LLC_STALLS condition")
	fmt.Println("keeps the high point because the workload is latency bound (§4.2).")
}

// Package examples compiles and runs the public-API quick-start
// snippets from the sysscale package documentation as Example
// functions, so the documented contract is build- and
// output-verified on every test run (the README and doc.go snippets
// can never silently rot). Each example prints derived, perfectly
// deterministic facts — comparisons and counts, not raw floats — so
// the expected output is stable across architectures.
package examples

import (
	"context"
	"errors"
	"fmt"
	"log"

	"sysscale"
)

// Example_quickstart is the doc.go quick start: one SPEC workload
// under the worst-case baseline and under SysScale, compared with the
// package helpers.
func Example_quickstart() {
	w, err := sysscale.SPEC("416.gamess")
	if err != nil {
		log.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Duration = sysscale.Second

	cfg.Policy = sysscale.NewBaseline()
	base, err := sysscale.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Policy = sysscale.NewSysScale()
	sys, err := sysscale.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("sysscale faster:", sysscale.PerfImprovement(sys, base) > 0)
	fmt.Println("sysscale leaves the top point:", sys.PointResidency[0] < 1)
	// Output:
	// sysscale faster: true
	// sysscale leaves the top point: true
}

// Example_runBatch is the doc.go batch snippet: one Policy value backs
// every job (the engine clones it per job) and results come back in
// input order.
func Example_runBatch() {
	eng := sysscale.NewEngine()
	sys := sysscale.NewSysScale()
	var jobs []sysscale.Job
	for _, w := range sysscale.GraphicsSuite() {
		cfg := sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = sys
		jobs = append(jobs, sysscale.Job{Config: cfg})
	}
	results, err := eng.RunBatchContext(context.Background(), jobs) // results[i] ↔ jobs[i]
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("results:", len(results))
	fmt.Println("in input order:", results[0].Workload == jobs[0].Config.Workload.Name)
	// Output:
	// results: 3
	// in input order: true
}

// Example_sweep builds a policy × workload cross-product with the
// Sweep builder and reads the comparison matrix the evaluation figures
// are made of.
func Example_sweep() {
	rs, err := sysscale.NewSweep().
		Policies(sysscale.NewBaseline(), sysscale.NewSysScale()).
		Workloads(sysscale.BatterySuite()...).
		RunContext(context.Background(), sysscale.NewEngine())
	if err != nil {
		log.Fatal(err)
	}
	power := rs.PowerReduction(0) // matrix vs the baseline column
	saves := 0
	for wi := range rs.Workloads {
		if power.Values[1][wi] > 0 {
			saves++
		}
	}
	fmt.Printf("sysscale saves power on %d/%d battery workloads\n", saves, len(rs.Workloads))
	// Output:
	// sysscale saves power on 4/4 battery workloads
}

// Example_stream consumes a sweep as it completes: one JobResult per
// job, tagged with its input index, in O(parallelism) memory.
func Example_stream() {
	eng := sysscale.NewEngine()
	sys := sysscale.NewSysScale()
	var jobs []sysscale.Job
	for _, w := range sysscale.GraphicsSuite() {
		cfg := sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = sys
		jobs = append(jobs, sysscale.Job{Config: cfg})
	}
	delivered := make([]bool, len(jobs))
	for jr := range eng.Stream(context.Background(), jobs) {
		if jr.Err != nil {
			log.Fatal(jr.Err)
		}
		delivered[jr.Index] = true
	}
	fmt.Println("all delivered:", delivered[0] && delivered[1] && delivered[2])
	// Output:
	// all delivered: true
}

// Example_cancellation shows the context contract: a cancelled run
// unwinds within one policy epoch and reports context.Canceled, and
// invalid configurations are typed errors, not strings.
func Example_cancellation() {
	w, err := sysscale.SPEC("470.lbm")
	if err != nil {
		log.Fatal(err)
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = sysscale.NewSysScale()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // e.g. Ctrl-C via signal.NotifyContext
	_, err = sysscale.RunContext(ctx, cfg)
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))

	bad := cfg
	bad.Duration = -1
	jobs := []sysscale.Job{{Config: cfg}, {Config: bad}}
	_, err = sysscale.NewEngine().RunBatchContext(context.Background(), jobs)
	var je *sysscale.JobError
	fmt.Println("invalid config:", errors.Is(err, sysscale.ErrInvalidConfig))
	fmt.Println("failed job index:", func() int { errors.As(err, &je); return je.Index }())
	// Output:
	// cancelled: true
	// invalid config: true
	// failed job index: 1
}

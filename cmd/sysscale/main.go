// Command sysscale runs one workload under one governor on the
// simulated platform and prints the full result.
//
// Usage:
//
//	sysscale -workload 470.lbm -policy sysscale [-tdp 4.5] [-duration 4s]
//	         [-compare] [-verbose] [-cache-dir dir/] [-job-timeout 30s]
//	sysscale -spec job.json [-compare] [-verbose] [-cache-dir dir/]
//
// -workload accepts any built-in name (SPEC CPU2006, the 3DMark,
// battery-life and productivity suites, "stream"), matched
// case-insensitively; -list enumerates them. -policy selects baseline,
// sysscale, memscale[-redist], coscale[-redist], static-low.
//
// -spec loads the whole job — platform, workload, policy, run
// parameters — from a serialized job-spec file instead (see the
// "Job specs" section of the README); the individual -workload,
// -policy, -tdp and -duration flags then do not apply. -compare also
// runs the baseline and prints the deltas. -verbose adds per-rail
// average power, DVFS transition statistics and operating-point
// residency.
//
// -cache-dir routes the run through the persistent on-disk result
// cache (see the README's "Persistent result cache"): a repeated
// invocation with the same job prints the same result without
// simulating, and a final "cache:" line reports the disk traffic (with
// a warning when the tier's circuit breaker is open).
//
// -job-timeout bounds the run's wall time: an over-budget run fails
// with a timeout error instead of hanging the invocation (see the
// README's "Robustness" section for the error taxonomy).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sysscale"
	"sysscale/internal/cliutil"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

func main() {
	var (
		specFile = flag.String("spec", "", "load the full job from a job-spec JSON file")
		wlName   = flag.String("workload", "473.astar", "workload name (-list to enumerate)")
		wlFile   = flag.String("workload-file", "", "load the workload from a tracegen-style JSON file instead")
		polName  = flag.String("policy", "sysscale", cliutil.PolicyNames)
		tdp      = flag.Float64("tdp", 4.5, "package TDP in watts")
		duration = flag.Duration("duration", 4*time.Second, "simulated duration")
		compare  = flag.Bool("compare", false, "also run the baseline and print deltas")
		verbose  = flag.Bool("verbose", false, "print per-rail power, transition and residency detail")
		cacheDir = flag.String("cache-dir", "", "persistent on-disk result cache directory (shared across runs)")
		jobTO    = flag.Duration("job-timeout", 0, "per-run wall-time budget (0 = unbounded); an over-budget run fails instead of hanging")
		statsOut = flag.Bool("stats-json", false, "print one machine-readable \"stats: {...}\" engine-counter line after the run")
		list     = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range sysscale.BuiltinWorkloadNames() {
			fmt.Println(n)
		}
		return
	}

	var cfg sysscale.Config
	if *specFile != "" {
		var err error
		cfg, err = loadSpecFile(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		var w sysscale.Workload
		var err error
		if *wlFile != "" {
			w, err = loadWorkloadFile(*wlFile)
		} else {
			w, err = sysscale.BuiltinWorkload(*wlName)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pol, err := cliutil.Policy(*polName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		cfg = sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = pol
		cfg.TDP = sysscale.Watt(*tdp)
		cfg.Duration = sysscale.Time(duration.Nanoseconds())
	}

	// Ctrl-C cancels the run context; the simulation unwinds within
	// one policy epoch and the command exits with the cancellation.
	ctx, stop := cliutil.InterruptContext(context.Background())
	defer stop()

	// The run goes through an engine: it bounds the wall time, carries
	// the persistent result tier when -cache-dir is set (a repeated
	// invocation with the same job is served from disk instead of
	// simulating), and counts what -stats-json prints.
	eng := sysscale.NewEngine(sysscale.WithJobTimeout(*jobTO), sysscale.WithDiskCache(*cacheDir))
	if err := eng.DiskCacheError(); err != nil {
		fmt.Fprintf(os.Stderr, "cache-dir: %v\n", err)
		os.Exit(1)
	}

	res, err := eng.RunContext(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, context.Canceled) {
			os.Exit(cliutil.ExitInterrupt)
		}
		os.Exit(1)
	}
	fmt.Println(res)
	if *verbose {
		printVerbose(os.Stdout, cfg, res)
	}

	if *compare && cfg.Policy.Name() != sysscale.NewBaseline().Name() {
		cfg.Policy = sysscale.NewBaseline()
		base, err := eng.RunContext(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, context.Canceled) {
				os.Exit(cliutil.ExitInterrupt)
			}
			os.Exit(1)
		}
		fmt.Printf("vs baseline: perf %+.1f%%, avg power %+.1f%%, EDP %+.1f%%\n",
			100*sysscale.PerfImprovement(res, base),
			100*(float64(res.AvgPower/base.AvgPower)-1),
			100*sysscale.EDPImprovement(res, base))
	}
	if *cacheDir != "" {
		st := eng.CacheStats()
		fmt.Printf("cache: %d disk hits, %d disk misses, %d disk errors, %d bytes on disk\n",
			st.DiskHits, st.DiskMisses, st.DiskErrors, st.DiskBytes)
		if st.DiskDegraded {
			fmt.Fprintln(os.Stderr, "cache: disk tier DEGRADED (circuit breaker open; runs are not being persisted)")
		}
	}
	if *statsOut {
		// One machine-readable line, same shape as sweepd's /v1/stats
		// engine block, so scripts parse one format everywhere.
		b, err := json.Marshal(eng.CacheStats())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("stats: %s\n", b)
	}
}

// printVerbose renders the -verbose detail block: per-rail average
// power, DVFS transition statistics and operating-point residency.
func printVerbose(w io.Writer, cfg sysscale.Config, res sysscale.Result) {
	fmt.Fprintf(w, "rail averages:")
	for i := 0; i < vf.NumRails; i++ {
		fmt.Fprintf(w, " %v %.3fW", vf.RailID(i), res.RailAvg[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "transitions: %d (total %v, max %v)\n",
		res.Transitions, res.TransitionTime, res.MaxTransition)
	fmt.Fprintf(w, "residency:")
	for i, f := range res.PointResidency {
		name := fmt.Sprintf("point%d", i)
		if i < len(cfg.Ladder) && cfg.Ladder[i].Name != "" {
			name = cfg.Ladder[i].Name
		}
		fmt.Fprintf(w, " %s %.1f%%", name, 100*f)
	}
	fmt.Fprintln(w)
}

func loadWorkloadFile(path string) (sysscale.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return sysscale.Workload{}, err
	}
	defer f.Close()
	return workload.ReadJSON(f)
}

// loadSpecFile reads a serialized job spec and resolves it to a
// runnable config; a spec that decodes is fully validated.
func loadSpecFile(path string) (sysscale.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return sysscale.Config{}, err
	}
	defer f.Close()
	job, err := sysscale.ReadJobSpec(f)
	if err != nil {
		return sysscale.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	cfg, err := sysscale.DecodeSpec(job)
	if err != nil {
		return sysscale.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

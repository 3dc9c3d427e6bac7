// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run name] [-fig6n N] [-parallel N] [-cache-dir dir/]
//	experiments -montecarlo [-seed S] [-n N] [-parallel N]
//	experiments -specs dir/ [-parallel N] [-cache-dir dir/]
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof [...]
//
// -cpuprofile and -memprofile write pprof profiles of whatever
// selection runs, so hot-path regressions can be diagnosed with
// `go tool pprof` without editing code.
//
// With no flags it runs the full set in paper order. -run selects one
// experiment by name (table1, table2, fig2, fig3, fig4, fig5, fig6,
// fig7, fig8, fig9, fig10, sensitivity, multipoint, cost, ablations,
// calibrate, montecarlo); an unknown name prints the valid ones to
// stderr and exits 2. -parallel bounds the simulation worker pool
// (0, the default, uses GOMAXPROCS; 1 forces sequential execution).
//
// -montecarlo runs the stochastic robustness sweep instead of the
// paper set: -n workloads generated from -seed (see
// internal/workload/gen), each simulated under the baseline and the
// three closed-loop policies, reported as per-policy outcome
// distributions. The sweep is bit-identical for a given (seed, n) at
// any -parallel level.
//
// -specs runs every job-spec file (*.json, sorted by name) in a
// directory as one engine batch instead of the paper set, printing
// each file's fingerprint and result. A spec whose twin already
// finished — in this batch or an earlier one this invocation — is
// served from the engine's result cache; identical specs that run at
// the same time each simulate, with the same result.
//
// -cache-dir layers the persistent on-disk result tier under the
// engine's in-memory cache: results are keyed by the canonical spec
// fingerprint and survive process restarts, so repeating a sweep (or
// sharing the directory between machines of the same GOARCH; results
// are bit-identical only within one architecture) serves it from disk
// instead of re-simulating. Corrupt entries degrade to counted misses. A final
// "cache:" line reports both tiers, with a stderr warning when the
// tier's circuit breaker is open (results not persisting).
//
// -job-timeout bounds each job's wall time: an over-budget job fails
// with a timeout error instead of hanging the sweep (see the README's
// "Robustness" section).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"sysscale"
	"sysscale/internal/cliutil"
	"sysscale/internal/experiments"
)

func main() { os.Exit(run()) }

// run carries main's body so the profile-writing defers fire even on
// experiment failure (os.Exit would skip them).
func run() int {
	runName := flag.String("run", "", "run a single experiment by name")
	fig6n := flag.Int("fig6n", 0, "workloads per Fig. 6 panel (0 = paper scale, 180)")
	parallel := flag.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS, 1 = sequential)")
	montecarlo := flag.Bool("montecarlo", false, "run the Monte Carlo robustness sweep")
	seed := flag.Uint64("seed", 1, "Monte Carlo workload-generator seed")
	mcN := flag.Int("n", 100, "Monte Carlo generated workload count")
	specsDir := flag.String("specs", "", "run every job-spec JSON file in this directory instead")
	cacheDir := flag.String("cache-dir", "", "persistent on-disk result cache directory (shared across runs)")
	jobTO := flag.Duration("job-timeout", 0, "per-job wall-time budget (0 = unbounded); over-budget jobs fail instead of hanging the sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	statsOut := flag.Bool("stats-json", false, "print one machine-readable \"stats: {...}\" engine-counter line after the run")
	flag.Parse()
	if *parallel != 0 {
		experiments.SetParallelism(*parallel)
	}
	if *jobTO > 0 {
		experiments.SetJobTimeout(*jobTO)
	}
	if *cacheDir != "" && *specsDir == "" {
		if err := experiments.SetDiskCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "cache-dir: %v\n", err)
			return 1
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is accurate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *montecarlo {
		*runName = "montecarlo"
	}

	// Ctrl-C cancels the run context: in-flight sweeps unwind within
	// one policy epoch, pooled platforms are returned, and the command
	// exits after reporting the cancellation.
	ctx, stop := cliutil.InterruptContext(context.Background())
	defer stop()

	if *specsDir != "" {
		return runSpecs(ctx, *specsDir, *parallel, *cacheDir, *jobTO, *statsOut)
	}

	mcFn := func(ctx context.Context) (fmt.Stringer, error) {
		opt := experiments.DefaultMonteCarloOptions()
		opt.Seed = *seed
		opt.N = *mcN
		return experiments.MonteCarlo(ctx, opt)
	}

	type exp struct {
		name string
		fn   func(ctx context.Context) (fmt.Stringer, error)
	}
	all := []exp{
		{"table1", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Table1(), nil }},
		{"table2", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Table2(), nil }},
		{"fig2", func(ctx context.Context) (fmt.Stringer, error) {
			a, err := experiments.Fig2a(ctx)
			if err != nil {
				return nil, err
			}
			b, err := experiments.Fig2b()
			if err != nil {
				return nil, err
			}
			c, err := experiments.Fig2c()
			if err != nil {
				return nil, err
			}
			return multi{a, b, c}, nil
		}},
		{"fig3", func(ctx context.Context) (fmt.Stringer, error) {
			a, err := experiments.Fig3a()
			if err != nil {
				return nil, err
			}
			return multi{a, experiments.Fig3b()}, nil
		}},
		{"fig4", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig4(ctx) }},
		{"fig5", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig5Latency() }},
		{"fig6", func(ctx context.Context) (fmt.Stringer, error) {
			opt := experiments.DefaultFig6Options()
			if *fig6n > 0 {
				opt.PerPanel = *fig6n
			}
			return experiments.Fig6(ctx, opt)
		}},
		{"fig7", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig7(ctx) }},
		{"fig8", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig8(ctx) }},
		{"fig9", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig9(ctx) }},
		{"fig10", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig10(ctx) }},
		{"sensitivity", func(ctx context.Context) (fmt.Stringer, error) { return experiments.DRAMSensitivity(ctx) }},
		{"multipoint", func(ctx context.Context) (fmt.Stringer, error) { return experiments.MultiPoint(ctx) }},
		{"cost", func(ctx context.Context) (fmt.Stringer, error) { return experiments.ImplementationCost() }},
		{"ablations", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Ablations(ctx) }},
		{"calibrate", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Calibrate(ctx, 0, 7) }},
		{"montecarlo", mcFn},
	}
	if *runName != "" {
		names := make([]string, len(all))
		for i, e := range all {
			names[i] = e.name
		}
		if !slices.Contains(names, *runName) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid names: %s\n", *runName, strings.Join(names, ", "))
			return 2
		}
	}

	for _, e := range all {
		if *runName != "" && e.name != *runName {
			continue
		}
		if e.name == "montecarlo" && *runName == "" {
			// The stochastic sweep is opt-in: the default invocation
			// reproduces the paper set only.
			continue
		}
		start := time.Now()
		out, err := e.fn(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "interrupted: partial sweeps discarded")
				return cliutil.ExitInterrupt
			}
			return 1
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", e.name, time.Since(start).Seconds(), out)
	}
	if *cacheDir != "" {
		printCacheStats(experiments.Engine().CacheStats())
	}
	if *statsOut {
		printStatsJSON(experiments.Engine().CacheStats())
	}
	return 0
}

// printStatsJSON emits the -stats-json line: the full engine counter
// snapshot in the same JSON shape as sweepd's /v1/stats engine block,
// so scripts parse one format everywhere.
func printStatsJSON(st sysscale.EngineStats) {
	b, err := json.Marshal(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("stats: %s\n", b)
}

// printCacheStats reports the two result tiers after a -cache-dir run;
// the CI disk-cache smoke greps this line for cross-process reuse. A
// degraded disk tier (circuit breaker open) is reported on stderr so
// "the sweep ran but nothing persisted" is never silent.
func printCacheStats(st sysscale.EngineStats) {
	fmt.Printf("cache: %d memory hits, %d disk hits, %d disk misses, %d disk errors, %d bytes on disk\n",
		st.Hits, st.DiskHits, st.DiskMisses, st.DiskErrors, st.DiskBytes)
	if st.DiskDegraded {
		fmt.Fprintln(os.Stderr, "cache: disk tier DEGRADED (circuit breaker open; results are not being persisted)")
	}
}

// runSpecs runs every *.json job spec in dir as one engine batch and
// prints each file's fingerprint and result in file order. With a
// cache dir, results persist across invocations: a repeated run is
// served from disk without simulating.
func runSpecs(ctx context.Context, dir string, parallel int, cacheDir string, jobTO time.Duration, statsOut bool) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "specs: %v\n", err)
		return 1
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "specs: no *.json files in %s\n", dir)
		return 1
	}
	sort.Strings(paths)

	jobs := make([]sysscale.Job, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "specs: %v\n", err)
			return 1
		}
		js, err := sysscale.ReadJobSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "specs: %s: %v\n", p, err)
			return 1
		}
		if jobs[i], err = sysscale.JobFromSpec(js); err != nil {
			fmt.Fprintf(os.Stderr, "specs: %s: %v\n", p, err)
			return 1
		}
		// A spec that decodes but cannot be fingerprinted (an
		// unregistered policy, say) still runs — but uncached, which at
		// sweep volumes is a problem worth hearing about, not a line to
		// silently omit.
		if fp, err := sysscale.SpecFingerprint(js); err != nil {
			fmt.Fprintf(os.Stderr, "specs: %s: fingerprint: %v (job will run uncached)\n", p, err)
		} else {
			fmt.Printf("%s  %x\n", p, fp[:8])
		}
	}

	opts := []sysscale.EngineOption{
		sysscale.WithParallelism(parallel),
		sysscale.WithJobTimeout(jobTO),
	}
	if cacheDir != "" {
		opts = append(opts, sysscale.WithDiskCache(cacheDir))
	}
	eng := sysscale.NewEngine(opts...)
	if err := eng.DiskCacheError(); err != nil {
		fmt.Fprintf(os.Stderr, "cache-dir: %v\n", err)
		return 1
	}
	start := time.Now()
	results, err := eng.RunBatchContext(ctx, jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specs: %v\n", err)
		if errors.Is(err, context.Canceled) {
			return cliutil.ExitInterrupt
		}
		return 1
	}
	fmt.Printf("==== specs: %d jobs (%.1fs) ====\n", len(jobs), time.Since(start).Seconds())
	for i, res := range results {
		fmt.Printf("%s:\n%s\n", paths[i], res)
	}
	if cacheDir != "" {
		printCacheStats(eng.CacheStats())
	}
	if statsOut {
		printStatsJSON(eng.CacheStats())
	}
	return 0
}

// multi renders several results in sequence.
type multi []fmt.Stringer

func (m multi) String() string {
	s := ""
	for _, x := range m {
		s += x.String() + "\n"
	}
	return s
}

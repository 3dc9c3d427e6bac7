// Command sweepload drives concurrent load at a sweepd server and
// reports latency quantiles and error rates. It is the harness that
// finds a deployment's knee — raise -clients until 503s appear — and
// the CI smoke driver that proves the service streams correct,
// complete, reproducible results under concurrency.
//
// Usage:
//
//	sweepload [-addr http://127.0.0.1:8080] \
//	          [-specs dir | -gen N -seed S -policies list] \
//	          [-clients N] [-sweeps N] [-batch N] [-rate R] \
//	          [-timeout d] [-out file] [-stats]
//
// The job corpus comes either from a directory of spec JSON files
// (-specs, sorted by name so the corpus order is stable) or from the
// workload generator (-gen N synthesizes N workloads from -seed,
// paired round-robin with the -policies list: any policy name
// sysscale -policy accepts, static-low included, in any letter case).
// Request i submits
// chunk i mod numChunks of the corpus (-batch specs per sweep; 0 =
// whole corpus per sweep), so the request→spec mapping is
// deterministic and responses can be verified offline.
//
// -out collects every streamed line and writes them to a file,
// per-request in submission order, each request's lines sorted by job
// index with the Done marker last — a canonical form that is
// byte-identical across runs against a warm cache (the CI smoke diffs
// two passes). -stats fetches /v1/stats afterwards and prints one
// "stats: {...}" machine-readable line.
//
// Exit status: 0 for a clean run, 1 if any sweep failed (HTTP error,
// in-band job error, truncated or canceled stream), 130 on interrupt.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sysscale"
	"sysscale/internal/cliutil"
	"sysscale/internal/sweepd/loadgen"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "sweepd base URL")
		specsDir = flag.String("specs", "", "directory of job spec JSON files (sorted by name)")
		gen      = flag.Int("gen", 0, "synthesize N workloads instead of reading -specs")
		seed     = flag.Uint64("seed", 1, "generator seed for -gen")
		policies = flag.String("policies", "sysscale", "comma-separated policies for -gen, in any letter case: "+cliutil.PolicyNames)
		durMS    = flag.Int("duration", 200, "simulated milliseconds per generated job")
		clients  = flag.Int("clients", 8, "concurrent clients")
		sweeps   = flag.Int("sweeps", 0, "total sweep requests (0 = max(clients, chunks))")
		batch    = flag.Int("batch", 0, "specs per sweep (0 = whole corpus per sweep)")
		rate     = flag.Float64("rate", 0, "aggregate launch rate in sweeps/s (0 = unpaced)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request budget")
		retries  = flag.Int("retries", 8, "max 503 retries per request")
		out      = flag.String("out", "", "write collected stream lines (canonical order) to this file")
		stats    = flag.Bool("stats", false, "fetch /v1/stats afterwards and print one machine-readable line")
	)
	flag.Parse()

	specs, err := corpus(*specsDir, *gen, *seed, *policies, *durMS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepload: %v\n", err)
		return 1
	}
	fmt.Printf("sweepload: %d specs against %s (%d clients)\n", len(specs), *addr, *clients)

	ctx, stop := cliutil.InterruptContext(context.Background())
	defer stop()

	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:      strings.TrimRight(*addr, "/"),
		Specs:        specs,
		Clients:      *clients,
		Sweeps:       *sweeps,
		JobsPerSweep: *batch,
		Rate:         *rate,
		Timeout:      *timeout,
		MaxRetries:   *retries,
		Collect:      *out != "",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepload: %v\n", err)
		return 1
	}
	fmt.Println(rep)

	if *out != "" {
		if err := writeCanonical(*out, rep.Outcomes); err != nil {
			fmt.Fprintf(os.Stderr, "sweepload: %v\n", err)
			return 1
		}
	}
	if *stats {
		if err := printStats(ctx, strings.TrimRight(*addr, "/")); err != nil {
			fmt.Fprintf(os.Stderr, "sweepload: stats: %v\n", err)
			return 1
		}
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return cliutil.ExitInterrupt
	}
	if rep.Failures() > 0 {
		fmt.Fprintf(os.Stderr, "sweepload: %d failed sweeps/jobs\n", rep.Failures())
		return 1
	}
	return 0
}

// corpus builds the spec list: from a directory of JSON files, or from
// the workload generator crossed round-robin with the policy list.
func corpus(dir string, gen int, seed uint64, policyList string, durMS int) ([]sysscale.JobSpec, error) {
	if dir != "" {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no *.json specs in %s", dir)
		}
		sort.Strings(paths)
		specs := make([]sysscale.JobSpec, 0, len(paths))
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			js, err := sysscale.ReadJobSpec(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			specs = append(specs, js)
		}
		return specs, nil
	}
	if gen <= 0 {
		return nil, fmt.Errorf("need -specs dir or -gen N")
	}
	var pols []sysscale.Policy
	for _, name := range strings.Split(policyList, ",") {
		p, err := cliutil.Policy(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}
	workloads := sysscale.GenerateWorkloads(sysscale.DefaultGenConfig(seed), gen)
	specs := make([]sysscale.JobSpec, 0, gen)
	for i, w := range workloads {
		cfg := sysscale.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = pols[i%len(pols)]
		cfg.Duration = sysscale.Time(durMS) * sysscale.Millisecond
		js, err := sysscale.EncodeSpec(cfg)
		if err != nil {
			return nil, fmt.Errorf("encode generated job %d: %w", i, err)
		}
		specs = append(specs, js)
	}
	return specs, nil
}

// writeCanonical dumps collected stream lines in a run-independent
// order: requests in submission order, each request's lines sorted by
// job index with the Done marker last. Two runs over the same corpus
// and a warm cache produce byte-identical files.
func writeCanonical(path string, outcomes [][]loadgen.Line) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, lines := range outcomes {
		sorted := append([]loadgen.Line(nil), lines...)
		sort.SliceStable(sorted, func(i, j int) bool {
			di, dj := sorted[i].Done != nil, sorted[j].Done != nil
			if di != dj {
				return dj // Done sorts last
			}
			return sorted[i].Index < sorted[j].Index
		})
		for _, ln := range sorted {
			f.Write(ln.Raw)
			f.Write([]byte("\n"))
		}
	}
	return f.Close()
}

// printStats fetches /v1/stats and prints it as one "stats: {...}"
// line for scripts (the CI smoke greps cache counters out of it).
func printStats(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	var compact json.RawMessage
	if err := json.Unmarshal(b, &compact); err != nil {
		return fmt.Errorf("bad stats body: %w", err)
	}
	fmt.Printf("stats: %s\n", strings.TrimSpace(string(compact)))
	return nil
}

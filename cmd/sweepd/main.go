// Command sweepd serves the simulation engine over HTTP: submit a job
// spec and get its result, submit a sweep and stream results back as
// NDJSON, cancel mid-flight, and read the cache/robustness counters —
// the what-if capacity/energy-planning API shape of ROADMAP item 1.
//
// Usage:
//
//	sweepd [-addr 127.0.0.1:8080] [-parallel N] [-cache-dir dir/]
//	       [-max-sweeps N] [-max-specs N] [-max-body bytes]
//	       [-job-timeout 60s] [-drain 15s]
//
// API (see internal/sweepd for the full contract):
//
//	POST   /v1/jobs         one job spec → its result (synchronous)
//	POST   /v1/sweeps       JSON array of specs → NDJSON result stream
//	DELETE /v1/sweeps/{id}  cancel (id from the Sweep-Id response header)
//	GET    /v1/stats        engine + server counters as JSON
//	GET    /healthz         readiness probe
//
// Admission control: at most -max-sweeps requests execute at once
// (beyond that the server answers 503 with Retry-After instead of
// queueing), a sweep carries at most -max-specs specs, request bodies
// are capped at -max-body bytes, and each job's wall time is bounded
// by -job-timeout. -cache-dir layers the shared persistent result
// cache under the in-memory tier, so a fleet of sweepd processes
// pointed at one directory computes each distinct config once.
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight
// sweeps for up to -drain, then force-closes and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"sysscale"
	"sysscale/internal/cliutil"
	"sysscale/internal/sweepd"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		parallel  = flag.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache-dir", "", "persistent on-disk result cache directory (shared across the fleet)")
		cacheSize = flag.Int("cache-size", 0, "in-memory result cache entries (0 = default)")
		maxSweeps = flag.Int("max-sweeps", 0, "max concurrently admitted requests; beyond it the server answers 503 (0 = 2×GOMAXPROCS)")
		maxSpecs  = flag.Int("max-specs", sweepd.DefaultMaxSpecsPerSweep, "max specs per sweep")
		maxBody   = flag.Int64("max-body", sweepd.DefaultMaxBodyBytes, "max request body bytes")
		jobTO     = flag.Duration("job-timeout", 60*time.Second, "per-job wall-time budget (0 = unbounded)")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight sweeps")
	)
	flag.Parse()

	opts := []sysscale.EngineOption{
		sysscale.WithParallelism(*parallel),
		sysscale.WithCacheSize(*cacheSize),
		sysscale.WithJobTimeout(*jobTO),
	}
	if *cacheDir != "" {
		opts = append(opts, sysscale.WithDiskCache(*cacheDir))
	}
	eng := sysscale.NewEngine(opts...)
	if err := eng.DiskCacheError(); err != nil {
		fmt.Fprintf(os.Stderr, "cache-dir: %v\n", err)
		return 1
	}

	handler := sweepd.New(sweepd.Config{
		Engine:              eng,
		MaxConcurrentSweeps: *maxSweeps,
		MaxSpecsPerSweep:    *maxSpecs,
		MaxBodyBytes:        *maxBody,
	})

	ctx, stop := cliutil.InterruptContext(context.Background())
	defer stop()

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Streaming responses forbid a blanket WriteTimeout; reads are
		// bounded instead (bodies are capped, decoding is quick).
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("sweepd: serving on http://%s (parallelism %d, max %d concurrent requests)\n",
		*addr, eng.Parallelism(), defaultMaxSweeps(*maxSweeps))

	select {
	case err := <-errc:
		// ListenAndServe never returns nil; reaching here without a
		// signal means the listener died.
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight sweeps stream to completion
	// within the budget, then cut the survivors (their per-request
	// contexts cancel and the engine unwinds within one policy epoch).
	fmt.Fprintln(os.Stderr, "sweepd: interrupt; draining in-flight sweeps")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: drain budget exceeded, force-closing: %v\n", err)
		srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
	}
	return cliutil.ExitInterrupt
}

// defaultMaxSweeps reports the effective admission bound for the
// startup banner.
func defaultMaxSweeps(flagged int) int {
	if flagged > 0 {
		return flagged
	}
	return sweepd.DefaultMaxConcurrentSweeps()
}

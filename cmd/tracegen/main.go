// Command tracegen emits workload demand traces as JSON: either the
// phase definitions themselves or a sampled bandwidth-over-time series
// (the data behind Figs. 2(c) and 3(a)).
//
// Usage:
//
//	tracegen -workload 470.lbm            # phase definitions
//	tracegen -workload 473.astar -series  # sampled GB/s series
//	tracegen -synthetic 50 -class cpu-st  # synthetic sweep workloads
//	tracegen -gen 100 -seed 3             # stochastic scenario trace
//	tracegen -gen 100 -seed 3 -phases 12  # ... with 12 phases each
//	tracegen -workload 470.lbm -spec      # runnable job spec
//	tracegen -gen 20 -seed 3 -spec -index 4 -policy coscale
//
// -gen emits a replayable scenario trace: the workloads generated by
// the Markov-model generator (internal/workload/gen) plus the
// generator config that produced them, so the file is self-verifying
// (gen.Trace.Replay / sysscale.ReadWorkloadTrace).
//
// -spec emits a serialized job spec instead of bare workload JSON: the
// default platform and run parameters around the selected workload and
// -policy, directly runnable via `sysscale -spec` or
// `experiments -specs`. With -workload the spec references the
// built-in by name; with -gen it embeds the generated trace and picks
// the -index entry, so the job file carries its own provenance.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"flag"

	"sysscale"
	"sysscale/internal/cliutil"
	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to dump")
		series    = flag.Bool("series", false, "emit a sampled bandwidth series instead of phases")
		stepMS    = flag.Int("step", 100, "series sample step in milliseconds")
		synthetic = flag.Int("synthetic", 0, "emit N synthetic workloads instead")
		class     = flag.String("class", "cpu-st", "synthetic class: cpu-st | cpu-mt | graphics")
		seed      = flag.Uint64("seed", 1, "synthetic / stochastic generator seed")
		genN      = flag.Int("gen", 0, "emit a replayable trace of N stochastically generated workloads")
		phases    = flag.Int("phases", 0, "phases per generated workload (0 = default)")
		asSpec    = flag.Bool("spec", false, "emit a runnable job spec instead of bare workload JSON")
		polName   = flag.String("policy", "sysscale", "policy for -spec: "+cliutil.PolicyNames)
		index     = flag.Int("index", 0, "trace workload the -gen -spec job runs")
	)
	flag.Parse()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	if *genN > 0 {
		cfg := sysscale.DefaultGenConfig(*seed)
		if *phases > 0 {
			cfg.Phases = *phases
		}
		t := sysscale.NewWorkloadTrace(cfg, *genN)
		if *asSpec {
			if err := emitTraceSpec(t, *index, *polName); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		if err := sysscale.WriteWorkloadTrace(os.Stdout, t); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *synthetic > 0 {
		if *asSpec {
			fmt.Fprintln(os.Stderr, "-spec applies to -workload or -gen, not -synthetic")
			os.Exit(1)
		}
		var cl workload.Class
		switch strings.ToLower(*class) {
		case "cpu-st":
			cl = workload.CPUSingleThread
		case "cpu-mt":
			cl = workload.CPUMultiThread
		case "graphics":
			cl = workload.Graphics
		default:
			fmt.Fprintf(os.Stderr, "unknown class %q\n", *class)
			os.Exit(1)
		}
		ws := workload.Synthetic(workload.SyntheticSpec{Class: cl, Count: *synthetic, Seed: *seed})
		if err := enc.Encode(ws); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *wlName == "" {
		fmt.Fprintln(os.Stderr, "need -workload or -synthetic")
		os.Exit(1)
	}
	w, err := sysscale.BuiltinWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *asSpec {
		if err := emitBuiltinSpec(w, *polName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *series {
		step := sim.Time(*stepMS) * sim.Millisecond
		samples := w.BWOverTime(step)
		type point struct {
			TimeMS float64 `json:"time_ms"`
			GBps   float64 `json:"gbps"`
		}
		out := make([]point, len(samples))
		for i, s := range samples {
			out[i] = point{TimeMS: float64(i * *stepMS), GBps: s / 1e9}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := enc.Encode(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// specFor serializes the default platform and run parameters around w
// and the named policy, then lets the caller swap the workload
// reference to a non-inline form before writing.
func specFor(w sysscale.Workload, polName string) (sysscale.JobSpec, error) {
	pol, err := cliutil.Policy(polName)
	if err != nil {
		return sysscale.JobSpec{}, err
	}
	cfg := sysscale.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = pol
	return sysscale.EncodeSpec(cfg)
}

// emitBuiltinSpec writes a job spec referencing the built-in by name —
// the readable form; it decodes (and fingerprints) identically to the
// inlined one.
func emitBuiltinSpec(w sysscale.Workload, polName string) error {
	job, err := specFor(w, polName)
	if err != nil {
		return err
	}
	job.Workload = sysscale.WorkloadSpec{Builtin: w.Name}
	return sysscale.WriteJobSpec(os.Stdout, job)
}

// emitTraceSpec writes a job spec embedding the generated trace and
// selecting its index-th workload, so the job file carries the
// generator provenance alongside the exact phases it runs.
func emitTraceSpec(t sysscale.WorkloadTrace, index int, polName string) error {
	if index < 0 || index >= len(t.Workloads) {
		return fmt.Errorf("-index %d out of range (trace has %d workloads)", index, len(t.Workloads))
	}
	job, err := specFor(t.Workloads[index], polName)
	if err != nil {
		return err
	}
	job.Workload = sysscale.WorkloadSpec{Trace: &sysscale.TraceSpec{Index: index, Trace: t}}
	return sysscale.WriteJobSpec(os.Stdout, job)
}

// Command benchgate is the benchmark-regression gate: it parses
// `go test -bench` output and compares ns/op and allocs/op against a
// committed baseline snapshot, failing when a gated benchmark
// regresses beyond the tolerance.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | go run ./cmd/benchgate -baseline BENCH_baseline.json
//	go test -run '^$' -bench ... -benchmem ./... | go run ./cmd/benchgate -baseline BENCH_baseline.json -update
//
// The baseline records one entry per benchmark (ns/op + allocs/op)
// plus a trajectory of historical measurements. -update rewrites the
// current entries (appending the previous ones to the trajectory);
// without it, any gated benchmark whose measured ns/op exceeds
// baseline × (1 + tolerance) fails the gate with exit status 1.
// Benchmarks present in the input but not in the baseline are
// reported and pass (the gate only guards known trajectories); a
// baseline entry missing from the input fails the gate, so a renamed
// or dropped benchmark cannot fall out of it silently.
//
// Absolute ns/op only compares within one machine class. For CI —
// where the runner is not the machine that recorded the baseline —
// -calibrate names a calibration benchmark measured in the same run;
// every measured ns/op is scaled by baselineCal/measuredCal before
// comparison, so the gate tests the machine-relative ratio rather than
// raw nanoseconds. The reference must run no repository code, or a
// change that speeds that code up rescales every other entry: CI uses
// BenchmarkCalibrate (calibrate_test.go), a standard-library-only loop.
//
// allocs/op is gated independently (-alloc-tolerance): allocation
// counts are machine-independent — the same binary allocates the same
// on every machine — so they are compared raw, never calibrated,
// making the alloc gate the one check that is exact even on shared CI
// runners. A gated benchmark fails when its measured allocs/op exceed
// baseline × (1 + alloc-tolerance) + 1; the +1 absorbs sync.Pool
// cold-start jitter on near-zero counts while staying negligible at
// realistic ones. Benchmarks whose input carries no allocs/op field
// (run without -benchmem) skip the alloc gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded performance. AllocsPerOp is -1
// when the run carried no allocation data (no -benchmem), which
// disables the alloc gate for that entry.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed snapshot the gate compares against.
type Baseline struct {
	// Note documents how the numbers were taken (machine, benchtime).
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name (without the -GOMAXPROCS suffix)
	// to its gated numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Trajectory preserves earlier snapshots, newest last, so the
	// performance history of the hot paths stays in the repository.
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
}

// TrajectoryPoint is one historical snapshot.
type TrajectoryPoint struct {
	Label      string           `json:"label"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkTickLoopSteadyState-8   20496   118640 ns/op   7210 B/op   97 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)

func parseBench(lines *bufio.Scanner) map[string]Entry {
	out := make(map[string]Entry)
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := Entry{NsPerOp: ns, AllocsPerOp: -1}
		if a := allocsField.FindStringSubmatch(m[3]); a != nil {
			e.AllocsPerOp, _ = strconv.ParseFloat(a[1], 64)
		}
		// Repeated benchmarks (several packages, -count>1): keep the
		// fastest run, the standard noise-robust choice.
		if prev, ok := out[m[1]]; !ok || ns < prev.NsPerOp {
			out[m[1]] = e
		}
	}
	return out
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline snapshot path")
	update := flag.Bool("update", false, "rewrite the baseline from the measured numbers")
	label := flag.String("label", "", "trajectory label used with -update (e.g. \"PR 5\")")
	tolerance := flag.Float64("tolerance", 0.25, "allowed ns/op regression fraction before the gate fails")
	allocTolerance := flag.Float64("alloc-tolerance", 0.05, "allowed allocs/op regression fraction (never calibrated; +1 absolute slack)")
	calibrate := flag.String("calibrate", "", "benchmark used to normalize for machine speed (must be in the baseline and the input)")
	flag.Parse()

	measured := parseBench(bufio.NewScanner(os.Stdin))
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(1)
	}

	var base Baseline
	raw, err := os.ReadFile(*baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parse %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
	case os.IsNotExist(err) && *update:
		// First snapshot.
	default:
		fmt.Fprintf(os.Stderr, "benchgate: read %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}

	if *update {
		if base.Benchmarks != nil {
			base.Trajectory = append(base.Trajectory, TrajectoryPoint{Label: base.Note, Benchmarks: base.Benchmarks})
		}
		base.Benchmarks = measured
		if *label != "" {
			base.Note = *label
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(measured))
		return
	}

	// Machine-speed normalization: scale every measurement by how much
	// slower/faster this machine ran the calibration benchmark than the
	// machine that recorded the baseline.
	scale := 1.0
	if *calibrate != "" {
		if scale, err = calibration(measured, base.Benchmarks, *calibrate); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  calibrated by %s: this machine is %.2fx the baseline machine\n", *calibrate, 1/scale)
	}

	verdicts, failed := compare(measured, base.Benchmarks, scale, *tolerance, *allocTolerance)
	for _, v := range verdicts {
		switch {
		case v.Missing:
			fmt.Printf("  %-40s %12s        baseline %12.0f  %s\n", v.Name, "-", v.Want.NsPerOp, v.Status)
		case !v.Gated:
			fmt.Printf("  %-40s %12.0f ns/op  (ungated: not in baseline)\n", v.Name, v.Got.NsPerOp)
		default:
			fmt.Printf("  %-40s %12.0f ns/op  baseline %12.0f  (%+.1f%%, allocs %.0f vs %.0f) %s\n",
				v.Name, v.Got.NsPerOp, v.Want.NsPerOp, 100*(v.Ratio-1), v.Got.AllocsPerOp, v.Want.AllocsPerOp, v.Status)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: fail against %s: regression beyond ns tolerance %.0f%% / alloc tolerance %.0f%%, or a baseline entry missing from the input\n",
			*baselinePath, 100**tolerance, 100**allocTolerance)
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}

// calibration returns the factor that converts this run's ns/op to the
// baseline machine's: the baseline's ns/op for the calibration
// benchmark over this run's.
func calibration(measured, baseline map[string]Entry, name string) (float64, error) {
	got, okGot := measured[name]
	want, okWant := baseline[name]
	if !okGot || !okWant || got.NsPerOp <= 0 {
		return 0, fmt.Errorf("calibration benchmark %s missing from input or baseline", name)
	}
	return want.NsPerOp / got.NsPerOp, nil
}

// Verdict is the gate's finding for one benchmark.
type Verdict struct {
	Name      string
	Got, Want Entry
	// Gated is false for a benchmark the baseline does not know;
	// Missing is true for a baseline entry absent from the input.
	Gated, Missing bool
	// Ratio is the calibrated ns/op over the baseline's.
	Ratio  float64
	Status string
	Failed bool
}

// compare gates every benchmark in measured or baseline, in name
// order, and reports whether any failed. A measured ns/op is scaled by
// scale (see calibration) and fails above baseline × (1 + tol); allocs
// are compared raw and fail above baseline × (1 + allocTol) + 1 when
// both sides carry them; a baseline entry the input lacks fails.
func compare(measured, baseline map[string]Entry, scale, tol, allocTol float64) ([]Verdict, bool) {
	names := make([]string, 0, len(measured)+len(baseline))
	for n := range measured {
		names = append(names, n)
	}
	for n := range baseline {
		if _, ok := measured[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var out []Verdict
	failed := false
	for _, name := range names {
		got, measuredOK := measured[name]
		want, gated := baseline[name]
		v := Verdict{Name: name, Got: got, Want: want, Gated: gated, Status: "ok"}
		switch {
		case !gated:
			v.Status = "ungated"
		case !measuredOK:
			v.Missing, v.Failed = true, true
			v.Status = "MISSING from input"
		default:
			v.Ratio = got.NsPerOp * scale / want.NsPerOp
			if v.Ratio > 1+tol {
				v.Status, v.Failed = "ns REGRESSION", true
			}
			// Alloc counts are deterministic and machine-independent:
			// gate them raw (no calibration), whenever both sides
			// measured them.
			if got.AllocsPerOp >= 0 && want.AllocsPerOp >= 0 &&
				got.AllocsPerOp > want.AllocsPerOp*(1+allocTol)+1 {
				v.Status, v.Failed = "allocs REGRESSION", true
			}
		}
		failed = failed || v.Failed
		out = append(out, v)
	}
	return out, failed
}

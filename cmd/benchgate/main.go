// Command benchgate is the benchmark-regression gate: it judges a
// change against its parent commit from paired `go test -bench` runs.
//
//	cmd/benchgate/rounds.sh PARENT_DIR CHANGE_DIR OUT_DIR
//	go run ./cmd/benchgate -parent OUT_DIR/parent.out < OUT_DIR/change.out
//	go run ./cmd/benchgate -update -label "..." < OUT_DIR/change.out
//
// Reading r of a benchmark on one side is paired with reading r on the
// other; rounds.sh takes both in round r. A benchmark fails on ns/op
// when the median per-round ratio (change ÷ parent) exceeds
// 1 + tolerance and the change is slower in at least ⌈0.9·N⌉ of the N
// rounds: either test alone trips on a shared host's noise. It fails on
// allocs/op when the change's median exceeds the parent's ×
// (1 + alloc-tolerance) + 1, the +1 absorbing sync.Pool jitter on
// near-zero counts; a side run without -benchmem skips that test. A
// parent benchmark the change lacks fails, so a renamed one cannot drop
// out; one only the change ran is ungated. Unequal round counts fail.
//
// -update appends the medians of the rounds on stdin to the trajectory
// record in -baseline; the gate never reads that file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark's performance. AllocsPerOp is -1 when the run
// carried no allocation data (no -benchmem), which disables the alloc
// gate for that entry.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed performance trajectory.
type Baseline struct {
	// Note documents how the newest point was taken (machine, benchtime).
	Note string `json:"note,omitempty"`
	// Benchmarks is the newest point: benchmark name (without the
	// -GOMAXPROCS suffix) to its numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Trajectory preserves earlier points, newest last, so the
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

// parseBench returns every reading of each benchmark, in input order:
// with rounds.sh's output, reading r is round r.
func parseBench(lines *bufio.Scanner) map[string][]Entry {
	out := make(map[string][]Entry)
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
		out[m[1]] = append(out[m[1]], e)
	}
	return out
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "trajectory record that -update appends to")
	update := flag.Bool("update", false, "append the medians of the rounds on stdin to the trajectory record")
	label := flag.String("label", "", "trajectory label used with -update (e.g. \"PR 5\")")
	parentPath := flag.String("parent", "", "the parent commit's benchmark output, paired round by round with stdin")
	tolerance := flag.Float64("tolerance", 0.10, "allowed median ns/op regression fraction")
	allocTolerance := flag.Float64("alloc-tolerance", 0.05, "allowed allocs/op regression fraction (+1 absolute slack)")
	flag.Parse()

	change := parseBench(bufio.NewScanner(os.Stdin))
	if len(change) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(1)
	}
	if *update {
		if err := appendTrajectory(*baselinePath, *label, change); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: %s updated with %d benchmarks\n", *baselinePath, len(change))
		return
	}
	if *parentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -parent or -update is required")
		os.Exit(2)
	}
	f, err := os.Open(*parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	parent := parseBench(bufio.NewScanner(f))
	f.Close()

	verdicts, failed := compare(change, parent, *tolerance, *allocTolerance)
	for _, v := range verdicts {
		switch {
		case v.Missing:
			fmt.Printf("  %-40s %12s        parent %12.0f  %s\n", v.Name, "-", v.Want.NsPerOp, v.Status)
		case !v.Gated:
			fmt.Printf("  %-40s %12.0f ns/op  (ungated: not in parent)\n", v.Name, v.Got.NsPerOp)
		default:
			fmt.Printf("  %-40s %12.0f ns/op  parent %12.0f  (median ratio %+.1f%%, slower in %d/%d, allocs %.0f vs %.0f) %s\n",
				v.Name, v.Got.NsPerOp, v.Want.NsPerOp, 100*(v.Ratio-1), v.Slower, v.Rounds, v.Got.AllocsPerOp, v.Want.AllocsPerOp, v.Status)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: fail against %s: regression beyond ns tolerance %.0f%% / alloc tolerance %.0f%%, a parent entry missing from the change, or unequal rounds\n",
			*parentPath, 100**tolerance, 100**allocTolerance)
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}

// appendTrajectory makes the medians of readings the newest point of
// the trajectory record at path, moving the previous newest point into
// the history.
func appendTrajectory(path, label string, readings map[string][]Entry) error {
	var base Baseline
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	if base.Benchmarks != nil {
		base.Trajectory = append(base.Trajectory, TrajectoryPoint{Label: base.Note, Benchmarks: base.Benchmarks})
	}
	base.Benchmarks = make(map[string]Entry, len(readings))
	for name, es := range readings {
		base.Benchmarks[name] = medianEntry(es)
	}
	if label != "" {
		base.Note = label
	}
	out, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianEntry returns the medians of the readings' ns/op and allocs/op.
func medianEntry(es []Entry) Entry {
	var ns, allocs []float64
	for _, e := range es {
		ns, allocs = append(ns, e.NsPerOp), append(allocs, e.AllocsPerOp)
	}
	return Entry{NsPerOp: median(ns), AllocsPerOp: median(allocs)}
}

// Verdict is the gate's finding for one benchmark.
type Verdict struct {
	Name      string
	Got, Want Entry // the change's and the parent's medians
	// Gated is false for a benchmark the parent lacks; Missing is true
	// for a parent benchmark the change lacks.
	Gated, Missing bool
	// Ratio is the median per-round ratio of the change's ns/op to the
	// parent's; Slower counts the Rounds in which the change was slower.
	Ratio          float64
	Slower, Rounds int
	Status         string
	Failed         bool
}

// compare gates every benchmark in change or parent, in name order, and
// reports whether any failed (see the package comment for the rules).
func compare(change, parent map[string][]Entry, tol, allocTol float64) ([]Verdict, bool) {
	both := maps.Clone(parent)
	maps.Copy(both, change)
	names := slices.Sorted(maps.Keys(both))

	var out []Verdict
	failed := false
	for _, name := range names {
		got, inChange := change[name]
		want, gated := parent[name]
		v := Verdict{Name: name, Got: medianEntry(got), Want: medianEntry(want), Gated: gated, Status: "ok"}
		switch {
		case !gated:
			v.Status = "ungated"
		case !inChange:
			v.Missing, v.Failed = true, true
			v.Status = "MISSING from change"
		case len(got) != len(want):
			v.Failed = true
			v.Status = fmt.Sprintf("ROUNDS differ: %d against %d", len(got), len(want))
		default:
			v.Rounds = len(got)
			ratios := make([]float64, v.Rounds)
			for r := range ratios {
				ratios[r] = got[r].NsPerOp / want[r].NsPerOp
				if ratios[r] > 1 {
					v.Slower++
				}
			}
			v.Ratio = median(ratios)
			// ⌈0.9·N⌉ in integer arithmetic.
			if v.Ratio > 1+tol && v.Slower >= (9*v.Rounds+9)/10 {
				v.Status, v.Failed = "ns REGRESSION", true
			}
			if v.Got.AllocsPerOp >= 0 && v.Want.AllocsPerOp >= 0 &&
				v.Got.AllocsPerOp > v.Want.AllocsPerOp*(1+allocTol)+1 {
				v.Status, v.Failed = "allocs REGRESSION", true
			}
		}
		failed = failed || v.Failed
		out = append(out, v)
	}
	return out, failed
}

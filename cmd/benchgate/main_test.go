package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// readings returns one Entry per round with the given ns/op and allocs.
func readings(allocs float64, ns ...float64) []Entry {
	es := make([]Entry, len(ns))
	for i, n := range ns {
		es[i] = Entry{NsPerOp: n, AllocsPerOp: allocs}
	}
	return es
}

// repeat returns n copies of x.
func repeat(x float64, n int) []float64 { return slices.Repeat([]float64{x}, n) }

// TestCompare pins the gate's verdicts on paired rounds: a median ratio
// over the tolerance fails only when the change is slower in at least
// nine of ten rounds; allocs compare medians with the +1 slack; and the
// treatment of benchmarks on one side only and of unequal rounds.
func TestCompare(t *testing.T) {
	const tol, allocTol = 0.10, 0.05
	parent := map[string][]Entry{"BenchmarkA": readings(100, repeat(1000, 10)...)}
	for _, c := range []struct {
		name   string
		change map[string][]Entry
		parent map[string][]Entry
		status string
		fail   bool
	}{
		{"equal", parent, parent, "ok", false},
		{"at ns tolerance", map[string][]Entry{"BenchmarkA": readings(100, repeat(1100, 10)...)}, parent, "ok", false},
		{"over ns tolerance", map[string][]Entry{"BenchmarkA": readings(100, repeat(1101, 10)...)}, parent, "ns REGRESSION", true},
		{"faster", map[string][]Entry{"BenchmarkA": readings(100, repeat(10, 10)...)}, parent, "ok", false},
		// The median ratio is 1.2 in both; only the count of slower
		// rounds differs.
		{"slower in 8 of 10", map[string][]Entry{"BenchmarkA": readings(100, append(repeat(1200, 8), 900, 900)...)}, parent, "ok", false},
		{"slower in 9 of 10", map[string][]Entry{"BenchmarkA": readings(100, append(repeat(1200, 9), 900)...)}, parent, "ns REGRESSION", true},
		// Rounds are paired: a host that slows down for the last rounds
		// slows both sides.
		{"paired drift", map[string][]Entry{"BenchmarkA": readings(100, append(repeat(1000, 5), repeat(2000, 5)...)...)},
			map[string][]Entry{"BenchmarkA": readings(100, append(repeat(1000, 5), repeat(2000, 5)...)...)}, "ok", false},
		// 100·1.05 + 1 = 106 allocs are allowed, 107 are not.
		{"at alloc slack", map[string][]Entry{"BenchmarkA": readings(106, repeat(1000, 10)...)}, parent, "ok", false},
		{"over alloc slack", map[string][]Entry{"BenchmarkA": readings(107, repeat(1000, 10)...)}, parent, "allocs REGRESSION", true},
		{"zero-alloc slack of one", map[string][]Entry{"BenchmarkA": readings(1, 1000)}, map[string][]Entry{"BenchmarkA": readings(0, 1000)}, "ok", false},
		{"zero-alloc regression", map[string][]Entry{"BenchmarkA": readings(2, 1000)}, map[string][]Entry{"BenchmarkA": readings(0, 1000)}, "allocs REGRESSION", true},
		// The input is the change's readings, the baseline the parent's.
		{"no -benchmem in input", map[string][]Entry{"BenchmarkA": readings(-1, repeat(1000, 10)...)}, parent, "ok", false},
		{"no allocs in baseline", map[string][]Entry{"BenchmarkA": readings(900, repeat(1000, 10)...)}, map[string][]Entry{"BenchmarkA": readings(-1, repeat(1000, 10)...)}, "ok", false},
		{"missing from input", map[string][]Entry{"BenchmarkB": readings(100, 1000)}, parent, "MISSING from change", true},
		{"not in baseline", map[string][]Entry{"BenchmarkA": parent["BenchmarkA"], "BenchmarkB": readings(9e9, 9e9)}, parent, "ok", false},
		{"unequal rounds", map[string][]Entry{"BenchmarkA": readings(100, repeat(1000, 9)...)}, parent, "ROUNDS differ: 9 against 10", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			verdicts, failed := compare(c.change, c.parent, tol, allocTol)
			if failed != c.fail {
				t.Errorf("failed = %v, want %v (%+v)", failed, c.fail, verdicts)
			}
			var a *Verdict
			for i := range verdicts {
				if verdicts[i].Name == "BenchmarkA" {
					a = &verdicts[i]
				}
			}
			if a == nil {
				t.Fatalf("no verdict for the parent entry: %+v", verdicts)
			}
			if a.Status != c.status || a.Failed != c.fail {
				t.Errorf("verdict = %q (failed %v), want %q (failed %v)", a.Status, a.Failed, c.status, c.fail)
			}
		})
	}
}

// TestCompareOrderAndUngated: verdicts come in name order and a
// benchmark the parent lacks is reported but never fails.
func TestCompareOrderAndUngated(t *testing.T) {
	change := map[string][]Entry{"BenchmarkC": readings(1, 1), "BenchmarkA": readings(1, 1)}
	parent := map[string][]Entry{"BenchmarkA": readings(1, 1), "BenchmarkB": readings(1, 1)}
	verdicts, failed := compare(change, parent, 0.10, 0.05)
	if !failed {
		t.Error("missing BenchmarkB did not fail the gate")
	}
	var got []string
	for _, v := range verdicts {
		got = append(got, v.Name+":"+v.Status)
	}
	want := "BenchmarkA:ok BenchmarkB:MISSING from change BenchmarkC:ungated"
	if strings.Join(got, " ") != want {
		t.Errorf("verdicts = %q, want %q", strings.Join(got, " "), want)
	}
}

// TestParseBench: the -GOMAXPROCS suffix is dropped, non-result lines
// are ignored, and every reading of a benchmark is kept in input order
// together with its allocs.
func TestParseBench(t *testing.T) {
	in := `goos: linux
BenchmarkA-2   	     100	      2000 ns/op	     512 B/op	       5 allocs/op
BenchmarkB   	    1000	      12.5 ns/op
BenchmarkA-2   	     100	      1500 ns/op	     512 B/op	       7 allocs/op
BenchmarkC-8   	      10	    700000 ns/op	  116.34 MB/s	  336068 B/op	     156 allocs/op
BenchmarkA-2   	     100	      1800 ns/op	     512 B/op	       3 allocs/op
PASS
ok  	pkg	1.0s
`
	got := parseBench(bufio.NewScanner(strings.NewReader(in)))
	want := map[string][]Entry{
		"BenchmarkA": {{2000, 5}, {1500, 7}, {1800, 3}},
		"BenchmarkB": {{12.5, -1}},
		"BenchmarkC": {{700000, 156}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
}

// TestAppendTrajectory: -update records the medians of the rounds as
// the newest point and moves the previous one into the trajectory.
func TestAppendTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	first := appendTrajectory(path, "first", map[string][]Entry{"BenchmarkA": readings(4, 30, 10, 20)})
	second := appendTrajectory(path, "second", map[string][]Entry{"BenchmarkA": {{10, 2}, {40, 3}}, "BenchmarkB": readings(-1, 5)})
	raw, err := os.ReadFile(path)
	var base Baseline
	if err := errors.Join(first, second, err, json.Unmarshal(raw, &base)); err != nil {
		t.Fatal(err)
	}
	want := Baseline{
		Note:       "second",
		Benchmarks: map[string]Entry{"BenchmarkA": {25, 2.5}, "BenchmarkB": {5, -1}},
		Trajectory: []TrajectoryPoint{{Label: "first", Benchmarks: map[string]Entry{"BenchmarkA": {20, 4}}}},
	}
	if !reflect.DeepEqual(base, want) {
		t.Errorf("record = %+v, want %+v", base, want)
	}
}

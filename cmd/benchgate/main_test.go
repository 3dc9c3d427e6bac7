package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestCompare pins the gate's verdicts: the ns tolerance after
// calibration, the raw alloc rule got > want·(1+tol)+1, and the
// treatment of benchmarks on only one side.
func TestCompare(t *testing.T) {
	const tol, allocTol = 0.25, 0.05
	base := map[string]Entry{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100}}
	for _, c := range []struct {
		name     string
		measured map[string]Entry
		baseline map[string]Entry
		scale    float64
		status   string
		fail     bool
	}{
		{"equal", map[string]Entry{"BenchmarkA": {1000, 100}}, base, 1, "ok", false},
		{"at ns tolerance", map[string]Entry{"BenchmarkA": {1250, 100}}, base, 1, "ok", false},
		{"over ns tolerance", map[string]Entry{"BenchmarkA": {1251, 100}}, base, 1, "ns REGRESSION", true},
		{"faster", map[string]Entry{"BenchmarkA": {10, 100}}, base, 1, "ok", false},
		// A machine twice as slow (scale 0.5) may take twice the ns.
		{"calibrated slow machine", map[string]Entry{"BenchmarkA": {2400, 100}}, base, 0.5, "ok", false},
		{"calibrated regression", map[string]Entry{"BenchmarkA": {2600, 100}}, base, 0.5, "ns REGRESSION", true},
		{"calibration on a fast machine", map[string]Entry{"BenchmarkA": {700, 100}}, base, 2, "ns REGRESSION", true},
		// 100·1.05 + 1 = 106 allocs are allowed, 107 are not.
		{"at alloc slack", map[string]Entry{"BenchmarkA": {1000, 106}}, base, 1, "ok", false},
		{"over alloc slack", map[string]Entry{"BenchmarkA": {1000, 107}}, base, 1, "allocs REGRESSION", true},
		{"allocs never calibrated", map[string]Entry{"BenchmarkA": {500, 107}}, base, 2, "allocs REGRESSION", true},
		{"zero-alloc slack of one", map[string]Entry{"BenchmarkA": {1000, 1}}, map[string]Entry{"BenchmarkA": {1000, 0}}, 1, "ok", false},
		{"zero-alloc regression", map[string]Entry{"BenchmarkA": {1000, 2}}, map[string]Entry{"BenchmarkA": {1000, 0}}, 1, "allocs REGRESSION", true},
		{"no -benchmem in input", map[string]Entry{"BenchmarkA": {1000, -1}}, base, 1, "ok", false},
		{"no allocs in baseline", map[string]Entry{"BenchmarkA": {1000, 900}}, map[string]Entry{"BenchmarkA": {1000, -1}}, 1, "ok", false},
		{"missing from input", map[string]Entry{"BenchmarkB": {1000, 100}}, base, 1, "MISSING from input", true},
		{"not in baseline", map[string]Entry{"BenchmarkA": {1000, 100}, "BenchmarkB": {9e9, 9e9}}, base, 1, "ok", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			verdicts, failed := compare(c.measured, c.baseline, c.scale, tol, allocTol)
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
				t.Fatalf("no verdict for the baseline entry: %+v", verdicts)
			}
			if a.Status != c.status || a.Failed != c.fail {
				t.Errorf("verdict = %q (failed %v), want %q (failed %v)", a.Status, a.Failed, c.status, c.fail)
			}
		})
	}
}

// TestCompareOrderAndUngated: verdicts come in name order and a
// benchmark the baseline lacks is reported but never fails.
func TestCompareOrderAndUngated(t *testing.T) {
	measured := map[string]Entry{"BenchmarkC": {1, 1}, "BenchmarkA": {1, 1}}
	baseline := map[string]Entry{"BenchmarkA": {1, 1}, "BenchmarkB": {1, 1}}
	verdicts, failed := compare(measured, baseline, 1, 0.25, 0.05)
	if !failed {
		t.Error("missing BenchmarkB did not fail the gate")
	}
	var got []string
	for _, v := range verdicts {
		got = append(got, v.Name+":"+v.Status)
	}
	want := "BenchmarkA:ok BenchmarkB:MISSING from input BenchmarkC:ungated"
	if strings.Join(got, " ") != want {
		t.Errorf("verdicts = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestCalibration(t *testing.T) {
	base := map[string]Entry{"BenchmarkCal": {NsPerOp: 600}}
	scale, err := calibration(map[string]Entry{"BenchmarkCal": {NsPerOp: 1200}}, base, "BenchmarkCal")
	if err != nil || scale != 0.5 {
		t.Errorf("calibration = (%v, %v), want (0.5, nil)", scale, err)
	}
	for name, measured := range map[string]map[string]Entry{
		"missing from input": {},
		"zero ns":            {"BenchmarkCal": {NsPerOp: 0}},
	} {
		if _, err := calibration(measured, base, "BenchmarkCal"); err == nil {
			t.Errorf("%s: calibration accepted", name)
		}
	}
	if _, err := calibration(map[string]Entry{"BenchmarkCal": {NsPerOp: 1}}, nil, "BenchmarkCal"); err == nil {
		t.Error("calibration missing from the baseline accepted")
	}
}

// TestParseBench: the -GOMAXPROCS suffix is dropped, non-result lines
// are ignored, and of repeated runs (-count) the fastest is kept
// together with that run's allocs.
func TestParseBench(t *testing.T) {
	in := `goos: linux
BenchmarkA-2   	     100	      2000 ns/op	     512 B/op	       5 allocs/op
BenchmarkA-2   	     100	      1500 ns/op	     512 B/op	       7 allocs/op
BenchmarkA-2   	     100	      1800 ns/op	     512 B/op	       3 allocs/op
BenchmarkB   	    1000	      12.5 ns/op
BenchmarkC-8   	      10	    700000 ns/op	  116.34 MB/s	  336068 B/op	     156 allocs/op
PASS
ok  	pkg	1.0s
`
	got := parseBench(bufio.NewScanner(strings.NewReader(in)))
	want := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1500, AllocsPerOp: 7},
		"BenchmarkB": {NsPerOp: 12.5, AllocsPerOp: -1},
		"BenchmarkC": {NsPerOp: 700000, AllocsPerOp: 156},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

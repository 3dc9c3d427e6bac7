package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload at toy size, with and without
// the traced pass, and checks that every metric BENCHMARK.json names is
// printed with its unit, that the JSON line carries exactly the metrics
// it should, and that every check passed.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark knows %v", names, workloadNames)
	}

	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			t.Run(w+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w, "-toy", "-repo", "..", "-trace", strconv.Itoa(trace), "-trace-out", traceOut}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				printed := map[string]string{}
				for _, ln := range lines[:len(lines)-1] {
					if f := strings.Fields(ln); len(f) == 3 && f[0] != "#" {
						if _, err := strconv.ParseFloat(f[1], 64); err != nil {
							t.Errorf("metric line %q: %v", ln, err)
						}
						printed[f[0]] = f[2]
					}
				}
				want := bf.EndToEnd
				if trace == 1 {
					want = bf.PerLayer
				}
				for _, set := range [][]struct{ Name, Unit string }{bf.EndToEnd, want} {
					for _, m := range set {
						if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
							t.Errorf("metric %s: printed unit %q (present %v), want %q", m.Name, unit, ok, m.Unit)
						}
					}
				}
				if printed["failed_frac"] != "ratio" {
					t.Errorf("failed_frac not printed")
				}

				var sum summaryLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < toyOps {
					t.Errorf("summary: correct %v, failed %d, attempted %d", sum.Correct, sum.Failed, sum.Attempted)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("JSON carries %d metrics, want %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := sum.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("JSON metric %s = %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}

				_, err := os.Stat(traceOut)
				if trace == 1 && err != nil {
					t.Errorf("no trace file: %v", err)
				}
				if trace == 0 && err == nil {
					t.Errorf("untraced run wrote a trace file")
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-toy"},
		{"-workload", "sweep-hot", "-trace", "2"},
		{"-workload", "sweep-hot", "-seconds", "0"},
		{"-workload", "sweep-hot", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q, want nothing", args, stdout.String())
		}
	}
}

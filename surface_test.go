package sysscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"testing"

	"sysscale"
)

// TestPublicSurface pins the facade: every exported name declared in
// sysscale.go, and the entry points of the Engine and Sweep it
// re-exports. Adding or removing a public name or an engine entry point
// takes an explicit edit to these lists.
func TestPublicSurface(t *testing.T) {
	want := []string{
		"Battery", "BatterySuite", "BuiltinWorkload", "BuiltinWorkloadNames",
		"CPUMultiThread", "CPUSingleThread", "CSRSpec", "Comparison", "Config",
		"DDR4", "DecodeSpec", "DefaultConfig", "DefaultGenConfig", "DisplayCSR",
		"EDPImprovement", "EncodeSpec", "Engine", "EngineOption", "EngineStats",
		"ErrDiskDegraded", "ErrInvalidConfig", "ErrJobTimeout", "GHz", "GenClass",
		"GenConfig", "GenMatrix", "GenerateWorkloads", "Graphics", "GraphicsSuite",
		"Hz", "InjectIdle", "JitterDurations", "Job", "JobError", "JobFromSpec",
		"JobResult", "JobSpec", "LPDDR3", "MHz", "MaxSpecBytes",
		"Millisecond", "MutateWorkloads", "Mutator", "NewBaseline", "NewCoScale",
		"NewEngine", "NewMemScale", "NewStaticPoint", "NewSweep", "NewSysScale",
		"NewWorkloadTrace", "OperatingPoint", "PanelSpec", "PanicError",
		"PerfImprovement", "Phase", "PlatformSpec", "PointSpec", "Policy",
		"PolicyCodec", "PolicyContext", "PolicyDecision", "PolicySpec",
		"PolicyWrapper", "PowerReduction", "ReadJobSpec", "ReadJobSpecs",
		"ReadWorkloadTrace", "RegisterPolicy", "RegisterPolicyWrapper", "Result",
		"ResultSet", "Run", "RunContext", "RunSpec", "SPEC", "SPECSuite",
		"ScaleBW", "Second", "SpecFingerprint", "SplitPhases", "Stream", "Sweep",
		"Time", "TraceSpec", "Watt", "WithCache", "WithCacheSize",
		"WithDiskCache", "WithJobTimeout", "WithParallelism", "Workload",
		"WorkloadClass", "WorkloadSpec", "WorkloadTrace", "WriteJobSpec",
		"WriteWorkloadTrace",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "sysscale.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						got = append(got, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("sysscale.go exports changed:\ngot  %q\nwant %q", got, want)
	}

	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(&sysscale.Engine{}), []string{
			"CacheStats", "ClearCache", "DiskCacheError", "Lookup", "Parallelism",
			"RunBatchContext", "RunContext", "Stream",
		}},
		{reflect.TypeOf(&sysscale.Sweep{}), []string{
			"Base", "Configs", "Configure", "ConfigureCell", "Policies",
			"RunContext", "Workloads",
		}},
	} {
		var methods []string
		for i := range c.typ.NumMethod() {
			methods = append(methods, c.typ.Method(i).Name)
		}
		if !slices.Equal(methods, c.want) {
			t.Errorf("%v methods changed:\ngot  %q\nwant %q", c.typ, methods, c.want)
		}
	}
}

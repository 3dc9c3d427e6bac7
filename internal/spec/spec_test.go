package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"sysscale/internal/ioengine"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

func vfNaN() vf.Hz { return vf.Hz(math.NaN()) }

// experimentPolicies covers every policy shape internal/experiments
// constructs: all five families, the -Redist variants, and both
// ablation wrappers.
func experimentPolicies() []soc.Policy {
	thr := policy.DefaultThresholds()
	thr.LLCStalls *= 1.5
	return []soc.Policy{
		policy.NewBaseline(),
		policy.NewSysScaleDefault(),
		policy.NewSysScale(thr),
		policy.NewMemScale(),
		policy.NewMemScaleRedist(),
		policy.NewCoScale(),
		policy.NewCoScaleRedist(),
		policy.NewStaticPoint(0, false),
		policy.NewStaticPoint(1, true),
		&policy.StaticPoint{PointIndex: 1, OptimizedMRC: false, Redistribute: false},
		policy.WithoutOptimizedMRC(policy.NewSysScaleDefault()),
		policy.WithoutRedistribution(policy.NewSysScaleDefault()),
		policy.WithoutRedistribution(policy.WithoutOptimizedMRC(policy.NewSysScaleDefault())),
	}
}

// testWorkloads is a cross-class sample of the shipped suites.
func testWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	names := []string{"473.astar", "429.mcf", "3DMark06", "web-browsing", "office-productivity", "stream"}
	ws := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, err := workload.Builtin(n)
		if err != nil {
			t.Fatalf("Builtin(%s): %v", n, err)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ws := testWorkloads(t)
	for _, p := range experimentPolicies() {
		for _, w := range ws {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = p
			job, err := Encode(cfg)
			if err != nil {
				t.Fatalf("Encode(%s/%s): %v", p.Name(), w.Name, err)
			}
			back, err := Decode(job)
			if err != nil {
				t.Fatalf("Decode(%s/%s): %v", p.Name(), w.Name, err)
			}
			if !reflect.DeepEqual(back, cfg) {
				t.Errorf("%s/%s: Decode(Encode(cfg)) != cfg\n got %#v\nwant %#v", p.Name(), w.Name, back, cfg)
			}
		}
	}
}

// TestDecodeEncodeResultsIdentical is the acceptance check: running
// the round-tripped config produces a bit-identical Result for every
// experiments policy shape.
func TestDecodeEncodeResultsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	w, err := workload.Builtin("web-browsing")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range experimentPolicies() {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = p
		cfg.Duration = 300 * sim.Millisecond
		job, err := Encode(cfg)
		if err != nil {
			t.Fatalf("Encode(%s): %v", p.Name(), err)
		}
		back, err := Decode(job)
		if err != nil {
			t.Fatalf("Decode(%s): %v", p.Name(), err)
		}
		want, err := soc.Run(cfg)
		if err != nil {
			t.Fatalf("Run(original %s): %v", p.Name(), err)
		}
		got, err := soc.Run(back)
		if err != nil {
			t.Fatalf("Run(round-tripped %s): %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-tripped config produced a different Result", p.Name())
		}
	}
}

// TestAppendConfigMatchesCanonicalJSON pins the canonical-bytes
// contract: the zero-alloc direct encoder emits exactly the
// sorted-and-compacted json.Marshal of the normalized spec.
func TestAppendConfigMatchesCanonicalJSON(t *testing.T) {
	ws := testWorkloads(t)
	for _, p := range experimentPolicies() {
		for _, w := range ws {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = p
			cfg.FixedGfxFreq = 0.9 * vf.GHz
			cfg.TracePower = true
			cfg.DisableSpanBatching = true
			job, err := Encode(cfg)
			if err != nil {
				t.Fatalf("Encode(%s/%s): %v", p.Name(), w.Name, err)
			}
			raw, err := json.Marshal(job)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			want, err := canonicalizeJSON(raw)
			if err != nil {
				t.Fatalf("canonicalize: %v", err)
			}
			got, ok := AppendConfig(nil, cfg)
			if !ok {
				t.Fatalf("AppendConfig(%s/%s): no canonical form", p.Name(), w.Name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: AppendConfig diverges from canonicalized marshal\n got %s\nwant %s",
					p.Name(), w.Name, got, want)
			}
		}
	}
}

// canonicalizeJSON re-marshals a JSON document through a number-
// preserving tree decode: keys come out sorted and whitespace-free
// while numeric literals stay byte-identical.
func canonicalizeJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}

// TestCanonicalNormalizesWorkloadForms: a builtin reference and the
// equivalent inline workload fingerprint identically.
func TestCanonicalNormalizesWorkloadForms(t *testing.T) {
	cfg := soc.DefaultConfig()
	cfg.Policy = policy.NewSysScaleDefault()
	var err error
	cfg.Workload, err = workload.Builtin("stream")
	if err != nil {
		t.Fatal(err)
	}
	inlineJob, err := Encode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	builtinJob := inlineJob
	builtinJob.Workload = WorkloadRef{Builtin: "stream"}

	fpInline, err := Fingerprint(inlineJob)
	if err != nil {
		t.Fatal(err)
	}
	fpBuiltin, err := Fingerprint(builtinJob)
	if err != nil {
		t.Fatal(err)
	}
	if fpInline != fpBuiltin {
		t.Errorf("builtin and inline forms of the same job fingerprint differently")
	}

	traceJob := inlineJob
	traceJob.Workload = WorkloadRef{Trace: &TraceRef{
		Index: 1,
		Trace: gen.Trace{Version: gen.TraceVersion, Workloads: []workload.Workload{workload.Stream(), cfg.Workload}},
	}}
	fpTrace, err := Fingerprint(traceJob)
	if err != nil {
		t.Fatal(err)
	}
	if fpTrace != fpInline {
		t.Errorf("trace and inline forms of the same job fingerprint differently")
	}
}

func TestDecodeRejectsBadSpecs(t *testing.T) {
	good, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Version = Version + 1
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted an unsupported version")
	}

	bad = good
	bad.Platform.DRAM = "HBM2"
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted an unknown DRAM kind")
	}

	bad = good
	bad.Platform.CSR.Panels[0].Res = "8K"
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted an unknown panel resolution")
	}

	bad = good
	bad.Policy.Name = "no-such-policy"
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted an unknown policy")
	}

	bad = good
	bad.Policy.Params = json.RawMessage(`{"bogus":true}`)
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted unknown policy params")
	}

	bad = good
	bad.Workload = WorkloadRef{}
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted a spec with no workload")
	}

	bad = good
	bad.Workload.Builtin = "also-builtin"
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted a spec with two workload forms")
	}

	bad = good
	bad.Run.DurationNS = 0
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted a zero duration (Validate must run)")
	}

	bad = good
	bad.Workload = WorkloadRef{Trace: &TraceRef{Index: 5, Trace: gen.Trace{Version: gen.TraceVersion, Workloads: []workload.Workload{workload.Stream()}}}}
	if _, err := Decode(bad); err == nil {
		t.Errorf("Decode accepted an out-of-range trace index")
	}
}

func baseConfig(t *testing.T) soc.Config {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Policy = policy.NewSysScaleDefault()
	w, err := workload.Builtin("stream")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	return cfg
}

func TestReadJobRejectsUnknownFields(t *testing.T) {
	if _, err := ReadJob(strings.NewReader(`{"version":1,"bogus_section":{}}`)); err == nil {
		t.Errorf("ReadJob accepted an unknown top-level field")
	}
}

func TestReadWriteJob(t *testing.T) {
	job, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJob(&buf, job); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := Fingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(back)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("WriteJob/ReadJob changed the job fingerprint")
	}
}

func TestEncodeRejectsUnregisteredPolicy(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Policy = unregisteredPolicy{}
	if _, err := Encode(cfg); err == nil {
		t.Errorf("Encode accepted an unregistered policy type")
	}
	if _, ok := AppendConfig(nil, cfg); ok {
		t.Errorf("AppendConfig produced canonical bytes for an unregistered policy")
	}
}

func TestAppendConfigRejectsNaN(t *testing.T) {
	cfg := baseConfig(t)
	cfg.TDP = soc.DefaultConfig().TDP
	cfg.FixedCoreFreq = vfNaN()
	if _, ok := AppendConfig(nil, cfg); ok {
		t.Errorf("AppendConfig produced canonical bytes for a NaN field")
	}
}

// TestAppendConfigDepthBound: Encode and AppendConfig share one
// wrapper walk, so they accept exactly the same chains — up to
// maxWrapDepth wrappers — and reject the same ones beyond it.
func TestAppendConfigDepthBound(t *testing.T) {
	for _, depth := range []int{0, 1, maxWrapDepth - 1, maxWrapDepth, maxWrapDepth + 1, maxWrapDepth + 2} {
		cfg := baseConfig(t)
		for i := 0; i < depth; i++ {
			cfg.Policy = policy.WithoutOptimizedMRC(cfg.Policy)
		}
		want := depth <= maxWrapDepth
		_, appended := AppendConfig(nil, cfg)
		job, err := Encode(cfg)
		if appended != want || (err == nil) != want {
			t.Errorf("depth %d: AppendConfig ok %t, Encode err %v; want both to accept: %t", depth, appended, err, want)
			continue
		}
		if want {
			if got := len(job.Policy.Wrap); got != depth {
				t.Errorf("depth %d: Encode wrap list has %d names", depth, got)
			}
			if _, err := Canonical(job); err != nil {
				t.Errorf("depth %d: Canonical(Encode(cfg)): %v", depth, err)
			}
		}
	}
}

// TestKeyAllocs pins the cache key at zero allocations per job: it
// runs once per job on the sweep hot path.
func TestKeyAllocs(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Policy = policy.WithoutRedistribution(policy.NewSysScaleDefault())
	if _, ok := Key(cfg); !ok {
		t.Fatal("config has no key")
	}
	if n := testing.AllocsPerRun(100, func() { Key(cfg) }); n != 0 {
		t.Errorf("Key allocates %v times per call, want 0", n)
	}
}

// BenchmarkKey tracks the per-job keying cost on the sweep hot path.
func BenchmarkKey(b *testing.B) {
	w, err := workload.SPEC("473.astar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = policy.NewSysScaleDefault()
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := Key(cfg); !ok {
			b.Fatal("uncacheable")
		}
	}
}

type unregisteredPolicy struct{}

func (unregisteredPolicy) Name() string      { return "unregistered" }
func (unregisteredPolicy) Reset()            {}
func (unregisteredPolicy) Clone() soc.Policy { return unregisteredPolicy{} }
func (unregisteredPolicy) Decide(soc.PolicyContext) soc.PolicyDecision {
	return soc.PolicyDecision{}
}

func TestPanelCountMatchesPlatform(t *testing.T) {
	if numPanels != ioengine.MaxPanels {
		t.Fatalf("spec panel count %d != platform %d", numPanels, ioengine.MaxPanels)
	}
}

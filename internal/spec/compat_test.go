package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload/gen"
)

// retiredKeys sets each wire field retired in v2 (see the package doc)
// to a non-default value. Decode must ignore every one of them.
var retiredKeys = []struct {
	name string
	set  func(*Job)
}{
	{"seed", func(j *Job) { j.Run.Seed = 12345 }},
	{"record_events", func(j *Job) { j.Run.RecordEvents = true }},
	{"disable_pbm_memo", func(j *Job) { j.Knobs.DisablePBMMemo = true }},
	{"disable_span_cache", func(j *Job) { j.Knobs.DisableSpanCache = true }},
	{"disable_tick_memo", func(j *Job) { j.Knobs.DisableTickMemo = true }},
}

// retiredV3Keys are the wire keys retired in v3. Their switches are
// ignored only when false, which the v1 and v2 fixtures carry;
// TestDecodeRejectsBadSpecs sets them true.
var retiredV3Keys = []string{"knobs", "trace_power", "disable_span_batching"}

// TestFingerprintIsResultIdentity checks that the canonical key covers
// every input that determines a Result and nothing else, over the v1
// and v2 fixtures and generated workloads × the four policy families.
//
// Complete: changing any exported soc.Config leaf (platform, ladder,
// CSR, every workload and phase field, run parameters), any policy
// parameter or adding a policy wrapper moves the key.
//
// Minimal: setting any ignored retired wire key, in a v1, v2 or v3
// document, leaves the decoded Config, the Result and the fingerprint
// unchanged.
func TestFingerprintIsResultIdentity(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 2
	}
	var jobs []Job
	fixtures, err := filepath.Glob("testdata/v[12]/*.json")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no v1 or v2 fixtures: %v", err)
	}
	for _, p := range fixtures {
		jobs = append(jobs, readJobFile(t, p))
	}
	families := []func() soc.Policy{
		func() soc.Policy { return policy.NewBaseline() },
		func() soc.Policy { return policy.NewSysScaleDefault() },
		func() soc.Policy { return policy.NewMemScaleRedist() },
		func() soc.Policy { return policy.NewCoScaleRedist() },
	}
	for _, w := range gen.GenerateN(gen.DefaultConfig(1), n) {
		for _, mk := range families {
			cfg := soc.DefaultConfig()
			cfg.Workload = w
			cfg.Policy = mk()
			cfg.Duration = 300 * sim.Millisecond
			job, err := Encode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
	}

	for _, job := range jobs {
		cfg, err := Decode(job)
		if err != nil {
			t.Fatal(err)
		}
		label := cfg.Workload.Name + "/" + cfg.Policy.Name()
		key := canonicalKey(t, cfg)
		fp, err := Fingerprint(job)
		if err != nil {
			t.Fatal(err)
		}
		if fp != key {
			t.Fatalf("%s: Fingerprint differs from the key of AppendConfig", label)
		}

		// Completeness.
		moved := func(what string, c soc.Config) {
			t.Helper()
			if canonicalKey(t, c) == key {
				t.Errorf("%s: changing %s leaves the key unchanged", label, what)
			}
		}
		bumpLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", func(path string) { moved(path, cfg) })
		enc, err := Encode(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		pol := enc.Policy
		bumpJSONLeaves(t, pol.Params, func(path string, params []byte) {
			c := cfg
			var err error
			if c.Policy, err = policy.Build(pol.Name, params, pol.Wrap); err != nil {
				t.Fatalf("%s: %s: %v", label, path, err)
			}
			moved(path, c)
		})
		for _, w := range []func(soc.Policy) soc.Policy{policy.WithoutOptimizedMRC, policy.WithoutRedistribution} {
			c := cfg
			c.Policy = w(cfg.Policy.Clone())
			moved("wrapper "+c.Policy.Name(), c)
		}

		// Minimality. Runs take a clone: a governor accumulates state.
		run := cfg
		run.Policy = cfg.Policy.Clone()
		want, err := soc.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		for version := 1; version <= Version; version++ {
			for _, rk := range retiredKeys {
				j := job
				j.Version = version
				rk.set(&j)
				var doc bytes.Buffer
				if err := WriteJob(&doc, j); err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(doc.Bytes(), []byte(`"`+rk.name+`"`)) {
					t.Fatalf("%s: document does not carry %s", label, rk.name)
				}
				back, err := ReadJob(&doc)
				if err != nil {
					t.Fatalf("%s v%d %s: ReadJob: %v", label, version, rk.name, err)
				}
				got, err := Decode(back)
				if err != nil {
					t.Fatalf("%s v%d %s: Decode: %v", label, version, rk.name, err)
				}
				if !reflect.DeepEqual(got, cfg) {
					t.Errorf("%s v%d: %s changed the decoded config", label, version, rk.name)
				}
				if r, err := soc.Run(got); err != nil || !reflect.DeepEqual(r, want) {
					t.Errorf("%s v%d: %s changed the Result (err %v)", label, version, rk.name, err)
				}
				if f, err := Fingerprint(back); err != nil || f != fp {
					t.Errorf("%s v%d: %s changed the fingerprint (err %v)", label, version, rk.name, err)
				}
			}
		}
	}
}

// canonicalKey is the engine's cache key for cfg: sha256 of its
// canonical bytes.
func canonicalKey(t *testing.T, cfg soc.Config) [sha256.Size]byte {
	t.Helper()
	b, ok := AppendConfig(nil, cfg)
	if !ok {
		t.Fatalf("config has no canonical form: %+v", cfg)
	}
	return sha256.Sum256(b)
}

// bumpLeaves changes each exported scalar leaf under v (which must be
// settable) in turn, calls visit with the leaf's path, and restores
// the leaf before moving on. Integers step toward a valid neighbour
// (down when positive, else to 1), so enums stay in range. Interface
// leaves (the policy) are skipped; the caller bumps those.
func bumpLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				bumpLeaves(t, v.Field(i), path+"."+f.Name, visit)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			bumpLeaves(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", visit)
		}
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old*2 + 1)
		visit(path)
		v.SetFloat(old)
	case reflect.Int, reflect.Int64:
		old := v.Int()
		if old > 0 {
			v.SetInt(old - 1)
		} else {
			v.SetInt(1)
		}
		visit(path)
		v.SetInt(old)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		visit(path)
		v.SetBool(!v.Bool())
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		visit(path)
		v.SetString(old)
	case reflect.Interface:
	default:
		t.Fatalf("%s: unhandled kind %v", path, v.Kind())
	}
}

// bumpJSONLeaves is bumpLeaves for a JSON document: it changes each
// number, bool and string leaf of raw in turn, by the same rules, and
// calls visit with the leaf's path and the re-marshaled document.
func bumpJSONLeaves(t *testing.T, raw []byte, visit func(path string, doc []byte)) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	emit := func(path string) {
		doc, err := json.Marshal(root)
		if err != nil {
			t.Fatal(err)
		}
		visit(path, doc)
	}
	var walk func(v any, path string, set func(any))
	walk = func(v any, path string, set func(any)) {
		var bumped any
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(e, path+"."+k, func(n any) { x[k] = n })
			}
			return
		case []any:
			for i, e := range x {
				walk(e, path+"["+strconv.Itoa(i)+"]", func(n any) { x[i] = n })
			}
			return
		case json.Number:
			if i, err := x.Int64(); err == nil {
				if i > 0 {
					i--
				} else {
					i = 1
				}
				bumped = json.Number(strconv.FormatInt(i, 10))
			} else if f, err := x.Float64(); err == nil {
				bumped = json.Number(strconv.FormatFloat(f*2+1, 'g', -1, 64))
			} else {
				t.Fatalf("%s: %v", path, err)
			}
		case bool:
			bumped = !x
		case string:
			bumped = x + "x"
		default:
			t.Fatalf("%s: unhandled JSON value %T", path, v)
		}
		set(bumped)
		emit(path)
		set(v)
	}
	walk(root, "params", func(n any) { root = n })
}

// readJobFile reads one spec document.
func readJobFile(t *testing.T, path string) Job {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	job, err := ReadJob(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return job
}

// TestExampleSpecFingerprintsPinned holds the canonical bytes of the
// checked-in example specs stable across builds: every on-disk result
// cache is keyed by these fingerprints, so a change here silently
// orphans every cache a previous build filled. Change a value only
// together with a spec Version bump. Each example is a v3 document;
// its forms under testdata/v1 and testdata/v2 (the bytes those
// versions shipped, with every retired switch false) must decode to
// the same config and share the pinned fingerprint, and the canonical
// bytes must carry no retired key.
func TestExampleSpecFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"coscale-redist-web-browsing.json": "2b3690687299697aba1b93b46086fd943db2cd65a1ce6084e92000bd95b9e062",
		"sysscale-470.lbm.json":            "f1121639fa008e047553feda0759cd82a18839407946c6f410a0fab356ce7732",
	}
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Errorf("found %d example specs, %d pinned: pin every example", len(paths), len(want))
	}
	for _, p := range paths {
		name := filepath.Base(p)
		forms := []string{filepath.Join("testdata/v1", name), filepath.Join("testdata/v2", name), p}
		var cfg soc.Config
		for i, path := range forms {
			job := readJobFile(t, path)
			if job.Version != i+1 {
				t.Fatalf("%s: version %d, want %d", path, job.Version, i+1)
			}
			c, err := Decode(job)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if i == 0 {
				cfg = c
			} else if !reflect.DeepEqual(c, cfg) {
				t.Errorf("%s: decodes to a different config than its v1 form", path)
			}
			if fp, err := Fingerprint(job); err != nil || fmt.Sprintf("%x", fp) != want[name] {
				t.Errorf("%s: fingerprint %x (err %v), pinned %s", path, fp, err, want[name])
			}
		}
		b, ok := AppendConfig(nil, cfg)
		if !ok {
			t.Fatalf("%s: no canonical form", name)
		}
		for _, rk := range retiredKeys {
			if bytes.Contains(b, []byte(`"`+rk.name+`"`)) {
				t.Errorf("%s: canonical bytes carry retired key %s", name, rk.name)
			}
		}
		for _, key := range retiredV3Keys {
			if bytes.Contains(b, []byte(`"`+key+`"`)) {
				t.Errorf("%s: canonical bytes carry retired key %s", name, key)
			}
		}
	}
}

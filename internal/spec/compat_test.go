package spec

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sysscale/internal/soc"
)

// TestDisableSpanCacheWireKnobIgnored pins the v1 compatibility rule
// for knobs.disable_span_cache: a document that sets it still decodes,
// runs to the same Result and fingerprints to the same key as the
// document that leaves it false, so caches filled by either stay warm.
func TestDisableSpanCacheWireKnobIgnored(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/sysscale-470.lbm.json")
	if err != nil {
		t.Fatal(err)
	}
	const off, on = `"disable_span_cache": false`, `"disable_span_cache": true`
	if !bytes.Contains(doc, []byte(off)) {
		t.Fatalf("example spec does not carry %s", off)
	}
	set := bytes.Replace(doc, []byte(off), []byte(on), 1)

	var cfgs [2]soc.Config
	var results [2]soc.Result
	var fps [2][32]byte
	for i, d := range [][]byte{doc, set} {
		job, err := ReadJob(bytes.NewReader(d))
		if err != nil {
			t.Fatalf("ReadJob: %v", err)
		}
		if cfgs[i], err = Decode(job); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if results[i], err = soc.Run(cfgs[i]); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if fps[i], err = Fingerprint(job); err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
	}
	if !reflect.DeepEqual(cfgs[0], cfgs[1]) {
		t.Error("disable_span_cache changed the decoded config")
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("disable_span_cache changed the Result")
	}
	if fps[0] != fps[1] {
		t.Errorf("disable_span_cache changed the fingerprint: %x != %x", fps[1], fps[0])
	}
}

// TestExampleSpecFingerprintsPinned holds the canonical bytes of the
// checked-in example specs stable across builds: every on-disk result
// cache is keyed by these fingerprints, so a change here silently
// orphans every cache a previous build filled. Change a value only
// together with a spec Version bump.
func TestExampleSpecFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"coscale-redist-web-browsing.json": "64bf9469874aa7bf7a33d59ef7c3867a55da4ccba6f371f49a2af9d224a0de66",
		"sysscale-470.lbm.json":            "c2b027df8643ebbe789ec77247c77f20159e59f7b5d7c49bb83f0b90b11430e7",
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
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		job, err := ReadJob(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp, err := Fingerprint(job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(fp[:]); got != want[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, want[name])
		}
	}
}

package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// FuzzDecodeSpec drives ReadJob+Decode with arbitrary input: the pair
// must never panic, and any document they accept must reach a decode/
// encode/decode fixpoint — re-encoding the decoded config and decoding
// again yields the identical config and identical canonical bytes, so
// spec files can be normalized any number of times without drifting
// and a job's fingerprint does not depend on which round wrote it.
func FuzzDecodeSpec(f *testing.F) {
	// Seed the corpus with real encodings across the spec's variant
	// axes: several policy shapes, a builtin reference, and a trace.
	seeds := []soc.Policy{
		policy.NewBaseline(),
		policy.NewSysScaleDefault(),
		policy.NewCoScaleRedist(),
		policy.WithoutRedistribution(policy.WithoutOptimizedMRC(policy.NewSysScaleDefault())),
	}
	for _, p := range seeds {
		cfg := soc.DefaultConfig()
		cfg.Policy = p
		cfg.Workload = workload.Stream()
		job, err := Encode(cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJob(&buf, job); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// v1 documents, retired keys included.
	v1, _ := filepath.Glob("testdata/v1/*.json")
	for _, p := range v1 {
		doc, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"version":1,"platform":{"dram":"LPDDR3"},"workload":{"builtin":"stream"},"policy":{"name":"sysscale"}}`))
	f.Add([]byte(`{"version":1,"workload":{"trace":{"index":0,"trace":{"version":1,"workloads":[]}}}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"policy":{"name":"sysscale","params":{"high_scale":-1}}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := ReadJob(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := Decode(job)
		if err != nil {
			return
		}
		// Accepted spec: it must normalize to a fixpoint.
		norm, err := Encode(cfg)
		if err != nil {
			t.Fatalf("Encode of accepted config failed: %v\ninput: %q", err, data)
		}
		cfg2, err := Decode(norm)
		if err != nil {
			t.Fatalf("Decode of normalized spec failed: %v\ninput: %q", err, data)
		}
		b1, ok := AppendConfig(nil, cfg)
		if !ok {
			t.Fatalf("accepted config has no canonical form\ninput: %q", data)
		}
		b2, ok := AppendConfig(nil, cfg2)
		if !ok {
			t.Fatalf("normalized config has no canonical form\ninput: %q", data)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("decode/encode/decode not a fixpoint:\nfirst:  %s\nsecond: %s", b1, b2)
		}
	})
}

package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// referenceReadDoc is the reflective decoder ReadJob and ReadJobs are
// held to: encoding/json with unknown fields rejected and a trailing-
// token probe. The hand-written decoder must accept exactly the inputs
// this accepts and produce DeepEqual values for them.
func referenceReadDoc(r io.Reader, v any) error {
	cr := &countingReader{r: r}
	dec := json.NewDecoder(io.LimitReader(cr, MaxDocBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if cr.n > MaxDocBytes {
			return ErrDocTooLarge
		}
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if cr.n > MaxDocBytes {
			return ErrDocTooLarge
		}
		return fmt.Errorf("trailing data after document")
	}
	return nil
}

// countingReader counts the bytes drawn from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// sweepBody is a 20-spec sweep body built the way the service
// benchmarks build theirs: generated workloads, policy i mod 4, 2 s
// runs, marshaled compactly.
func sweepBody(tb testing.TB) []byte {
	tb.Helper()
	pols := []soc.Policy{policy.NewBaseline(), policy.NewSysScaleDefault(), policy.NewMemScaleRedist(), policy.NewCoScaleRedist()}
	var jobs []Job
	for i, w := range gen.GenerateN(gen.DefaultConfig(1), 20) {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = pols[i%4]
		cfg.Duration = 2 * sim.Second
		js, err := Encode(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, js)
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkReadJobs decodes one 20-spec sweep body per op.
func BenchmarkReadJobs(b *testing.B) {
	body := sweepBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadJobs(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadJobsSweepBodyMatchesStdlib pins the benchmark body itself:
// the decoder and the reference agree on it value for value.
func TestReadJobsSweepBodyMatchesStdlib(t *testing.T) {
	body := sweepBody(t)
	got, err := ReadJobs(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want []Job
	if err := referenceReadDoc(bytes.NewReader(body), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ReadJobs and encoding/json disagree on the sweep body")
	}
}

// FuzzReadJobsMatchesStdlib holds the hand-written decoder to
// encoding/json: for any input, ReadJob and ReadJobs accept exactly
// when referenceReadDoc does, and then decode to DeepEqual values that
// share no memory with the buffer the input was read into. Plain go
// test runs every seed, trap seeds included.
func FuzzReadJobsMatchesStdlib(f *testing.F) {
	for _, seed := range readJobsSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesStdlib(t, data)
	})
}

// checkMatchesStdlib compares ReadJob on data, and ReadJobs on data and
// on a two-element array of it, with the reference.
func checkMatchesStdlib(t *testing.T, data []byte) {
	t.Helper()
	var want Job
	wantErr := referenceReadDoc(bytes.NewReader(data), &want)
	cr := &clobberReader{r: bytes.NewReader(data)}
	got, err := ReadJob(cr)
	cr.clobber()
	compareDecodes(t, "ReadJob", data, got, err, want, wantErr)

	for _, doc := range [][]byte{data, []byte("[" + string(data) + "," + string(data) + "]")} {
		var wants []Job
		wantErr := referenceReadDoc(bytes.NewReader(doc), &wants)
		cr := &clobberReader{r: bytes.NewReader(doc)}
		gots, err := ReadJobs(cr)
		cr.clobber()
		compareDecodes(t, "ReadJobs", doc, gots, err, wants, wantErr)
	}
}

func compareDecodes(t *testing.T, fn string, doc []byte, got any, err error, want any, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s(%q): err = %v, encoding/json err = %v", fn, doc, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s(%q):\n got %#v\nwant %#v", fn, doc, got, want)
	}
}

// clobberReader records the buffers it fills so a test can overwrite
// them after decoding: a decoded value that aliased the input buffer
// would change.
type clobberReader struct {
	r      *bytes.Reader
	filled [][]byte
}

func (c *clobberReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.filled = append(c.filled, p[:n])
	return n, err
}

func (c *clobberReader) clobber() {
	for _, p := range c.filled {
		for i := range p {
			p[i] = '#'
		}
	}
}

// readJobsSeeds is FuzzDecodeSpec's seed corpus plus one input per
// place where a naive decoder would part from encoding/json.
func readJobsSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, p := range []soc.Policy{
		policy.NewBaseline(),
		policy.NewSysScaleDefault(),
		policy.NewCoScaleRedist(),
		policy.WithoutRedistribution(policy.WithoutOptimizedMRC(policy.NewSysScaleDefault())),
	} {
		cfg := soc.DefaultConfig()
		cfg.Policy = p
		cfg.Workload = workload.Stream()
		job, err := Encode(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJob(&buf, job); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	trace, err := json.Marshal(gen.NewTrace(gen.DefaultConfig(1), 2))
	if err != nil {
		tb.Fatal(err)
	}
	const inline = `{"version":1,"workload":{"inline":{"Name":"w","Class":"cpu-st","Phases":[{"Duration":5,"CoreFrac":0.5,"Residency":{"C0":1}}]}}}`
	for _, s := range []string{
		// FuzzDecodeSpec's hand-written seeds.
		`{"version":1,"platform":{"dram":"LPDDR3"},"workload":{"builtin":"stream"},"policy":{"name":"sysscale"}}`,
		`{"version":1,"workload":{"trace":{"index":0,"trace":{"version":1,"workloads":[]}}}}`,
		`{"version":2}`,
		`{"version":1,"policy":{"name":"sysscale","params":{"high_scale":-1}}}`,
		`null`,
		`[]`,
		inline,
		`{"version":1,"workload":{"trace":{"index":1,"trace":` + string(trace) + `}}}`,

		// Keys: exact match first, then encoding/json's case folding,
		// under which ſ (U+017F) folds to S and K (U+212A) to K.
		`{"VERSION":1}`,
		`{"Version":1,"version":2}`,
		`{"workload":{"inline":{"name":"w","phases":[{"coreFrac":0.5,"RESIDENCY":{"c0":1}}]}}}`,
		`{"knobs":{"disable_ſpan_batching":true,"DISABLE_ſPAN_CACHE":true}}`,
		`{"Knobs":{"disable_tick_memo":true}}`,
		`{"versıon":1}`,
		`{"versio":1}`,
		`{"version ":1}`,
		// Escaped keys.
		`{"\u0076ersion":1}`,
		`{"knobs":{"disable_pbm_memo\u0000":true}}`,
		`{"\ud83d":1}`,

		// Repeated keys: objects merge, arrays decode element-wise
		// into existing elements and truncate, pointers are reused.
		`{"platform":{"dram":"A","tdp_watts":3},"platform":{"tdp_watts":4}}`,
		`{"platform":{"ladder":[{"name":"a","vio":1},{"name":"b","vsa":2}],"ladder":[{"vsa":3}]}}`,
		`{"platform":{"ladder":[{"name":"a"},{"name":"b"},{"name":"c"}],"ladder":[{}],"ladder":[{"vio":1},{},{},{}]}}`,
		`{"policy":{"wrap":["a","b"],"wrap":["c"],"wrap":[null,null]}}`,
		`{"workload":{"inline":{"Name":"a","Phases":[{"Duration":1},{"Duration":2}]},"inline":{"Phases":[{"IOFrac":1}]}}}`,
		`{"workload":{"trace":{"index":3},"trace":{"trace":{"version":1}}}}`,
		`{"platform":{"csr":{"panels":[{"res":"a"},{"res":"b"},{"res":"c"}],"panels":[{"refresh_hz":1}]}}}`,
		// A fresh slice after an earlier one of its type: no element
		// may inherit the earlier one's fields.
		`[{"platform":{"ladder":[{"name":"a","vio":1},{"vsa":2}]}},{"platform":{"ladder":[{},{}]}}]`,
		`[{"workload":{"inline":{"Phases":[{"IOFrac":1}]}}},{"workload":{"inline":{"Phases":[{}]}}}]`,
		`{"platform":{"ladder":[{"vio":1}],"ladder":null,"ladder":[{}]}}`,
		// Two strings of one length in one slot of the string cache.
		`{"platform":{"dram":"off","csr":{"camera":"hof"}}}`,

		// null and [].
		`{"policy":{"wrap":[]},"platform":{"ladder":[]}}`,
		`{"policy":{"wrap":["a"],"wrap":null}}`,
		`{"workload":{"inline":{"Name":"a"},"inline":null}}`,
		`{"workload":{"inline":{"Phases":[]}}}`,
		`{"platform":null,"run":null,"knobs":null,"version":null}`,
		`{"platform":{"csr":{"panels":null,"camera":null}}}`,
		`{"version":1,"version":null}`,
		`{"run":{"seed":null,"record_events":null,"fixed_core_hz":null}}`,
		`[null,{}]`,
		` null `,

		// Fixed-length panels: short input zeroes the tail, extras are
		// skipped unchecked (syntax aside).
		`{"platform":{"csr":{"panels":[{"res":"HD"}]}}}`,
		`{"platform":{"csr":{"panels":[{},{},{},{"bogus":1},"x",[1]]}}}`,
		`{"platform":{"csr":{"panels":[{},{},{},{"bogus":1,}]}}}`,
		`{"platform":{"csr":{"panels":[]}}}`,

		// Number grammar: none of these is JSON, though ParseFloat or
		// ParseInt alone would take some.
		`{"version":01}`,
		`{"platform":{"tdp_watts":1.}}`,
		`{"platform":{"tdp_watts":.5}}`,
		`{"platform":{"tdp_watts":+1}}`,
		`{"platform":{"tdp_watts":1e}}`,
		`{"platform":{"tdp_watts":-}}`,
		`{"platform":{"tdp_watts":0x1p3}}`,
		`{"platform":{"tdp_watts":Inf}}`,
		`{"platform":{"tdp_watts":NaN}}`,
		`{"version":1_0}`,
		`{"platform":{"tdp_watts":-0.0e-0}}`,
		`{"platform":{"tdp_watts":1E+2}}`,

		// Number conversion per field type.
		`{"version":1.0}`,
		`{"version":1e3}`,
		`{"version":-0}`,
		`{"run":{"seed":-1}}`,
		`{"run":{"seed":-0}}`,
		`{"run":{"seed":18446744073709551615}}`,
		`{"run":{"seed":18446744073709551616}}`,
		`{"run":{"duration_ns":9223372036854775807}}`,
		`{"run":{"duration_ns":9223372036854775808}}`,
		`{"run":{"duration_ns":-9223372036854775809}}`,
		`{"platform":{"tdp_watts":1e400}}`,
		`{"platform":{"tdp_watts":-1e400}}`,
		`{"platform":{"tdp_watts":1e-400}}`,
		`{"platform":{"tdp_watts":"4.5"}}`,
		`{"version":true}`,
		`{"knobs":{"disable_tick_memo":1}}`,
		`{"knobs":{"disable_tick_memo":"true"}}`,

		// Strings: control characters, invalid UTF-8, surrogates.
		"{\"platform\":{\"dram\":\"a\x01b\"}}",
		"{\"platform\":{\"dram\":\"a\tb\"}}",
		"{\"platform\":{\"dram\":\"\xff\xfe\"}}",
		"{\"platform\":{\"dram\":\"caf\xc3\xa9\"}}",
		`{"platform":{"dram":"\ud83d\ude00"}}`,
		`{"platform":{"dram":"\ud83d"}}`,
		`{"platform":{"dram":"\ude00\ud83d"}}`,
		`{"platform":{"dram":"\u00e9\/\b\f\n\r\t\"\\"}}`,
		`{"platform":{"dram":"\x"}}`,
		`{"platform":{"dram":"\u12"}}`,
		`{"platform":{"dram":"<&>\u2028"}}`,
		`{"platform":{"dram":"abc`,

		// Workload class: through Class.UnmarshalJSON, null included.
		`{"workload":{"inline":{"Class":"micro"}}}`,
		`{"workload":{"inline":{"Class":null}}}`,
		`{"workload":{"inline":{"Class":"CPU-ST"}}}`,
		`{"workload":{"inline":{"Class":"\u0063pu-mt"}}}`,
		`{"workload":{"inline":{"Class":2}}}`,
		`{"workload":{"inline":{"Class":"graphics","Class":"battery"}}}`,

		// Embedded trace: strict, null, wrong shape.
		`{"workload":{"trace":{"trace":{"version":1,"bogus":1}}}}`,
		`{"workload":{"trace":{"trace":null,"index":null}}}`,
		`{"workload":{"trace":{"trace":[]}}}`,
		`{"workload":{"trace":null}}`,

		// Params: raw bytes copied exactly, inner whitespace and all.
		`{"policy":{"params": { "high_scale" : [ 1 , 2 ] } }}`,
		`{"policy":{"params":null}}`,
		`{"policy":{"params":"x","params":[]}}`,
		`{"policy":{"params":{"a":1}  ,"params":  7 }}`,
		`{"policy":{"params":{"a":}}}`,

		// Wrong JSON types for structs, slices and pointers.
		`{"platform":[]}`,
		`{"platform":{"ladder":{}}}`,
		`{"platform":{"ladder":"x"}}`,
		`{"policy":{"wrap":"x"}}`,
		`{"policy":{"wrap":[1]}}`,
		`{"workload":{"inline":5}}`,
		`{"workload":{"inline":[]}}`,
		`{"platform":{"csr":{"panels":{}}}}`,
		`{"platform":{"csr":{"panels":[1]}}}`,
		`{"version":[]}`,
		`{"version":{}}`,
		`{"version":"1"}`,
		`[1]`,
		`{}`,
		`1`,
		`"x"`,
		`true`,

		// Syntax and trailing data.
		``,
		` `,
		`{`,
		`{"version":1`,
		`{"version":1,}`,
		`{"version" 1}`,
		`{version:1}`,
		`[{},]`,
		`[{}{}]`,
		`{"version":1} x`,
		`{"version":1}{"version":1}`,
		`{"version":1}]`,
		"{\"version\":1} \n\t\r",
		"\ufeff{}",
		`{"version":nul}`,
		`{"version":nulls}`,
		`{"knobs":{"disable_tick_memo":tru}}`,
		`{"bogus":{"deep":[1,2,{"x":null}]}}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestReadJobsNestingLimit: encoding/json rejects values nested deeper
// than 10000, counting every enclosing object and array; so must the
// decoder, in the places where it accepts arbitrary JSON.
func TestReadJobsNestingLimit(t *testing.T) {
	// {"policy":{"params": opens two levels; n more arrays make 2+n.
	params := func(n int) []byte {
		return []byte(`{"policy":{"params":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}}`)
	}
	panels := func(n int) []byte {
		return []byte(`{"platform":{"csr":{"panels":[{},{},{},` + strings.Repeat("[", n) + strings.Repeat("]", n) + `]}}}`)
	}
	for _, doc := range [][]byte{params(maxDepth - 2), params(maxDepth - 1), panels(maxDepth - 4), panels(maxDepth - 3)} {
		checkMatchesStdlib(t, doc)
	}
	if _, err := ReadJob(bytes.NewReader(params(maxDepth - 2))); err != nil {
		t.Errorf("depth %d rejected: %v", maxDepth, err)
	}
	if _, err := ReadJob(bytes.NewReader(params(maxDepth - 1))); err == nil {
		t.Errorf("depth %d accepted", maxDepth+1)
	}
}

// TestDecoderFieldTables pins the decoder's field tables to the JSON
// field names encoding/json derives for each type, in declaration
// order: a field added to a spec type must be added to the decoder.
func TestDecoderFieldTables(t *testing.T) {
	for _, c := range []struct {
		v     any
		table []string
	}{
		{Job{}, jobFields},
		{Platform{}, platformFields},
		{Point{}, pointFields},
		{CSR{}, csrFields},
		{PanelCfg{}, panelFields},
		{WorkloadRef{}, workloadFields},
		{TraceRef{}, traceRefFields},
		{Policy{}, policyFields},
		{Run{}, runFields},
		{Knobs{}, knobsFields},
		{workload.Workload{}, wlFields},
		{workload.Phase{}, phaseFields},
		{workload.Phase{}.Residency, residencyFields},
	} {
		typ := reflect.TypeOf(c.v)
		var names []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" || !f.IsExported() {
				continue
			}
			if name == "" {
				name = f.Name
			}
			names = append(names, name)
		}
		if !reflect.DeepEqual(names, c.table) {
			t.Errorf("%v: decoder fields %q, type has %q", typ, c.table, names)
		}
	}
}

package policy

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sysscale/internal/soc"
)

func TestRegisterRejectsDuplicateName(t *testing.T) {
	c := Codec{
		Type:         reflect.TypeOf(&testOnlyPolicy{}),
		Decode:       func([]byte) (soc.Policy, error) { return &testOnlyPolicy{}, nil },
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) { return append(b, '{', '}'), true },
	}
	// "sysscale" is taken by the init registration.
	if err := Register("sysscale", c); err == nil {
		t.Fatalf("Register(%q) accepted a duplicate name", "sysscale")
	}
	// A fresh name with an already-registered type must fail too.
	dup := c
	dup.Type = reflect.TypeOf(&SysScale{})
	if err := Register("sysscale-again", dup); err == nil {
		t.Fatalf("Register accepted a duplicate concrete type")
	}
}

func TestRegisterRejectsDuplicateWrapper(t *testing.T) {
	w := Wrapper{Type: reflect.TypeOf(&testOnlyWrapper{}), Wrap: func(p soc.Policy) soc.Policy { return p }}
	if err := RegisterWrapper("no-mrc", w); err == nil {
		t.Fatalf("RegisterWrapper accepted a duplicate name")
	}
	dup := Wrapper{Type: reflect.TypeOf(&mrcOff{}), Wrap: func(p soc.Policy) soc.Policy { return p }}
	if err := RegisterWrapper("no-mrc-again", dup); err == nil {
		t.Fatalf("RegisterWrapper accepted a duplicate concrete type")
	}
}

func TestRegisterRejectsIncompleteCodec(t *testing.T) {
	if err := Register("", Codec{}); err == nil {
		t.Fatalf("Register accepted an empty name")
	}
	if err := Register("incomplete", Codec{}); err == nil {
		t.Fatalf("Register accepted a codec with nil hooks")
	}
}

// TestRegisterRejectsWrapperWithoutUnwrap: a wrapper the spec layer
// cannot see through would make every config using it silently
// uncacheable, so registration refuses it.
func TestRegisterRejectsWrapperWithoutUnwrap(t *testing.T) {
	w := Wrapper{Type: reflect.TypeOf(&testOnlyPolicy{}), Wrap: func(p soc.Policy) soc.Policy { return p }}
	if err := RegisterWrapper("test-no-unwrap", w); err == nil {
		t.Fatalf("RegisterWrapper accepted a type without Unwrap() soc.Policy")
	}
	if _, ok := LookupWrapper("test-no-unwrap"); ok {
		t.Fatalf("rejected wrapper was registered anyway")
	}
}

type testOnlyPolicy struct{}

func (*testOnlyPolicy) Name() string      { return "test-only" }
func (*testOnlyPolicy) Reset()            {}
func (*testOnlyPolicy) Clone() soc.Policy { return &testOnlyPolicy{} }
func (*testOnlyPolicy) Decide(soc.PolicyContext) soc.PolicyDecision {
	return soc.PolicyDecision{}
}

// testOnlyWrapper has the Unwrap method a registered wrapper needs.
type testOnlyWrapper struct{ testOnlyPolicy }

func (*testOnlyWrapper) Unwrap() soc.Policy { return &testOnlyPolicy{} }

// registryPolicies covers every family and wrapper combination the
// experiments use.
func registryPolicies() []soc.Policy {
	return []soc.Policy{
		NewBaseline(),
		NewSysScaleDefault(),
		NewMemScale(),
		NewMemScaleRedist(),
		NewCoScale(),
		NewCoScaleRedist(),
		NewStaticPoint(1, true),
		&StaticPoint{PointIndex: 0, OptimizedMRC: false, Redistribute: false},
		WithoutOptimizedMRC(NewSysScaleDefault()),
		WithoutRedistribution(NewSysScaleDefault()),
		WithoutRedistribution(WithoutOptimizedMRC(NewSysScaleDefault())),
	}
}

func TestBuildDefaultsMatchConstructors(t *testing.T) {
	cases := []struct {
		name string
		want soc.Policy
	}{
		{"baseline", NewBaseline()},
		{"sysscale", NewSysScaleDefault()},
		{"memscale", NewMemScale()},
		{"coscale", NewCoScale()},
		{"static-point", NewStaticPoint(0, false)},
	}
	for _, tc := range cases {
		for _, params := range [][]byte{nil, []byte("null"), []byte("{}")} {
			got, err := Build(tc.name, params, nil)
			if err != nil {
				t.Fatalf("Build(%s, %q): %v", tc.name, params, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Build(%s, %q) = %#v, want constructor default %#v", tc.name, params, got, tc.want)
			}
		}
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	if _, err := Build("no-such-policy", nil, nil); err == nil {
		t.Fatalf("Build accepted an unknown policy name")
	}
	if _, err := Build("sysscale", []byte(`{"bogus_knob":1}`), nil); err == nil {
		t.Fatalf("Build accepted unknown params fields")
	}
	if _, err := Build("sysscale", nil, []string{"no-such-wrapper"}); err == nil {
		t.Fatalf("Build accepted an unknown wrapper name")
	}
	if _, err := Build("sysscale", []byte(`{} {}`), nil); err == nil {
		t.Fatalf("Build accepted trailing params data")
	}
}

// appendCase is one policy decomposed through the registry: the base
// policy's codec, the params source and the wrapper chain Build must
// reapply to get want back.
type appendCase struct {
	name       string
	codec      Codec
	want, base soc.Policy
	wrap       []string
}

// appendCases decomposes every registryPolicies entry into its base
// and wrapper names. Each base also appears with every exported field
// moved off its default, so a parameter the appender omits cannot hide
// behind the constructor default that Decode fills in.
func appendCases(t *testing.T) []appendCase {
	t.Helper()
	var cases []appendCase
	for _, p := range registryPolicies() {
		base, wrap := p, []string(nil)
		for {
			wname, ok := WrapperNameFor(base)
			if !ok {
				break
			}
			wrap = append(wrap, wname)
			base = base.(interface{ Unwrap() soc.Policy }).Unwrap()
		}
		name, c, ok := CodecFor(base)
		if !ok {
			t.Fatalf("CodecFor(%s): not registered", base.Name())
		}
		moved := base.Clone()
		bumpExported(reflect.ValueOf(moved).Elem())
		cases = append(cases,
			appendCase{name, c, p, base, wrap},
			appendCase{name, c, moved, moved, nil})
	}
	return cases
}

// TestDeconstructBuildRoundTrip proves Build inverts the registry's
// decomposition of a policy: Build(name, AppendParams(p), wrap)
// rebuilds a policy DeepEqual to p.
func TestDeconstructBuildRoundTrip(t *testing.T) {
	for _, tc := range appendCases(t) {
		params, ok := tc.codec.AppendParams(nil, tc.base)
		if !ok {
			t.Fatalf("%s: AppendParams rejected its own type", tc.name)
		}
		back, err := Build(tc.name, params, tc.wrap)
		if err != nil {
			t.Fatalf("Build(%s, %s, %v): %v", tc.name, params, tc.wrap, err)
		}
		if got, want := back.Name(), tc.want.Name(); got != want {
			t.Errorf("round-trip of %s: Name() = %q, want %q", tc.name, got, want)
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("round-trip of %s: rebuilt policy differs: %#v vs %#v", tc.want.Name(), back, tc.want)
		}
	}
}

// TestAppendParamsCanonical proves each codec's appender, the only
// params encoder, emits canonical JSON: already sorted and compact, so
// re-marshaling it changes no byte. The spec layer's canonical-bytes
// contract rests on this.
func TestAppendParamsCanonical(t *testing.T) {
	for _, tc := range appendCases(t) {
		params, ok := tc.codec.AppendParams(nil, tc.base)
		if !ok {
			t.Fatalf("%s: AppendParams rejected its own type", tc.name)
		}
		canon, err := canonicalJSON(params)
		if err != nil {
			t.Fatalf("%s: canonicalize %s: %v", tc.name, params, err)
		}
		if !bytes.Equal(params, canon) {
			t.Errorf("%s: AppendParams = %s, want canonical %s", tc.name, params, canon)
		}
	}
}

// bumpExported moves every exported scalar field under v (which must
// be settable) to a different value.
func bumpExported(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				bumpExported(v.Field(i))
			}
		}
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	}
}

// canonicalJSON re-marshals raw through a number-preserving decode so
// object keys come out sorted and whitespace-free while numeric
// literals stay byte-identical.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}

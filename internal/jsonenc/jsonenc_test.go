package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON pins the package contract: every
// appender emits exactly the bytes encoding/json would.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3.0, 4.5, 2.4e9, 1.6e9,
		1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 1.5e21, -1e-9, 6.5e9, 150e6,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1.05, 0.42,
		// The edges of the integral fast path. Above 2^53 an integer's
		// shortest form can differ from its digits: 2^54+8 renders as
		// 18014398509481990.
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2),
		1<<54 + 8, 123456789012345, 1e15, 4e20,
	}
	for _, f := range floats {
		checkAppendFloat(t, f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendFloat(nil, f); ok {
			t.Errorf("AppendFloat(%v) should report no JSON rendering", f)
		}
	}
}

// checkAppendFloat compares AppendFloat with encoding/json on one
// finite value.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	got, ok := AppendFloat(nil, f)
	if !ok {
		t.Fatalf("AppendFloat(%v): not ok", f)
	}
	if string(got) != string(want) {
		t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
	}
}

// FuzzAppendFloat holds AppendFloat to encoding/json on arbitrary
// float bits, and on the integer the same bits make when shifted into
// ±2^55, a range across the integral fast path's 2^53 bound.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1, 0.5, 1<<53 - 1, 1 << 53, 1e21, 1e-7} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if _, ok := AppendFloat(nil, v); ok {
				t.Errorf("AppendFloat(%v) should report no JSON rendering", v)
			}
			return
		}
		checkAppendFloat(t, v)
		checkAppendFloat(t, float64(int64(bits)>>8))
	})
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	strings := []string{
		"", "plain", "with space", `quote " backslash \`,
		"tab\tnewline\ncr\rbell\bformfeed\f", "nul\x00esc\x1b",
		"<script>&amp;</script>", "héllo wörld", "日本語", "emoji 🚀",
		"line\u2028sep\u2029para", "invalid\xff\xfe utf8", "\x7f del",
	}
	for _, s := range strings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendScalarsMatchEncodingJSON(t *testing.T) {
	if got := string(AppendInt(nil, -42)); got != "-42" {
		t.Errorf("AppendInt(-42) = %s", got)
	}
	if got := string(AppendBool(nil, true)); got != "true" {
		t.Errorf("AppendBool(true) = %s", got)
	}
}

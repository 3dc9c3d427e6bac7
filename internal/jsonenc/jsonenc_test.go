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
	}
	for _, f := range floats {
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
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendFloat(nil, f); ok {
			t.Errorf("AppendFloat(%v) should report no JSON rendering", f)
		}
	}
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

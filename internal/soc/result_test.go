package soc

import (
	"math"
	"testing"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// TestResultCheck checks that a simulated Result passes Check and that
// each corrupted invariant, and a NaN in its place, fails it.
func TestResultCheck(t *testing.T) {
	cfg := testConfig(t, "470.lbm")
	cfg.Policy = lowPin(true)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(1e-12); err != nil {
		t.Fatalf("simulated result fails Check: %v", err)
	}
	corrupt := map[string]func(r *Result){
		"energy":        func(r *Result) { r.Energy *= 1 + 1e-9 },
		"rail":          func(r *Result) { r.RailAvg[vf.RailVSA] += 1e-6 },
		"residency":     func(r *Result) { r.PointResidency[0] += 1e-9 },
		"score":         func(r *Result) { r.Score = r.ActiveScore * (1 + 1e-9) },
		"nan power":     func(r *Result) { r.AvgPower = power.Watt(math.NaN()) },
		"nan residency": func(r *Result) { r.PointResidency[1] = math.NaN() },
	}
	for name, f := range corrupt {
		r := res
		r.PointResidency = append([]float64(nil), res.PointResidency...)
		f(&r)
		if err := r.Check(1e-12); err == nil {
			t.Errorf("%s: corrupted result passes Check", name)
		}
	}
}

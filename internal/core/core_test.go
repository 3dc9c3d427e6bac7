package core

import (
	"math"
	"testing"
	"testing/quick"

	"sysscale/internal/ioengine"
	"sysscale/internal/perfcounters"
	"sysscale/internal/sim"
)

func testThresholds() Thresholds {
	return Thresholds{
		GfxMisses:   100e6,
		OccTracer:   5,
		LLCStalls:   15,
		IORPQ:       3,
		StaticBWThr: 6e9,
		DegradBound: 0.03,
	}
}

func sample(gfx, occ, stalls, iorpq float64) perfcounters.Sample {
	var s perfcounters.Sample
	s[perfcounters.GfxLLCMisses] = gfx
	s[perfcounters.LLCOccupancyTracer] = occ
	s[perfcounters.LLCStalls] = stalls
	s[perfcounters.IORPQ] = iorpq
	return s
}

func TestDecideFiveConditions(t *testing.T) {
	thr := testThresholds()
	// All quiet: low point.
	d := Decide(thr, StaticDemand{}, sample(0, 0, 0, 0))
	if d.High || d.Reasons != 0 {
		t.Fatal("quiet system sent high")
	}
	// Each condition individually (paper's five conditions, §4.3).
	cases := []struct {
		static StaticDemand
		s      perfcounters.Sample
		want   Condition
	}{
		{StaticDemand{DisplayBW: 7e9}, sample(0, 0, 0, 0), CondStaticBW},
		{StaticDemand{}, sample(150e6, 0, 0, 0), CondGfxBandwidth},
		{StaticDemand{}, sample(0, 6, 0, 0), CondCoreBandwidth},
		{StaticDemand{}, sample(0, 0, 20, 0), CondMemLatency},
		{StaticDemand{}, sample(0, 0, 0, 4), CondIOLatency},
	}
	for _, c := range cases {
		d := Decide(thr, c.static, c.s)
		if !d.High {
			t.Errorf("condition %v: got low", c.want)
		}
		for cond := CondStaticBW; cond <= CondIOLatency; cond++ {
			if d.Reasons.Has(cond) != (cond == c.want) {
				t.Errorf("condition %v: reason %v recorded %v", c.want, cond, d.Reasons.Has(cond))
			}
		}
	}
	// Multiple conditions accumulate.
	d = Decide(thr, StaticDemand{DisplayBW: 7e9}, sample(150e6, 6, 20, 4))
	for cond := CondStaticBW; cond <= CondIOLatency; cond++ {
		if !d.Reasons.Has(cond) {
			t.Errorf("all conditions hold, but reason %v is missing", cond)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	for c := CondStaticBW; c <= CondIOLatency; c++ {
		if c.String() == "" {
			t.Fatal("empty condition string")
		}
	}
}

func TestStaticEstimator(t *testing.T) {
	var est StaticEstimator
	csr := ioengine.SingleHDLaptop()
	d := est.Estimate(csr)
	if d.DisplayBW != csr.DisplayBandwidth() || d.CameraBW != 0 {
		t.Fatal("estimate does not match CSR")
	}
	csr.Camera = ioengine.Camera1080p
	d = est.Estimate(csr)
	if d.CameraBW != ioengine.Camera1080p.Bandwidth() {
		t.Fatal("camera demand missing")
	}
	if d.Total() != d.DisplayBW+d.CameraBW {
		t.Fatal("total wrong")
	}
}

func TestThresholdValidate(t *testing.T) {
	if err := testThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testThresholds()
	bad.DegradBound = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bound accepted")
	}
	bad = testThresholds()
	bad.OccTracer = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative threshold accepted")
	}
	bad = testThresholds()
	bad.StaticBWThr = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero static threshold accepted")
	}
}

// makeRuns builds a calibration population where degradation is a
// monotone function of the occupancy counter plus noise.
func makeRuns(n int, seed uint64) []CalibrationRun {
	rng := sim.NewRNG(seed)
	runs := make([]CalibrationRun, n)
	for i := range runs {
		occ := rng.Range(0, 12)
		degr := occ/12*0.10 + rng.Range(0, 0.005)
		runs[i] = CalibrationRun{
			Counters:    sample(0, occ, occ*2.2, rng.Range(0, 2)),
			Degradation: degr,
		}
	}
	return runs
}

func TestCalibrateThresholdsMuSigma(t *testing.T) {
	runs := makeRuns(200, 3)
	thr, err := CalibrateThresholds(runs, 0.03, 6e9)
	if err != nil {
		t.Fatal(err)
	}
	// µ+σ over the below-bound population (§4.2 / [81]).
	var safeOcc []float64
	for _, r := range runs {
		if r.Degradation < 0.03 {
			safeOcc = append(safeOcc, r.Counters.Get(perfcounters.LLCOccupancyTracer))
		}
	}
	var mean float64
	for _, v := range safeOcc {
		mean += v
	}
	mean /= float64(len(safeOcc))
	var varr float64
	for _, v := range safeOcc {
		varr += (v - mean) * (v - mean)
	}
	sigma := math.Sqrt(varr / float64(len(safeOcc)))
	if math.Abs(thr.OccTracer-(mean+sigma)) > 1e-9 {
		t.Fatalf("threshold = %v, want mu+sigma = %v", thr.OccTracer, mean+sigma)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := CalibrateThresholds(nil, 0.03, 6e9); err == nil {
		t.Fatal("empty calibration accepted")
	}
	if _, err := CalibrateThresholds(makeRuns(10, 1), 2.0, 6e9); err == nil {
		t.Fatal("bound >= 1 accepted")
	}
	// All runs above the bound: cannot calibrate.
	runs := []CalibrationRun{{Degradation: 0.5}, {Degradation: 0.6}}
	if _, err := CalibrateThresholds(runs, 0.03, 6e9); err == nil {
		t.Fatal("unsafe-only population accepted")
	}
}

func TestEnforceNoFalsePositives(t *testing.T) {
	runs := makeRuns(300, 7)
	thr, err := CalibrateThresholds(runs, 0.03, 6e9)
	if err != nil {
		t.Fatal(err)
	}
	thr = EnforceNoFalsePositives(thr, runs)
	if fp := FalsePositiveCount(thr, runs); fp != 0 {
		t.Fatalf("false positives remain: %d (paper: zero, §4.2)", fp)
	}
}

func TestNoFalsePositivesProperty(t *testing.T) {
	// Property: for any seeded population, the guard pass leaves zero
	// false positives on that population.
	err := quick.Check(func(seed uint64) bool {
		runs := makeRuns(120, seed)
		thr, err := CalibrateThresholds(runs, 0.03, 6e9)
		if err != nil {
			return true // degenerate population
		}
		thr = EnforceNoFalsePositives(thr, runs)
		return FalsePositiveCount(thr, runs) == 0
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccuracy(t *testing.T) {
	runs := makeRuns(300, 11)
	thr, _ := CalibrateThresholds(runs, 0.03, 6e9)
	thr = EnforceNoFalsePositives(thr, runs)
	acc := Accuracy(thr, runs)
	if acc < 0.85 {
		t.Fatalf("accuracy %.2f too low on a cleanly separable population", acc)
	}
	if Accuracy(thr, nil) != 0 {
		t.Fatal("empty accuracy not zero")
	}
}

func TestPredictor(t *testing.T) {
	rng := sim.NewRNG(5)
	var train []TrainingSample
	for i := 0; i < 120; i++ {
		occ := rng.Range(0, 12)
		stalls := occ * 2.2
		norm := 1 - occ/12*0.12
		train = append(train, TrainingSample{
			Counters: sample(0, occ, stalls, 0),
			NormPerf: norm,
		})
	}
	var p Predictor
	if p.Trained() {
		t.Fatal("untrained predictor claims trained")
	}
	if p.Predict(sample(0, 6, 13, 0)) != 1 {
		t.Fatal("untrained predictor must return 1")
	}
	if err := p.Train(train); err != nil {
		t.Fatal(err)
	}
	if !p.Trained() {
		t.Fatal("trained predictor not marked")
	}
	// Prediction tracks the generating function.
	got := p.Predict(sample(0, 6, 13.2, 0))
	want := 1 - 6.0/12*0.12
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("predict = %v, want ~%v", got, want)
	}
	// Clamped to [0, 1].
	if p.Predict(sample(0, 1e6, 1e6, 1e6)) < 0 {
		t.Fatal("prediction below zero")
	}
	corr := p.EvaluatePrediction(train)
	if corr < 0.99 {
		t.Fatalf("self-correlation = %v", corr)
	}
}

func TestPredictorNeedsSamples(t *testing.T) {
	var p Predictor
	if err := p.Train(make([]TrainingSample, 3)); err == nil {
		t.Fatal("tiny training set accepted")
	}
}

package core

import (
	"fmt"

	"sysscale/internal/perfcounters"
	"sysscale/internal/stats"
)

// Predictor is the dynamic-demand performance predictor behind Fig. 6:
// a linear model over the four SysScale counters that predicts the
// normalized performance a workload would retain after reducing the
// DRAM frequency from one bin to a lower one. One model is trained per
// (high bin, low bin) frequency pair, exactly as the paper evaluates
// three pairs (1.6→0.8, 1.6→1.06, 2.13→1.06 GHz).
type Predictor struct {
	model   stats.LinearModel
	trained bool
}

// features extracts the model inputs from a counter sample.
func features(c perfcounters.Sample) []float64 {
	return []float64{
		c.Get(perfcounters.GfxLLCMisses),
		c.Get(perfcounters.LLCOccupancyTracer),
		c.Get(perfcounters.LLCStalls),
		c.Get(perfcounters.IORPQ),
	}
}

// TrainingSample pairs the counters observed at the high bin with the
// measured normalized performance at the low bin (1.0 = no loss).
type TrainingSample struct {
	Counters perfcounters.Sample
	NormPerf float64
}

// Train fits the predictor on calibration samples.
func (p *Predictor) Train(samples []TrainingSample) error {
	if len(samples) < 8 {
		return fmt.Errorf("core: need at least 8 training samples, have %d", len(samples))
	}
	rows := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = features(s.Counters)
		ys[i] = s.NormPerf
	}
	m, err := stats.FitLinear(rows, ys)
	if err != nil {
		return fmt.Errorf("core: predictor fit: %w", err)
	}
	p.model = m
	p.trained = true
	return nil
}

// Trained reports whether Train has succeeded.
func (p *Predictor) Trained() bool { return p.trained }

// Predict returns the predicted normalized performance (clamped to
// [0, 1]) for a workload with the given high-bin counters.
func (p *Predictor) Predict(c perfcounters.Sample) float64 {
	if !p.trained {
		return 1
	}
	y := p.model.Predict(features(c))
	if y > 1 {
		y = 1
	}
	if y < 0 {
		y = 0
	}
	return y
}

// EvaluatePrediction scores the predictor on a labeled set, returning
// the Pearson correlation between actual and predicted normalized
// performance (the per-panel statistic of Fig. 6).
func (p *Predictor) EvaluatePrediction(samples []TrainingSample) float64 {
	actual := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		actual[i] = s.NormPerf
		pred[i] = p.Predict(s.Counters)
	}
	return stats.Correlation(actual, pred)
}

// Package gen is the stochastic workload generator: a deterministic,
// seed-driven source of simulation scenarios far beyond the hand-written
// suites in internal/workload.
//
// A generated workload is a realization of a Markov chain over workload
// classes (compute-bound, memory-latency-bound, memory-bandwidth-bound,
// graphics, idle-heavy, bursty-interactive). Each visit to a state
// emits one phase: the dwell time is drawn log-normally, and the
// phase's CPI-stack fractions, bandwidth demands and C-state residency
// are drawn from per-class intensity distributions. All randomness
// flows through one sim.RNG seeded from Config.Seed, so a seed fully
// determines the emitted workloads — byte-for-byte, across runs and
// GOMAXPROCS settings (the seed-reproducibility contract the Monte
// Carlo robustness suite and the property tests rely on). The
// contract is per architecture/toolchain: the integer RNG stream is
// universally stable, but Go may evaluate the float draw arithmetic
// with fused multiply-adds on some architectures, which can perturb
// low mantissa bits between, say, amd64 and arm64. Traces shared
// across architectures carry the recorded workloads for exactly this
// reason (see trace.go).
//
// Composable mutators (mutate.go) derive scenario families from
// existing workloads — canonical or generated — and the trace format
// (trace.go) persists generated scenario sets as JSON with enough
// provenance to replay and re-verify them.
package gen

import (
	"fmt"
	"math"
	"time"

	"sysscale/internal/compute"
	"sysscale/internal/sim"
	"sysscale/internal/workload"
)

// Class is a generator workload class: the state space of the Markov
// phase-transition model.
type Class int

// The six generator classes. They deliberately mirror the bottleneck
// structures the paper's evaluation exercises: SPEC-like compute and
// memory bound behaviour (§7.1), 3DMark-like graphics scenes (§7.2),
// battery-workload idling (§7.3), and the spiky interactive pattern of
// astar/perlbench (Fig. 3a).
const (
	ComputeBound Class = iota
	MemLatencyBound
	MemBWBound
	GraphicsBound
	IdleHeavy
	BurstyInteractive

	NumClasses = 6
)

func (c Class) String() string {
	switch c {
	case ComputeBound:
		return "compute"
	case MemLatencyBound:
		return "mem-lat"
	case MemBWBound:
		return "mem-bw"
	case GraphicsBound:
		return "graphics"
	case IdleHeavy:
		return "idle"
	case BurstyInteractive:
		return "bursty"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Matrix is a row-stochastic transition matrix over the generator
// classes: Matrix[i][j] is the unnormalized weight of moving from class
// i to class j at a phase boundary. Rows need not sum to 1 — they are
// normalized at draw time — but every row must have positive mass.
type Matrix [NumClasses][NumClasses]float64

// DefaultMatrix returns the default phase-transition structure: strong
// self-loops (workloads dwell in a behaviour for several phases, like
// the several-second astar phases of §7.1), with the remaining mass
// spread over plausible neighbours (compute ↔ memory phases, graphics
// scenes interleaved with bursts, idle periods entered from anywhere).
func DefaultMatrix() Matrix {
	return Matrix{
		//                 comp  lat   bw    gfx   idle  burst
		ComputeBound:      {0.55, 0.15, 0.10, 0.02, 0.08, 0.10},
		MemLatencyBound:   {0.18, 0.50, 0.17, 0.02, 0.05, 0.08},
		MemBWBound:        {0.12, 0.18, 0.55, 0.03, 0.04, 0.08},
		GraphicsBound:     {0.05, 0.04, 0.06, 0.65, 0.08, 0.12},
		IdleHeavy:         {0.12, 0.06, 0.04, 0.06, 0.58, 0.14},
		BurstyInteractive: {0.16, 0.10, 0.10, 0.06, 0.18, 0.40},
	}
}

// Validate checks that every row has positive mass and no negative
// weights.
func (m Matrix) Validate() error {
	for i, row := range m {
		total := 0.0
		for j, w := range row {
			if w < 0 {
				return fmt.Errorf("gen: negative transition weight [%d][%d]", i, j)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("gen: transition row %d has zero mass", i)
		}
	}
	return nil
}

// Config parameterizes the generator. The zero value is not usable;
// start from DefaultConfig and override fields.
type Config struct {
	// Seed drives every draw. Identical configs produce byte-identical
	// workloads.
	Seed uint64 `json:"seed"`

	// NamePrefix prefixes generated workload names (default "gen").
	NamePrefix string `json:"name_prefix,omitempty"`

	// Phases is the number of phases per workload (default 8).
	Phases int `json:"phases"`

	// StartWeights is the initial-class distribution (default uniform).
	StartWeights []float64 `json:"start_weights,omitempty"`

	// Transitions is the Markov transition structure (default
	// DefaultMatrix). The pointer keeps the zero Config JSON-compact.
	Transitions *Matrix `json:"transitions,omitempty"`

	// MeanDwell is the median phase dwell time (default 500ms); the
	// log-normal sigma DwellSigma (default 0.45) sets its spread. Dwells
	// are clamped to [MinDwell, MaxDwell] (defaults 20ms, 4s) and
	// quantized to 1ms.
	MeanDwell  sim.Time `json:"mean_dwell"`
	DwellSigma float64  `json:"dwell_sigma"`
	MinDwell   sim.Time `json:"min_dwell"`
	MaxDwell   sim.Time `json:"max_dwell"`

	// BWScale scales every drawn bandwidth demand (default 1). Sweeps
	// use it to push scenario families toward or away from saturation.
	BWScale float64 `json:"bw_scale"`

	// MaxCores bounds ActiveCores for CPU phases (default 2, the
	// platform's core count).
	MaxCores int `json:"max_cores"`
}

// DefaultConfig returns the default generator parameters for a seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:       seed,
		NamePrefix: "gen",
		Phases:     8,
		MeanDwell:  500 * sim.Millisecond,
		DwellSigma: 0.45,
		MinDwell:   20 * sim.Millisecond,
		MaxDwell:   4 * sim.Second,
		BWScale:    1,
		MaxCores:   2,
	}
}

// withDefaults fills unset fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Seed)
	if c.NamePrefix == "" {
		c.NamePrefix = d.NamePrefix
	}
	if c.Phases <= 0 {
		c.Phases = d.Phases
	}
	if c.MeanDwell <= 0 {
		c.MeanDwell = d.MeanDwell
	}
	if c.DwellSigma <= 0 {
		c.DwellSigma = d.DwellSigma
	}
	if c.MinDwell <= 0 {
		c.MinDwell = d.MinDwell
	}
	if c.MaxDwell <= 0 {
		c.MaxDwell = d.MaxDwell
	}
	if c.BWScale <= 0 {
		c.BWScale = d.BWScale
	}
	if c.MaxCores <= 0 {
		c.MaxCores = d.MaxCores
	}
	return c
}

// Validate checks the configuration (after default filling).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MinDwell > c.MaxDwell {
		return fmt.Errorf("gen: MinDwell %v exceeds MaxDwell %v", time.Duration(c.MinDwell), time.Duration(c.MaxDwell))
	}
	if c.StartWeights != nil && len(c.StartWeights) != NumClasses {
		return fmt.Errorf("gen: StartWeights has %d entries, want %d", len(c.StartWeights), NumClasses)
	}
	if c.Transitions != nil {
		if err := c.Transitions.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Generate emits one workload from the configuration. The result is
// guaranteed Validate-clean; Generate panics only on an invalid Config
// (use Config.Validate to check first when the config is untrusted).
func Generate(cfg Config) workload.Workload {
	ws := GenerateN(cfg, 1)
	return ws[0]
}

// GenerateN emits n workloads from one configuration. Workload i is
// named "<prefix>-<seed>-<i>" and drawn from an RNG forked off the
// master stream, so generating n workloads and generating the first
// n-1 yield identical prefixes (stream stability under extension).
func GenerateN(cfg Config, n int) []workload.Workload {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	trans := cfg.Transitions
	if trans == nil {
		m := DefaultMatrix()
		trans = &m
	}
	master := sim.NewRNG(cfg.Seed)
	out := make([]workload.Workload, 0, n)
	for i := 0; i < n; i++ {
		rng := master.Fork()
		out = append(out, generateOne(cfg, *trans, rng, fmt.Sprintf("%s-%d-%04d", cfg.NamePrefix, cfg.Seed, i)))
	}
	return out
}

// generateOne realizes one Markov chain walk.
func generateOne(cfg Config, trans Matrix, rng *sim.RNG, name string) workload.Workload {
	start := cfg.StartWeights
	if start == nil {
		start = uniformWeights()
	}
	state := Class(rng.Pick(start))

	phases := make([]workload.Phase, 0, cfg.Phases)
	classTime := [NumClasses]sim.Time{}
	for i := 0; i < cfg.Phases; i++ {
		p := drawPhase(cfg, rng, state)
		phases = append(phases, p)
		classTime[state] += p.Duration
		state = Class(rng.Pick(trans[state][:]))
	}
	return workload.Workload{
		Name:   name,
		Class:  workloadClass(classTime),
		Phases: phases,
	}
}

func uniformWeights() []float64 {
	w := make([]float64, NumClasses)
	for i := range w {
		w[i] = 1
	}
	return w
}

// workloadClass maps the dominant generated class (by dwell time) onto
// the workload package's evaluation categories.
func workloadClass(classTime [NumClasses]sim.Time) workload.Class {
	dom, max := ComputeBound, sim.Time(-1)
	for c, t := range classTime {
		if t > max {
			dom, max = Class(c), t
		}
	}
	switch dom {
	case GraphicsBound:
		return workload.Graphics
	case IdleHeavy, BurstyInteractive:
		return workload.Battery
	default:
		return workload.CPUSingleThread
	}
}

// dwellBounds returns the clamp window aligned inward onto the 1ms
// grid (MinDwell rounded up, MaxDwell rounded down), so a clamped,
// quantized dwell always satisfies both the [MinDwell, MaxDwell]
// contract and the grid. A window too narrow to contain a grid point
// degenerates to its lower edge.
func dwellBounds(cfg Config) (lo, hi sim.Time) {
	lo = (cfg.MinDwell + sim.Millisecond - 1) / sim.Millisecond * sim.Millisecond
	if lo < sim.Millisecond {
		lo = sim.Millisecond
	}
	hi = cfg.MaxDwell / sim.Millisecond * sim.Millisecond
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// drawDwell draws a log-normal dwell time centred on MeanDwell,
// quantized to 1ms (so traces stay readable and the JSON round trip is
// exact) and clamped to the grid-aligned [MinDwell, MaxDwell] window.
func drawDwell(cfg Config, rng *sim.RNG) sim.Time {
	mu := math.Log(float64(cfg.MeanDwell))
	d := sim.Time(rng.LogNormal(mu, cfg.DwellSigma))
	d = d / sim.Millisecond * sim.Millisecond
	lo, hi := dwellBounds(cfg)
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d
}

// drawPhase emits one phase of the given class. Every class keeps the
// CPI fractions summing below 1 and the residency a distribution, so
// generated workloads are Validate-clean by construction.
func drawPhase(cfg Config, rng *sim.RNG, class Class) workload.Phase {
	p := workload.Phase{
		Duration:  drawDwell(cfg, rng),
		Residency: compute.FullyActive(),
	}
	gb := func(lo, hi float64) float64 { return rng.Range(lo, hi) * 1e9 * cfg.BWScale }
	cores := func(min int) int {
		if cfg.MaxCores <= min {
			return min
		}
		return min + rng.Intn(cfg.MaxCores-min+1)
	}
	switch class {
	case ComputeBound:
		p.CoreFrac = rng.Range(0.78, 0.96)
		p.MemLatFrac = rng.Range(0.01, 0.10)
		p.MemBWFrac = rng.Range(0.005, 0.05)
		p.MemBW = gb(0.3, 2.2)
		p.ActiveCores = cores(1)
		p.CoreActivity = rng.Range(0.70, 0.90)
	case MemLatencyBound:
		p.CoreFrac = rng.Range(0.18, 0.38)
		p.MemLatFrac = rng.Range(0.40, 0.60)
		p.MemBWFrac = rng.Range(0.05, 0.15)
		p.MemBW = gb(1.5, 4.5)
		p.ActiveCores = cores(1)
		p.CoreActivity = rng.Range(0.40, 0.58)
	case MemBWBound:
		p.CoreFrac = rng.Range(0.10, 0.25)
		p.MemLatFrac = rng.Range(0.10, 0.25)
		p.MemBWFrac = rng.Range(0.45, 0.68)
		p.MemBW = gb(5.5, 11.5)
		p.ActiveCores = cores(1)
		p.CoreActivity = rng.Range(0.40, 0.52)
	case GraphicsBound:
		p.GfxFrac = rng.Range(0.50, 0.80)
		p.CoreFrac = rng.Range(0.05, 0.14)
		mem := rng.Range(0.04, 0.18)
		latShare := rng.Range(0.25, 0.40)
		p.MemLatFrac = mem * latShare
		p.MemBWFrac = mem * (1 - latShare)
		p.MemBW = gb(4, 14)
		p.ActiveCores = 1
		p.CoreActivity = rng.Range(0.25, 0.45)
		p.GfxActivity = rng.Range(0.50, 0.95)
	case IdleHeavy:
		p.CoreFrac = rng.Range(0.15, 0.45)
		p.GfxFrac = rng.Range(0.02, 0.15)
		p.MemLatFrac = rng.Range(0.08, 0.18)
		p.MemBWFrac = rng.Range(0.03, 0.12)
		p.IOFrac = rng.Range(0.04, 0.16)
		p.MemBW = gb(0.8, 5.0)
		p.IOBW = gb(0.1, 1.5)
		p.ActiveCores = cores(1)
		p.CoreActivity = rng.Range(0.25, 0.60)
		p.GfxActivity = rng.Range(0.08, 0.35)
		c0 := rng.Range(0.08, 0.38)
		c2 := rng.Range(0.01, 0.10)
		c6 := rng.Range(0.05, 0.35) * (1 - c0 - c2)
		p.Residency = compute.Residency{C0: c0, C2: c2, C6: c6, C8: 1 - c0 - c2 - c6}
	case BurstyInteractive:
		// A short, intense burst: high demand at partial residency —
		// the scroll/render pattern of the battery web workload and the
		// astar spike pattern compressed into one phase.
		p.CoreFrac = rng.Range(0.35, 0.60)
		p.GfxFrac = rng.Range(0.02, 0.12)
		p.MemLatFrac = rng.Range(0.10, 0.22)
		p.MemBWFrac = rng.Range(0.08, 0.25)
		p.IOFrac = rng.Range(0.02, 0.10)
		p.MemBW = gb(2.5, 9.0)
		p.IOBW = gb(0.05, 0.6)
		p.ActiveCores = cores(1)
		p.CoreActivity = rng.Range(0.55, 0.85)
		p.GfxActivity = rng.Range(0.10, 0.40)
		c0 := rng.Range(0.30, 0.65)
		c2 := rng.Range(0.01, 0.08)
		p.Residency = compute.Residency{C0: c0, C2: c2, C8: 1 - c0 - c2}
		// Bursts are shorter than sustained phases; re-quantize and
		// re-clamp so the emitted duration stays on the grid and in the
		// dwell window.
		p.Duration = p.Duration / 2 / sim.Millisecond * sim.Millisecond
		if lo, _ := dwellBounds(cfg); p.Duration < lo {
			p.Duration = lo
		}
	}
	capFracs(&p)
	return p
}

// fracCap is the ceiling the CPI fractions are normalized under; the
// remainder is the OtherFrac slack every real CPI stack has.
const fracCap = 0.97

// capFracs rescales the CPI fractions when independent draws land
// above the cap, keeping the phase Validate-clean (fractions must sum
// to at most 1) while preserving the drawn bottleneck ratios.
func capFracs(p *workload.Phase) {
	sum := p.CoreFrac + p.GfxFrac + p.MemLatFrac + p.MemBWFrac + p.IOFrac
	if sum <= fracCap {
		return
	}
	s := fracCap / sum
	p.CoreFrac *= s
	p.GfxFrac *= s
	p.MemLatFrac *= s
	p.MemBWFrac *= s
	p.IOFrac *= s
}

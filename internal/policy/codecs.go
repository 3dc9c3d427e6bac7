package policy

import (
	"reflect"

	"sysscale/internal/core"
	"sysscale/internal/jsonenc"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
)

// This file registers the codec for every governor family the
// experiments use. Parameter structs mirror each family's exported
// tuning knobs with snake_case JSON names; Decode overlays them on the
// constructor defaults. Fields are declared in the key order of the
// canonical encoding (alphabetical), and each AppendParams emits the
// sorted, compact JSON of the live policy's fully-populated params —
// TestAppendParamsCanonical (registry_test.go) proves the form and
// TestDeconstructBuildRoundTrip that Decode inverts it.

// BaselineParams is empty: the baseline has no tuning knobs.
type BaselineParams struct{}

// SysScaleThresholds carries the §4.2 decision thresholds.
type SysScaleThresholds struct {
	DegradBound float64 `json:"degrad_bound"`
	GfxMisses   float64 `json:"gfx_misses"`
	IORPQ       float64 `json:"io_rpq"`
	LLCStalls   float64 `json:"llc_stalls"`
	OccTracer   float64 `json:"occ_tracer"`
	StaticBWThr float64 `json:"static_bw_thr"`
}

// SysScaleParams parameterizes the SysScale governor.
type SysScaleParams struct {
	HighScale  float64            `json:"high_scale"`
	Thresholds SysScaleThresholds `json:"thresholds"`
}

// MemScaleParams parameterizes the MemScale comparator; Redistribute
// selects the §6 -Redist variant.
type MemScaleParams struct {
	Redistribute bool    `json:"redistribute"`
	StallThr     float64 `json:"stall_thr"`
	UtilTarget   float64 `json:"util_target"`
}

// CoScaleParams parameterizes the CoScale comparator; Redistribute
// selects the §6 -Redist variant.
type CoScaleParams struct {
	DemoteRatio  float64 `json:"demote_ratio"`
	FloorHz      float64 `json:"floor_hz"`
	MemBoundThr  float64 `json:"mem_bound_thr"`
	Redistribute bool    `json:"redistribute"`
	StallThr     float64 `json:"stall_thr"`
	UtilTarget   float64 `json:"util_target"`
}

// StaticPointParams parameterizes the pinned-point policy of the §3
// motivation experiments.
type StaticPointParams struct {
	OptimizedMRC bool `json:"optimized_mrc"`
	PointIndex   int  `json:"point_index"`
	Redistribute bool `json:"redistribute"`
}

func init() {
	mustRegister("baseline", Codec{
		Type: reflect.TypeOf(&Baseline{}),
		Decode: func(params []byte) (soc.Policy, error) {
			var p BaselineParams
			if err := strictUnmarshal(params, &p); err != nil {
				return nil, err
			}
			return NewBaseline(), nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			if _, ok := p.(*Baseline); !ok {
				return b, false
			}
			return append(b, '{', '}'), true
		},
	})

	mustRegister("sysscale", Codec{
		Type: reflect.TypeOf(&SysScale{}),
		Decode: func(params []byte) (soc.Policy, error) {
			s := NewSysScaleDefault()
			p := SysScaleParams{
				HighScale: s.HighScale,
				Thresholds: SysScaleThresholds{
					DegradBound: s.Thr.DegradBound,
					GfxMisses:   s.Thr.GfxMisses,
					IORPQ:       s.Thr.IORPQ,
					LLCStalls:   s.Thr.LLCStalls,
					OccTracer:   s.Thr.OccTracer,
					StaticBWThr: s.Thr.StaticBWThr,
				},
			}
			if err := strictUnmarshal(params, &p); err != nil {
				return nil, err
			}
			s.HighScale = p.HighScale
			s.Thr = core.Thresholds{
				GfxMisses:   p.Thresholds.GfxMisses,
				OccTracer:   p.Thresholds.OccTracer,
				LLCStalls:   p.Thresholds.LLCStalls,
				IORPQ:       p.Thresholds.IORPQ,
				StaticBWThr: p.Thresholds.StaticBWThr,
				DegradBound: p.Thresholds.DegradBound,
			}
			return s, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			s, ok := p.(*SysScale)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `{"high_scale":`, s.HighScale)
			if !ok {
				return b, false
			}
			b = append(b, `,"thresholds":`...)
			b, ok = appendFloatField(b, `{"degrad_bound":`, s.Thr.DegradBound)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"gfx_misses":`, s.Thr.GfxMisses)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"io_rpq":`, s.Thr.IORPQ)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"llc_stalls":`, s.Thr.LLCStalls)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"occ_tracer":`, s.Thr.OccTracer)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"static_bw_thr":`, s.Thr.StaticBWThr)
			if !ok {
				return b, false
			}
			return append(b, '}', '}'), true
		},
	})

	mustRegister("memscale", Codec{
		Type: reflect.TypeOf(&MemScale{}),
		Decode: func(params []byte) (soc.Policy, error) {
			m := NewMemScale()
			p := MemScaleParams{
				Redistribute: m.Redistribute,
				StallThr:     m.StallThr,
				UtilTarget:   m.UtilTarget,
			}
			if err := strictUnmarshal(params, &p); err != nil {
				return nil, err
			}
			m.Redistribute = p.Redistribute
			m.StallThr = p.StallThr
			m.UtilTarget = p.UtilTarget
			return m, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			m, ok := p.(*MemScale)
			if !ok {
				return b, false
			}
			b = append(b, `{"redistribute":`...)
			b = jsonenc.AppendBool(b, m.Redistribute)
			b, ok = appendFloatField(b, `,"stall_thr":`, m.StallThr)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"util_target":`, m.UtilTarget)
			if !ok {
				return b, false
			}
			return append(b, '}'), true
		},
	})

	mustRegister("coscale", Codec{
		Type: reflect.TypeOf(&CoScale{}),
		Decode: func(params []byte) (soc.Policy, error) {
			c := NewCoScale()
			p := CoScaleParams{
				DemoteRatio:  c.DemoteRatio,
				FloorHz:      float64(c.FloorFreq),
				MemBoundThr:  c.MemBoundThr,
				Redistribute: c.Redistribute,
				StallThr:     c.StallThr,
				UtilTarget:   c.UtilTarget,
			}
			if err := strictUnmarshal(params, &p); err != nil {
				return nil, err
			}
			c.DemoteRatio = p.DemoteRatio
			c.FloorFreq = vf.Hz(p.FloorHz)
			c.MemBoundThr = p.MemBoundThr
			c.Redistribute = p.Redistribute
			c.StallThr = p.StallThr
			c.UtilTarget = p.UtilTarget
			return c, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			c, ok := p.(*CoScale)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `{"demote_ratio":`, c.DemoteRatio)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"floor_hz":`, float64(c.FloorFreq))
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"mem_bound_thr":`, c.MemBoundThr)
			if !ok {
				return b, false
			}
			b = append(b, `,"redistribute":`...)
			b = jsonenc.AppendBool(b, c.Redistribute)
			b, ok = appendFloatField(b, `,"stall_thr":`, c.StallThr)
			if !ok {
				return b, false
			}
			b, ok = appendFloatField(b, `,"util_target":`, c.UtilTarget)
			if !ok {
				return b, false
			}
			return append(b, '}'), true
		},
	})

	mustRegister("static-point", Codec{
		Type: reflect.TypeOf(&StaticPoint{}),
		Decode: func(params []byte) (soc.Policy, error) {
			s := NewStaticPoint(0, false)
			p := StaticPointParams{
				OptimizedMRC: s.OptimizedMRC,
				PointIndex:   s.PointIndex,
				Redistribute: s.Redistribute,
			}
			if err := strictUnmarshal(params, &p); err != nil {
				return nil, err
			}
			s.OptimizedMRC = p.OptimizedMRC
			s.PointIndex = p.PointIndex
			s.Redistribute = p.Redistribute
			return s, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			s, ok := p.(*StaticPoint)
			if !ok {
				return b, false
			}
			b = append(b, `{"optimized_mrc":`...)
			b = jsonenc.AppendBool(b, s.OptimizedMRC)
			b = append(b, `,"point_index":`...)
			b = jsonenc.AppendInt(b, int64(s.PointIndex))
			b = append(b, `,"redistribute":`...)
			b = jsonenc.AppendBool(b, s.Redistribute)
			return append(b, '}'), true
		},
	})

	mustRegisterWrapper("no-mrc", Wrapper{
		Type: reflect.TypeOf(&mrcOff{}),
		Wrap: WithoutOptimizedMRC,
	})
	mustRegisterWrapper("no-redist", Wrapper{
		Type: reflect.TypeOf(&noRedist{}),
		Wrap: WithoutRedistribution,
	})
}

// appendFloatField appends a literal prefix (the key) followed by the
// canonical rendering of f; ok is false when f has no JSON rendering.
func appendFloatField(b []byte, prefix string, f float64) ([]byte, bool) {
	b = append(b, prefix...)
	return jsonenc.AppendFloat(b, f)
}

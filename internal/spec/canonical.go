package spec

import (
	"crypto/sha256"
	"fmt"

	"sysscale/internal/jsonenc"
	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// This file produces the canonical bytes of a job — the sorted-key,
// whitespace-free JSON of its normalized spec — directly from a live
// soc.Config, without marshaling, sorting, or allocating. The key
// order below is the alphabetical order json.Marshal-then-canonicalize
// would produce, and TestAppendConfigMatchesCanonicalJSON holds the
// two byte-for-byte equal, so the cheap path and the documented
// definition can never drift apart.

// maxWrapDepth bounds the policy wrapper walk, mirroring the engine's
// Unwrap depth bound: a pathological self-wrapping policy makes the
// config unencodable rather than hanging the encoder.
const maxWrapDepth = 24

// AppendConfig appends cfg's canonical spec bytes to b. ok is false
// when the config has no canonical form: an unregistered policy type,
// an out-of-range enum value, or a float with no JSON rendering (NaN,
// ±Inf) — such configs are uncacheable. On !ok the returned slice is
// b with partial output appended; callers must discard it.
func AppendConfig(b []byte, cfg soc.Config) (_ []byte, ok bool) {
	// knobs
	b = append(b, `{"knobs":{"disable_pbm_memo":`...)
	b = jsonenc.AppendBool(b, cfg.DisablePBMMemo)
	b = append(b, `,"disable_span_batching":`...)
	b = jsonenc.AppendBool(b, cfg.DisableSpanBatching)
	// disable_span_cache has no config field behind it and is always
	// false in canonical bytes (see Knobs).
	b = append(b, `,"disable_span_cache":false,"disable_tick_memo":`...)
	b = jsonenc.AppendBool(b, cfg.DisableTickMemo)

	// platform
	b = append(b, `},"platform":{"csr":{"camera":`...)
	if !knownCamera(cfg.CSR.Camera) {
		return b, false
	}
	b = jsonenc.AppendString(b, cfg.CSR.Camera.String())
	b = append(b, `,"panels":[`...)
	for i, p := range cfg.CSR.Panels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"refresh_hz":`...)
		if b, ok = jsonenc.AppendFloat(b, p.RefreshHz); !ok {
			return b, false
		}
		b = append(b, `,"res":`...)
		if !knownResolution(p.Res) {
			return b, false
		}
		b = jsonenc.AppendString(b, p.Res.String())
		b = append(b, '}')
	}
	b = append(b, `]},"dram":`...)
	if !knownDRAM(cfg.DRAMKind) {
		return b, false
	}
	b = jsonenc.AppendString(b, cfg.DRAMKind.String())
	b = append(b, `,"ladder":[`...)
	for i, op := range cfg.Ladder {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ddr_hz":`...)
		if b, ok = jsonenc.AppendFloat(b, float64(op.DDR)); !ok {
			return b, false
		}
		b = append(b, `,"interco_hz":`...)
		if b, ok = jsonenc.AppendFloat(b, float64(op.Interco)); !ok {
			return b, false
		}
		b = append(b, `,"mc_hz":`...)
		if b, ok = jsonenc.AppendFloat(b, float64(op.MC)); !ok {
			return b, false
		}
		b = append(b, `,"name":`...)
		b = jsonenc.AppendString(b, op.Name)
		b = append(b, `,"vio":`...)
		if b, ok = jsonenc.AppendFloat(b, float64(op.VIO)); !ok {
			return b, false
		}
		b = append(b, `,"vsa":`...)
		if b, ok = jsonenc.AppendFloat(b, float64(op.VSA)); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	b = append(b, `],"tdp_watts":`...)
	if b, ok = jsonenc.AppendFloat(b, float64(cfg.TDP)); !ok {
		return b, false
	}

	// policy
	b = append(b, `},"policy":`...)
	if b, ok = appendPolicy(b, cfg.Policy); !ok {
		return b, false
	}

	// run
	b = append(b, `,"run":{"duration_ns":`...)
	b = jsonenc.AppendInt(b, int64(cfg.Duration))
	b = append(b, `,"eval_interval_ns":`...)
	b = jsonenc.AppendInt(b, int64(cfg.EvalInterval))
	b = append(b, `,"fixed_core_hz":`...)
	if b, ok = jsonenc.AppendFloat(b, float64(cfg.FixedCoreFreq)); !ok {
		return b, false
	}
	b = append(b, `,"fixed_gfx_hz":`...)
	if b, ok = jsonenc.AppendFloat(b, float64(cfg.FixedGfxFreq)); !ok {
		return b, false
	}
	b = append(b, `,"record_events":`...)
	b = jsonenc.AppendBool(b, cfg.RecordEvents)
	b = append(b, `,"sample_interval_ns":`...)
	b = jsonenc.AppendInt(b, int64(cfg.SampleInterval))
	b = append(b, `,"seed":`...)
	b = jsonenc.AppendUint(b, cfg.Seed)
	b = append(b, `,"trace_power":`...)
	b = jsonenc.AppendBool(b, cfg.TracePower)

	// version, workload
	b = append(b, `},"version":`...)
	b = jsonenc.AppendInt(b, Version)
	b = append(b, `,"workload":{"inline":`...)
	if b, ok = appendWorkload(b, cfg.Workload); !ok {
		return b, false
	}
	return append(b, '}', '}'), true
}

// appendPolicy emits the policy object: the registered family name,
// canonical params, and the wrapper list when decorators are present.
func appendPolicy(b []byte, p soc.Policy) (_ []byte, ok bool) {
	if p == nil {
		return b, false
	}
	// Find the base policy under the decorators without materializing
	// the wrapper list ("name" sorts before "wrap").
	base := p
	wrapped := false
	for depth := 0; ; depth++ {
		if depth > maxWrapDepth {
			return b, false
		}
		if _, isWrap := policy.WrapperNameFor(base); !isWrap {
			break
		}
		u, hasUnwrap := base.(interface{ Unwrap() soc.Policy })
		if !hasUnwrap {
			return b, false
		}
		wrapped = true
		base = u.Unwrap()
	}
	name, codec, found := policy.CodecFor(base)
	if !found {
		return b, false
	}
	b = append(b, `{"name":`...)
	b = jsonenc.AppendString(b, name)
	b = append(b, `,"params":`...)
	if b, ok = codec.AppendParams(b, base); !ok {
		return b, false
	}
	if wrapped {
		b = append(b, `,"wrap":[`...)
		first := true
		for w := p; w != base; {
			wname, isWrap := policy.WrapperNameFor(w)
			if !isWrap {
				return b, false
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = jsonenc.AppendString(b, wname)
			w = w.(interface{ Unwrap() soc.Policy }).Unwrap()
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// appendWorkload emits the inline workload in workload's JSON wire
// format (Go field names; the structs carry no tags), keys sorted.
func appendWorkload(b []byte, w workload.Workload) (_ []byte, ok bool) {
	if !knownClass(w.Class) {
		return b, false
	}
	b = append(b, `{"Class":`...)
	b = jsonenc.AppendString(b, w.Class.String())
	b = append(b, `,"Name":`...)
	b = jsonenc.AppendString(b, w.Name)
	b = append(b, `,"Phases":`...)
	if len(w.Phases) == 0 {
		// Encode normalizes an empty phase list to nil, which marshals
		// as null; match it (such configs fail Validate anyway).
		b = append(b, `null`...)
		return append(b, '}'), true
	}
	b = append(b, '[')
	for i, p := range w.Phases {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ActiveCores":`...)
		b = jsonenc.AppendInt(b, int64(p.ActiveCores))
		b = append(b, `,"CoreActivity":`...)
		if b, ok = jsonenc.AppendFloat(b, p.CoreActivity); !ok {
			return b, false
		}
		b = append(b, `,"CoreFrac":`...)
		if b, ok = jsonenc.AppendFloat(b, p.CoreFrac); !ok {
			return b, false
		}
		b = append(b, `,"Duration":`...)
		b = jsonenc.AppendInt(b, int64(p.Duration))
		b = append(b, `,"GfxActivity":`...)
		if b, ok = jsonenc.AppendFloat(b, p.GfxActivity); !ok {
			return b, false
		}
		b = append(b, `,"GfxFrac":`...)
		if b, ok = jsonenc.AppendFloat(b, p.GfxFrac); !ok {
			return b, false
		}
		b = append(b, `,"IOBW":`...)
		if b, ok = jsonenc.AppendFloat(b, p.IOBW); !ok {
			return b, false
		}
		b = append(b, `,"IOFrac":`...)
		if b, ok = jsonenc.AppendFloat(b, p.IOFrac); !ok {
			return b, false
		}
		b = append(b, `,"MemBW":`...)
		if b, ok = jsonenc.AppendFloat(b, p.MemBW); !ok {
			return b, false
		}
		b = append(b, `,"MemBWFrac":`...)
		if b, ok = jsonenc.AppendFloat(b, p.MemBWFrac); !ok {
			return b, false
		}
		b = append(b, `,"MemLatFrac":`...)
		if b, ok = jsonenc.AppendFloat(b, p.MemLatFrac); !ok {
			return b, false
		}
		b = append(b, `,"Residency":{"C0":`...)
		if b, ok = jsonenc.AppendFloat(b, p.Residency.C0); !ok {
			return b, false
		}
		b = append(b, `,"C2":`...)
		if b, ok = jsonenc.AppendFloat(b, p.Residency.C2); !ok {
			return b, false
		}
		b = append(b, `,"C6":`...)
		if b, ok = jsonenc.AppendFloat(b, p.Residency.C6); !ok {
			return b, false
		}
		b = append(b, `,"C8":`...)
		if b, ok = jsonenc.AppendFloat(b, p.Residency.C8); !ok {
			return b, false
		}
		b = append(b, '}', '}')
	}
	b = append(b, ']')
	return append(b, '}'), true
}

// Canonical returns the canonical bytes of a job: the sorted-key,
// compact JSON of its normalized form. Two specs that decode to the
// same runnable config have the same canonical bytes regardless of how
// they were written (builtin versus inline workload, omitted versus
// explicit defaults, key order, whitespace).
func Canonical(job Job) ([]byte, error) {
	cfg, err := Decode(job)
	if err != nil {
		return nil, err
	}
	b, ok := AppendConfig(nil, cfg)
	if !ok {
		return nil, fmt.Errorf("spec: config has no canonical form")
	}
	return b, nil
}

// Fingerprint returns sha256(Canonical(job)) — the documented job
// identity. The engine's in-memory result cache and its
// content-addressed on-disk tier key on this value: stable across
// processes, machines and languages, because the canonical bytes are
// defined by the wire format, not by Go's in-memory representation.
func Fingerprint(job Job) ([sha256.Size]byte, error) {
	b, err := Canonical(job)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

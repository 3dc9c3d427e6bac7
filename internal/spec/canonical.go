package spec

import (
	"crypto/sha256"
	"fmt"
	"sync"

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

// maxWrapDepth bounds the policy wrapper walk: a pathological
// self-wrapping policy makes the config unencodable rather than
// hanging the encoder. Real chains are one or two deep.
const maxWrapDepth = 24

// AppendConfig appends cfg's canonical spec bytes to b. ok is false
// when the config has no canonical form: an unregistered policy type,
// an out-of-range enum value, or a float with no JSON rendering (NaN,
// ±Inf) — such configs are uncacheable. On !ok the returned slice is
// b with partial output appended; callers must discard it.
func AppendConfig(b []byte, cfg soc.Config) (_ []byte, ok bool) {
	// platform
	b = append(b, `{"platform":{"csr":{"camera":`...)
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
	b = append(b, `,"sample_interval_ns":`...)
	b = jsonenc.AppendInt(b, int64(cfg.SampleInterval))

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
	var stack [maxWrapDepth]string
	base, wrap, ok := unwrapPolicy(p, stack[:0])
	if !ok {
		return b, false
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
	if len(wrap) > 0 {
		b = append(b, `,"wrap":[`...)
		for i, w := range wrap {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendString(b, w)
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// unwrapPolicy is the one walk down a policy's wrapper chain. It
// appends the registered wrapper names to wrap, outermost first, and
// returns the policy under them. ok is false for a nil policy or a
// chain deeper than maxWrapDepth. Registration guarantees every
// registered wrapper has Unwrap, so the first unregistered link is the
// base; whether the base is registered is the caller's check.
func unwrapPolicy(p soc.Policy, wrap []string) (base soc.Policy, _ []string, ok bool) {
	for depth := 0; p != nil; depth++ {
		name, isWrap := policy.WrapperNameFor(p)
		if !isWrap {
			return p, wrap, true
		}
		if depth == maxWrapDepth {
			break
		}
		wrap = append(wrap, name)
		p = p.(interface{ Unwrap() soc.Policy }).Unwrap()
	}
	return nil, wrap, false
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

// Key returns sha256(AppendConfig(cfg)): the cache key of a live
// config, equal to the Fingerprint of its encoded spec. ok is false
// when the config has no canonical form — its policy is not
// registered, an enum is out of range, or a float has no JSON
// rendering — and such a job is never cached. Key renders into a
// pooled buffer and hashes with the one-shot sha256.Sum256, so it does
// not allocate in steady state.
func Key(cfg soc.Config) (key [sha256.Size]byte, ok bool) {
	w := bufPool.Get().(*renderBuf)
	b, ok := AppendConfig(w.buf[:0], cfg)
	if ok {
		key = sha256.Sum256(b)
	}
	w.buf = b
	bufPool.Put(w)
	return key, ok
}

// renderBuf is a pooled render buffer for Key and Encode's params:
// Key runs once per job on the sweep hot path, and a typical canonical
// encoding is ~1.5KB.
type renderBuf struct {
	buf []byte
}

var bufPool = sync.Pool{New: func() any { return &renderBuf{buf: make([]byte, 0, 2048)} }}

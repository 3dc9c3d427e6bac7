// Package pkga is a test fixture for the engine's cache-key
// fingerprinting: it declares a policy type whose unqualified Go name
// deliberately collides with pkgb's. Under the registry-derived keys
// the two stay apart because each registers under its own spec name —
// and the registry's duplicate rejection turns an accidental name
// collision into a startup panic instead of a silent cache-aliasing
// bug (the pre-PR-2 failure mode).
package pkga

import (
	"encoding/json"
	"reflect"
	"strconv"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
)

// Pinned is a minimal no-op policy. Its Go name and field layout match
// pkgb.Pinned exactly; only the registered name distinguishes them.
type Pinned struct {
	Index int
}

// Name reports the same label as pkgb.Pinned on purpose.
func (p *Pinned) Name() string { return "pinned" }

// Decide holds the platform at its current point.
func (p *Pinned) Decide(soc.PolicyContext) soc.PolicyDecision { return soc.PolicyDecision{} }

// Reset is a no-op.
func (p *Pinned) Reset() {}

// Clone returns an independent copy.
func (p *Pinned) Clone() soc.Policy {
	c := *p
	return &c
}

type params struct {
	Index int `json:"index"`
}

func init() {
	codec := policy.Codec{
		Type: reflect.TypeOf(&Pinned{}),
		Decode: func(raw []byte) (soc.Policy, error) {
			var p params
			if len(raw) > 0 {
				if err := json.Unmarshal(raw, &p); err != nil {
					return nil, err
				}
			}
			return &Pinned{Index: p.Index}, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			pp, ok := p.(*Pinned)
			if !ok {
				return b, false
			}
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(pp.Index), 10)
			return append(b, '}'), true
		},
	}
	if err := policy.Register("fptest-pinned-a", codec); err != nil {
		panic(err)
	}
}

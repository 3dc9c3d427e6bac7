// Package pkgb is the counterpart of pkga: a same-named, same-shaped
// policy type in a different package, registered under its own name.
// See pkga's doc comment.
package pkgb

import (
	"encoding/json"
	"reflect"
	"strconv"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
)

// Pinned mirrors pkga.Pinned field for field.
type Pinned struct {
	Index int
}

// Name matches pkga.Pinned's label on purpose.
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
	if err := policy.Register("fptest-pinned-b", codec); err != nil {
		panic(err)
	}
}

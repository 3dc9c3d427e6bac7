package engine

import (
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

// pinnedA and pinnedB are minimal no-op policies with one field layout
// and one Name label. Each registers under its own spec name, so only
// the registered name tells their cache keys apart.
type (
	pinnedA struct{ pinned }
	pinnedB struct{ pinned }
)

type pinned struct{ Index int }

func (*pinned) Name() string                                { return "pinned" }
func (*pinned) Reset()                                      {}
func (*pinned) Decide(soc.PolicyContext) soc.PolicyDecision { return soc.PolicyDecision{} }
func (p *pinned) index() int                                { return p.Index }

func (p *pinnedA) Clone() soc.Policy { c := *p; return &c }
func (p *pinnedB) Clone() soc.Policy { c := *p; return &c }

func init() {
	for name, build := range map[string]func(int) soc.Policy{
		"fptest-pinned-a": func(i int) soc.Policy { return &pinnedA{pinned{i}} },
		"fptest-pinned-b": func(i int) soc.Policy { return &pinnedB{pinned{i}} },
	} {
		if err := policy.Register(name, pinnedCodec(build)); err != nil {
			panic(err)
		}
	}
}

// pinnedCodec is the codec of the family whose policies build makes:
// params {"index":N}.
func pinnedCodec(build func(index int) soc.Policy) policy.Codec {
	typ := reflect.TypeOf(build(0))
	return policy.Codec{
		Type: typ,
		Decode: func(raw []byte) (soc.Policy, error) {
			var p struct {
				Index int `json:"index"`
			}
			if len(raw) > 0 {
				if err := json.Unmarshal(raw, &p); err != nil {
					return nil, err
				}
			}
			return build(p.Index), nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			if reflect.TypeOf(p) != typ {
				return b, false
			}
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(p.(interface{ index() int }).index()), 10)
			return append(b, '}'), true
		},
	}
}

// fpConfig builds one valid config around the given policy.
func fpConfig(t *testing.T, p soc.Policy) soc.Config {
	t.Helper()
	w, err := workload.SPEC("473.astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = p
	return cfg
}

// TestFingerprintDistinguishesSameNamedTypes: two policy types with
// identical labels, field layouts and field values — registered under
// distinct spec names — must map to different cache keys, or the
// engine would return one policy's cached Results for the other. (The
// registry's duplicate rejection is the other half of this guarantee:
// the two fixtures cannot register under one name in the first place.)
func TestFingerprintDistinguishesSameNamedTypes(t *testing.T) {
	ka, oka := spec.Key(fpConfig(t, &pinnedA{pinned{1}}))
	kb, okb := spec.Key(fpConfig(t, &pinnedB{pinned{1}}))
	if !oka || !okb {
		t.Fatalf("fixture policies should be cacheable (got %t, %t)", oka, okb)
	}
	if ka == kb {
		t.Fatalf("same-named policies registered under distinct names share a cache key %x", ka)
	}
}

// TestFingerprintStableForEqualConfigs guards the opposite direction:
// equal configs (same type, same values) still collide onto one key.
func TestFingerprintStableForEqualConfigs(t *testing.T) {
	k1, ok1 := spec.Key(fpConfig(t, &pinnedA{pinned{2}}))
	k2, ok2 := spec.Key(fpConfig(t, &pinnedA{pinned{2}}))
	if !ok1 || !ok2 {
		t.Fatal("configs should be cacheable")
	}
	if k1 != k2 {
		t.Fatalf("equal configs produced distinct keys %x vs %x", k1, k2)
	}
	k3, _ := spec.Key(fpConfig(t, &pinnedA{pinned{3}}))
	if k1 == k3 {
		t.Fatal("distinct policy configurations share a cache key")
	}
}

// TestFingerprintUnregisteredUncacheable: a policy type outside the
// registry has no canonical identity and must never be cached.
func TestFingerprintUnregisteredUncacheable(t *testing.T) {
	if _, cacheable := spec.Key(fpConfig(t, &anonymousPolicy{})); cacheable {
		t.Fatal("unregistered policy type was cacheable")
	}
}

type anonymousPolicy struct{}

func (*anonymousPolicy) Name() string      { return "anonymous" }
func (*anonymousPolicy) Reset()            {}
func (*anonymousPolicy) Clone() soc.Policy { return &anonymousPolicy{} }
func (*anonymousPolicy) Decide(soc.PolicyContext) soc.PolicyDecision {
	return soc.PolicyDecision{}
}

// TestFingerprintMatchesSpecFingerprint is the key-equivalence
// guarantee: for every config the engine caches, the in-process key
// equals sha256 of the canonical bytes of the config's encoded spec —
// the identity spec.Fingerprint documents. Configs the old
// reflect-based fingerprint considered equal are value-equal configs,
// and value-equal configs encode to identical specs, so they keep
// colliding onto one key here (TestFingerprintStableForEqualConfigs
// pins that directly).
func TestFingerprintMatchesSpecFingerprint(t *testing.T) {
	policies := []soc.Policy{
		&pinnedA{pinned{1}},
		&pinnedB{pinned{1}},
		policy.NewSysScaleDefault(),
		policy.NewCoScaleRedist(),
		policy.WithoutRedistribution(policy.NewSysScaleDefault()),
	}
	for _, p := range policies {
		cfg := fpConfig(t, p)
		key, cacheable := spec.Key(cfg)
		if !cacheable {
			t.Fatalf("%s: should be cacheable", p.Name())
		}
		job, err := spec.Encode(cfg)
		if err != nil {
			t.Fatalf("%s: Encode: %v", p.Name(), err)
		}
		want, err := spec.Fingerprint(job)
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", p.Name(), err)
		}
		if key != want {
			t.Errorf("%s: engine key %x != spec fingerprint %x", p.Name(), key, want)
		}
		canon, err := spec.Canonical(job)
		if err != nil {
			t.Fatalf("%s: Canonical: %v", p.Name(), err)
		}
		if key != sha256.Sum256(canon) {
			t.Errorf("%s: engine key is not sha256 of the canonical spec bytes", p.Name())
		}
	}
}

package engine

import (
	"crypto/sha256"
	"testing"

	"sysscale/internal/engine/fptest/pkga"
	"sysscale/internal/engine/fptest/pkgb"
	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload"
)

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
// identical Go names, labels and field values — registered under
// distinct spec names — must map to different cache keys, or the
// engine would return one policy's cached Results for the other. (The
// registry's duplicate rejection is the other half of this guarantee:
// the two fixtures cannot register under one name in the first place.)
func TestFingerprintDistinguishesSameNamedTypes(t *testing.T) {
	ka, oka := spec.Key(fpConfig(t, &pkga.Pinned{Index: 1}))
	kb, okb := spec.Key(fpConfig(t, &pkgb.Pinned{Index: 1}))
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
	k1, ok1 := spec.Key(fpConfig(t, &pkga.Pinned{Index: 2}))
	k2, ok2 := spec.Key(fpConfig(t, &pkga.Pinned{Index: 2}))
	if !ok1 || !ok2 {
		t.Fatal("configs should be cacheable")
	}
	if k1 != k2 {
		t.Fatalf("equal configs produced distinct keys %x vs %x", k1, k2)
	}
	k3, _ := spec.Key(fpConfig(t, &pkga.Pinned{Index: 3}))
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
		&pkga.Pinned{Index: 1},
		&pkgb.Pinned{Index: 1},
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

package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"sysscale/internal/soc"
)

// The registry maps stable, documented policy names to codecs that can
// build a governor from spec parameters and serialize a live governor
// back to them. It is what lets the job-spec layer (internal/spec)
// round-trip soc.Config.Policy through JSON, and what the engine's
// spec-derived cache key hashes instead of walking policy structs with
// reflection. Registration is a policy's only identity: an
// unregistered policy has no canonical bytes, so its jobs always
// simulate and are never cached.
//
// Names are a distinct namespace from Policy.Name(): Name() describes a
// configured instance ("memscale-redist"), while the registry names a
// family ("memscale") whose variants are parameters. Register rejects
// duplicate names outright — with spec-derived cache keys, two policies
// sharing a name would silently alias each other's cached results, the
// exact failure mode the PR 2 fingerprint work removed.

// Codec serializes one policy family.
type Codec struct {
	// Type is the concrete (pointer) type the codec handles;
	// AppendParams is dispatched on it.
	Type reflect.Type

	// Decode builds a policy from the spec's params JSON. Empty or nil
	// params mean "all defaults"; present fields overlay the family's
	// constructor defaults; unknown fields are an error.
	Decode func(params []byte) (soc.Policy, error)

	// AppendParams appends p's fully-populated params as canonical
	// JSON — keys sorted, no whitespace, encoding/json's value
	// renderings — without allocating. It is the only params encoder:
	// spec.Encode and the cache key both use it. ok is false when p is
	// not this codec's type or a parameter has no JSON rendering (NaN or
	// infinite float), which makes the config uncacheable.
	AppendParams func(b []byte, p soc.Policy) (_ []byte, ok bool)
}

// Wrapper describes an ablation decorator that can appear in a spec's
// policy "wrap" list.
type Wrapper struct {
	// Type is the concrete (pointer) type of the decorator. It must
	// have an Unwrap() soc.Policy method returning the decorated policy.
	Type reflect.Type
	// Wrap applies the decorator to a policy.
	Wrap func(soc.Policy) soc.Policy
}

var registry = struct {
	mu         sync.RWMutex
	codecs     map[string]Codec
	byType     map[reflect.Type]string
	wrappers   map[string]Wrapper
	wrapByType map[reflect.Type]string
}{
	codecs:     map[string]Codec{},
	byType:     map[reflect.Type]string{},
	wrappers:   map[string]Wrapper{},
	wrapByType: map[reflect.Type]string{},
}

// Register adds a policy family codec under name. It returns an error
// if the name or the concrete type is already registered, so distinct
// families can never alias each other's spec-derived cache keys.
func Register(name string, c Codec) error {
	if name == "" {
		return fmt.Errorf("policy: register with empty name")
	}
	if c.Type == nil || c.Decode == nil || c.AppendParams == nil {
		return fmt.Errorf("policy: register %q with incomplete codec", name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.codecs[name]; dup {
		return fmt.Errorf("policy: duplicate registration of %q", name)
	}
	if prev, dup := registry.byType[c.Type]; dup {
		return fmt.Errorf("policy: type %v already registered as %q", c.Type, prev)
	}
	registry.codecs[name] = c
	registry.byType[c.Type] = name
	return nil
}

// RegisterWrapper adds an ablation decorator under name, with the same
// duplicate rejection as Register. A Type without Unwrap is rejected:
// the spec layer could not see through it to the base policy.
func RegisterWrapper(name string, w Wrapper) error {
	if name == "" {
		return fmt.Errorf("policy: register wrapper with empty name")
	}
	if w.Type == nil || w.Wrap == nil {
		return fmt.Errorf("policy: register wrapper %q with incomplete descriptor", name)
	}
	if !w.Type.Implements(reflect.TypeFor[interface{ Unwrap() soc.Policy }]()) {
		return fmt.Errorf("policy: wrapper %q type %v has no Unwrap() soc.Policy method", name, w.Type)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.wrappers[name]; dup {
		return fmt.Errorf("policy: duplicate registration of wrapper %q", name)
	}
	if prev, dup := registry.wrapByType[w.Type]; dup {
		return fmt.Errorf("policy: wrapper type %v already registered as %q", w.Type, prev)
	}
	registry.wrappers[name] = w
	registry.wrapByType[w.Type] = name
	return nil
}

func mustRegister(name string, c Codec) {
	if err := Register(name, c); err != nil {
		panic(err)
	}
}

func mustRegisterWrapper(name string, w Wrapper) {
	if err := RegisterWrapper(name, w); err != nil {
		panic(err)
	}
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	c, ok := registry.codecs[name]
	return c, ok
}

// LookupWrapper returns the wrapper registered under name.
func LookupWrapper(name string) (Wrapper, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	w, ok := registry.wrappers[name]
	return w, ok
}

// CodecFor returns the registered name and codec for a live policy
// value, dispatching on its concrete type.
func CodecFor(p soc.Policy) (string, Codec, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	name, ok := registry.byType[reflect.TypeOf(p)]
	if !ok {
		return "", Codec{}, false
	}
	return name, registry.codecs[name], true
}

// WrapperNameFor returns the registered name for a live decorator.
func WrapperNameFor(p soc.Policy) (string, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	name, ok := registry.wrapByType[reflect.TypeOf(p)]
	return name, ok
}

// Names returns the registered family names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.codecs))
	for n := range registry.codecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build constructs a policy from a registered family name, its params
// JSON, and an outermost-first wrapper name list — the decode half of
// the spec layer's policy section.
func Build(name string, params []byte, wrap []string) (soc.Policy, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	p, err := c.Decode(params)
	if err != nil {
		return nil, fmt.Errorf("policy: %s params: %w", name, err)
	}
	// wrap is outermost-first, so apply innermost (last) first.
	for i := len(wrap) - 1; i >= 0; i-- {
		w, ok := LookupWrapper(wrap[i])
		if !ok {
			return nil, fmt.Errorf("policy: unknown wrapper %q", wrap[i])
		}
		p = w.Wrap(p)
	}
	return p, nil
}

// strictUnmarshal decodes params JSON into v, rejecting unknown fields
// and trailing data. Empty input and JSON null both mean "no overlay".
func strictUnmarshal(params []byte, v any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after params object")
	}
	return nil
}

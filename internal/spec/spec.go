// Package spec defines the versioned, serializable job specification:
// a JSON document that round-trips every runnable soc.Config. A spec
// names the platform (TDP, DRAM kind, operating-point ladder, CSR),
// the workload (a built-in by name, an inline phase list, or an entry
// of a tracegen trace), the policy (by registry name with typed
// parameters and ablation wrappers), the run parameters, and the A/B
// knobs.
//
// Specs exist so a job has an identity outside the process: files the
// CLIs can run (`sysscale -spec job.json`), the request bodies sweepd
// serves (one spec on POST /v1/jobs, an array on POST /v1/sweeps), and
// — through the canonical encoding — the engine's cache key. Decode
// validates through soc.Config.Validate, so a spec that decodes is a
// spec that runs.
//
// # Reading specs
//
// ReadJob and ReadJobs decode spec documents with a hand-written,
// single-pass decoder that accepts exactly what encoding/json (with
// unknown fields rejected) accepts and produces the same values; see
// ReadJob for the contract and MaxDocBytes for the size rule.
//
// # Canonical encoding
//
// The canonical bytes of a job are the JSON of its normalized form
// (Encode of the decoded config: workload inlined, every field
// explicit, policy parameters fully populated) with object keys sorted
// and all insignificant whitespace removed, using encoding/json's
// value renderings (shortest round-trip floats, HTML-escaped strings).
// Fingerprint is the SHA-256 of those bytes and is the documented
// cache identity for the engine's result cache and its on-disk tier:
// any process — in any language — that can decode a spec,
// normalize it the same way, sort keys and compact can reproduce the
// key. AppendConfig produces the same bytes allocation-free straight
// from a live soc.Config, which is what keeps the engine's hot path at
// its alloc gates.
//
// # Versioning
//
// Version is 2; Decode also accepts 1 and rejects anything else,
// including a missing version. Forward compatibility is explicit
// re-encoding by a build that understands both versions, never silent
// reinterpretation, because the canonical bytes (and so every cache
// key) are defined per version: they carry the version, so a v2 key
// never addresses an entry a v1 build wrote.
//
// Version 2 drops the v1 fields that cannot change a Result: run.seed,
// run.record_events, knobs.disable_pbm_memo, knobs.disable_tick_memo
// and knobs.disable_span_cache. They stay on the wire structs, so a
// document of either version that sets them still decodes, but Decode
// ignores them, Encode never writes them, and the canonical bytes
// leave them out: a document that sets them shares the key of one that
// does not.
package spec

import (
	"encoding/json"

	"sysscale/internal/ioengine"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// Version is the spec wire-format version this build writes. Decode
// reads it and version 1.
const Version = 2

// numPanels mirrors the platform's display head count.
const numPanels = ioengine.MaxPanels

// Job is one serializable simulation job.
type Job struct {
	Version  int         `json:"version"`
	Platform Platform    `json:"platform"`
	Workload WorkloadRef `json:"workload"`
	Policy   Policy      `json:"policy"`
	Run      Run         `json:"run"`
	Knobs    Knobs       `json:"knobs"`
}

// Platform describes the simulated SoC and board.
type Platform struct {
	CSR      CSR     `json:"csr"`
	DRAM     string  `json:"dram"` // dram.Kind by name: "LPDDR3", "DDR4"
	Ladder   []Point `json:"ladder"`
	TDPWatts float64 `json:"tdp_watts"`
}

// Point is one IO+memory operating point, highest first in the ladder.
type Point struct {
	DDRHz     float64 `json:"ddr_hz"`
	IntercoHz float64 `json:"interco_hz"`
	MCHz      float64 `json:"mc_hz"`
	Name      string  `json:"name"`
	VIO       float64 `json:"vio"`
	VSA       float64 `json:"vsa"`
}

// CSR is the IO peripheral configuration: the display heads and the
// camera ISP mode, by name ("off", "HD", "FHD", "QHD", "4K"; camera
// "off", "720p", "1080p", "4K").
type CSR struct {
	Camera string              `json:"camera"`
	Panels [numPanels]PanelCfg `json:"panels"`
}

// PanelCfg is one display head.
type PanelCfg struct {
	RefreshHz float64 `json:"refresh_hz"`
	Res       string  `json:"res"`
}

// WorkloadRef selects the workload: exactly one of the three fields
// must be set. Builtin and Trace are input conveniences; Encode always
// produces the Inline form (the normalized spec has no external
// references).
type WorkloadRef struct {
	// Builtin names a shipped workload (see workload.BuiltinNames).
	Builtin string `json:"builtin,omitempty"`
	// Inline embeds the workload in workload's JSON wire format.
	Inline *workload.Workload `json:"inline,omitempty"`
	// Trace selects one workload out of an embedded tracegen trace.
	Trace *TraceRef `json:"trace,omitempty"`
}

// TraceRef embeds a tracegen trace and picks one of its workloads.
type TraceRef struct {
	Index int       `json:"index"`
	Trace gen.Trace `json:"trace"`
}

// Policy selects a registered policy family with typed parameters and
// an optional outermost-first list of ablation wrappers.
type Policy struct {
	Name string `json:"name"`
	// Params overlays the family's constructor defaults; omitted or
	// null means all defaults. Unknown fields are rejected.
	Params json.RawMessage `json:"params,omitempty"`
	Wrap   []string        `json:"wrap,omitempty"`
}

// Run carries the simulation run parameters. Durations are in
// nanoseconds (sim.Time's underlying unit). RecordEvents and Seed are
// retired v1 fields, accepted and ignored (see the package doc).
type Run struct {
	DurationNS       int64   `json:"duration_ns"`
	EvalIntervalNS   int64   `json:"eval_interval_ns"`
	FixedCoreHz      float64 `json:"fixed_core_hz"`
	FixedGfxHz       float64 `json:"fixed_gfx_hz"`
	RecordEvents     bool    `json:"record_events,omitempty"` // retired
	SampleIntervalNS int64   `json:"sample_interval_ns"`
	Seed             uint64  `json:"seed,omitempty"` // retired
	TracePower       bool    `json:"trace_power"`
}

// Knobs carries the A/B verification knobs. DisableSpanBatching is
// part of the job identity: it changes results (by up to 1e-9
// relative) and is the reference oracle. The other three are retired
// v1 fields, accepted and ignored (see the package doc).
type Knobs struct {
	DisablePBMMemo      bool `json:"disable_pbm_memo,omitempty"` // retired
	DisableSpanBatching bool `json:"disable_span_batching"`
	DisableSpanCache    bool `json:"disable_span_cache,omitempty"` // retired
	DisableTickMemo     bool `json:"disable_tick_memo,omitempty"`  // retired
}

package spec

import (
	"bytes"
	"fmt"
	"strings"

	"sysscale/internal/dram"
	"sysscale/internal/ioengine"
	"sysscale/internal/policy"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// Enum name tables. The canonical names are the types' String()
// renderings; lookups accept any capitalization.

var dramKinds = []dram.Kind{dram.LPDDR3, dram.DDR4}

var resolutions = []ioengine.Resolution{
	ioengine.DisplayOff, ioengine.DisplayHD, ioengine.DisplayFHD,
	ioengine.DisplayQHD, ioengine.Display4K,
}

var cameraModes = []ioengine.CameraMode{
	ioengine.CameraOff, ioengine.Camera720p, ioengine.Camera1080p,
	ioengine.Camera4K,
}

var classes = []workload.Class{
	workload.CPUSingleThread, workload.CPUMultiThread, workload.Graphics,
	workload.Battery, workload.Micro,
}

func parseDRAM(name string) (dram.Kind, error) {
	for _, k := range dramKinds {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown DRAM kind %q", name)
}

func parseResolution(name string) (ioengine.Resolution, error) {
	for _, r := range resolutions {
		if strings.EqualFold(r.String(), name) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown panel resolution %q", name)
}

func parseCamera(name string) (ioengine.CameraMode, error) {
	for _, m := range cameraModes {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown camera mode %q", name)
}

func knownDRAM(k dram.Kind) bool {
	for _, known := range dramKinds {
		if k == known {
			return true
		}
	}
	return false
}

func knownResolution(r ioengine.Resolution) bool {
	for _, known := range resolutions {
		if r == known {
			return true
		}
	}
	return false
}

func knownCamera(m ioengine.CameraMode) bool {
	for _, known := range cameraModes {
		if m == known {
			return true
		}
	}
	return false
}

func knownClass(c workload.Class) bool {
	for _, known := range classes {
		if c == known {
			return true
		}
	}
	return false
}

// Encode converts a runnable config into its normalized spec: the
// workload inlined, every field explicit, the policy decomposed into
// its registered family name, fully-populated parameters and wrapper
// list. It fails when the config references something the spec layer
// cannot name — an unregistered policy type or an out-of-range enum —
// or that AppendConfig could not render either: a wrapper chain past
// the depth bound or a policy parameter with no JSON rendering.
func Encode(cfg soc.Config) (Job, error) {
	job := Job{Version: Version}

	if !knownDRAM(cfg.DRAMKind) {
		return Job{}, fmt.Errorf("spec: unencodable DRAM kind %v", cfg.DRAMKind)
	}
	job.Platform = Platform{
		DRAM:     cfg.DRAMKind.String(),
		TDPWatts: float64(cfg.TDP),
		Ladder:   make([]Point, len(cfg.Ladder)),
	}
	for i, op := range cfg.Ladder {
		job.Platform.Ladder[i] = Point{
			DDRHz:     float64(op.DDR),
			IntercoHz: float64(op.Interco),
			MCHz:      float64(op.MC),
			Name:      op.Name,
			VIO:       float64(op.VIO),
			VSA:       float64(op.VSA),
		}
	}
	if !knownCamera(cfg.CSR.Camera) {
		return Job{}, fmt.Errorf("spec: unencodable camera mode %v", cfg.CSR.Camera)
	}
	job.Platform.CSR.Camera = cfg.CSR.Camera.String()
	for i, p := range cfg.CSR.Panels {
		if !knownResolution(p.Res) {
			return Job{}, fmt.Errorf("spec: unencodable panel resolution %v", p.Res)
		}
		job.Platform.CSR.Panels[i] = PanelCfg{RefreshHz: p.RefreshHz, Res: p.Res.String()}
	}

	if !knownClass(cfg.Workload.Class) {
		return Job{}, fmt.Errorf("spec: unencodable workload class %v", cfg.Workload.Class)
	}
	// Copy the phase slice so the job doesn't alias the config's
	// backing array; empty normalizes to nil (canonical null).
	wl := cfg.Workload
	wl.Phases = append([]workload.Phase(nil), cfg.Workload.Phases...)
	job.Workload.Inline = &wl

	if cfg.Policy == nil {
		return Job{}, fmt.Errorf("spec: nil policy")
	}
	base, wrap, ok := unwrapPolicy(cfg.Policy, nil)
	if !ok {
		return Job{}, fmt.Errorf("spec: policy %T has no base policy within %d wrappers", cfg.Policy, maxWrapDepth)
	}
	name, codec, ok := policy.CodecFor(base)
	if !ok {
		return Job{}, fmt.Errorf("spec: policy type %T is not registered", base)
	}
	// Render into a pooled buffer and keep an exact-size copy: one
	// allocation, where appending to nil would grow the slice several
	// times.
	w := bufPool.Get().(*renderBuf)
	params, ok := codec.AppendParams(w.buf[:0], base)
	job.Policy = Policy{Name: name, Params: bytes.Clone(params), Wrap: wrap}
	w.buf = params
	bufPool.Put(w)
	if !ok {
		return Job{}, fmt.Errorf("spec: %s params have no JSON rendering", name)
	}

	job.Run = Run{
		DurationNS:       int64(cfg.Duration),
		EvalIntervalNS:   int64(cfg.EvalInterval),
		FixedCoreHz:      float64(cfg.FixedCoreFreq),
		FixedGfxHz:       float64(cfg.FixedGfxFreq),
		SampleIntervalNS: int64(cfg.SampleInterval),
		TracePower:       cfg.TracePower,
	}
	job.Knobs = Knobs{DisableSpanBatching: cfg.DisableSpanBatching}
	return job, nil
}

// Decode converts a spec into a runnable config, resolving the
// workload reference and building the policy through the registry. The
// result is validated through soc.Config.Validate (including the
// policy's PolicyValidator), so a decoded config is a runnable one.
func Decode(job Job) (soc.Config, error) {
	if job.Version != 1 && job.Version != Version {
		return soc.Config{}, fmt.Errorf("spec: unsupported version %d (this build reads versions 1 and %d)", job.Version, Version)
	}

	var cfg soc.Config
	kind, err := parseDRAM(job.Platform.DRAM)
	if err != nil {
		return soc.Config{}, err
	}
	cfg.DRAMKind = kind
	cfg.TDP = power.Watt(job.Platform.TDPWatts)
	cfg.Ladder = make([]vf.OperatingPoint, len(job.Platform.Ladder))
	for i, p := range job.Platform.Ladder {
		cfg.Ladder[i] = vf.OperatingPoint{
			Name:    p.Name,
			DDR:     vf.Hz(p.DDRHz),
			MC:      vf.Hz(p.MCHz),
			Interco: vf.Hz(p.IntercoHz),
			VSA:     vf.Volt(p.VSA),
			VIO:     vf.Volt(p.VIO),
		}
	}
	camera, err := parseCamera(job.Platform.CSR.Camera)
	if err != nil {
		return soc.Config{}, err
	}
	cfg.CSR.Camera = camera
	for i, p := range job.Platform.CSR.Panels {
		res, err := parseResolution(p.Res)
		if err != nil {
			return soc.Config{}, fmt.Errorf("panel %d: %w", i, err)
		}
		cfg.CSR.Panels[i] = ioengine.Panel{Res: res, RefreshHz: p.RefreshHz}
	}

	wl, err := resolveWorkload(job.Workload)
	if err != nil {
		return soc.Config{}, err
	}
	cfg.Workload = wl

	pol, err := policy.Build(job.Policy.Name, job.Policy.Params, job.Policy.Wrap)
	if err != nil {
		return soc.Config{}, fmt.Errorf("spec: %w", err)
	}
	cfg.Policy = pol

	cfg.Duration = sim.Time(job.Run.DurationNS)
	cfg.EvalInterval = sim.Time(job.Run.EvalIntervalNS)
	cfg.SampleInterval = sim.Time(job.Run.SampleIntervalNS)
	cfg.FixedCoreFreq = vf.Hz(job.Run.FixedCoreHz)
	cfg.FixedGfxFreq = vf.Hz(job.Run.FixedGfxHz)
	cfg.TracePower = job.Run.TracePower

	cfg.DisableSpanBatching = job.Knobs.DisableSpanBatching

	if err := cfg.Validate(); err != nil {
		return soc.Config{}, err
	}
	return cfg, nil
}

// resolveWorkload materializes the workload reference; exactly one of
// the three forms must be present.
func resolveWorkload(ref WorkloadRef) (workload.Workload, error) {
	set := 0
	if ref.Builtin != "" {
		set++
	}
	if ref.Inline != nil {
		set++
	}
	if ref.Trace != nil {
		set++
	}
	if set != 1 {
		return workload.Workload{}, fmt.Errorf("spec: workload must set exactly one of builtin, inline, trace (got %d)", set)
	}
	switch {
	case ref.Builtin != "":
		return workload.Builtin(ref.Builtin)
	case ref.Inline != nil:
		return *ref.Inline, nil
	default:
		t := ref.Trace.Trace
		if t.Version != gen.TraceVersion {
			return workload.Workload{}, fmt.Errorf("spec: unsupported trace version %d", t.Version)
		}
		if ref.Trace.Index < 0 || ref.Trace.Index >= len(t.Workloads) {
			return workload.Workload{}, fmt.Errorf("spec: trace index %d outside [0,%d)", ref.Trace.Index, len(t.Workloads))
		}
		return t.Workloads[ref.Trace.Index], nil
	}
}

// Package sysscale is a full-system reproduction of "SysScale:
// Exploiting Multi-domain Dynamic Voltage and Frequency Scaling for
// Energy Efficient Mobile Processors" (Haj-Yahya et al., ISCA 2020).
//
// The package exposes the public surface of the library: the simulated
// Skylake-class mobile SoC (compute, IO and memory domains with the
// voltage-regulator topology of the paper's Fig. 1), the SysScale
// governor and the baselines it is compared against (MemScale,
// CoScale and their -Redist projections), the evaluation workloads
// (SPEC CPU2006 profiles, 3DMark, battery-life set), and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	w, _ := sysscale.SPEC("416.gamess")
//	cfg := sysscale.DefaultConfig()
//	cfg.Workload = w
//	cfg.Policy = sysscale.NewSysScale()
//	res, err := sysscale.Run(cfg)
//
// Compare against the worst-case-provisioned baseline by running the
// same configuration with sysscale.NewBaseline() and using
// PerfImprovement / PowerReduction on the two results.
//
// Batches go through an Engine: a bounded worker pool (GOMAXPROCS
// workers by default) with a memoizing result cache, so repeated
// configurations (baselines shared across comparisons) simulate once.
// RunBatchContext returns results in input order and fails fast with a
// *JobError on the first failed job. One Policy value can back every
// config — the engine clones it per job:
//
//	eng := sysscale.NewEngine()
//	sys := sysscale.NewSysScale()
//	var jobs []sysscale.Job
//	for _, w := range sysscale.SPECSuite() {
//		cfg := sysscale.DefaultConfig()
//		cfg.Workload = w
//		cfg.Policy = sys
//		jobs = append(jobs, sysscale.Job{Config: cfg})
//	}
//	results, err := eng.RunBatchContext(ctx, jobs) // results[i] ↔ jobs[i]
//
// Every engine entry point takes a context.Context, threaded into the
// simulation loop: a cancelled run unwinds within one policy epoch.
// Engine.Stream delivers per-job results as they complete, with
// per-job failures in band, so unbounded sweeps run in O(parallelism)
// memory; NewSweep builds policy × workload cross-products with
// comparison matrices; and failures carry types — *JobError,
// ErrInvalidConfig, context.Canceled — instead of strings. The
// snippets above, and one example per pillar, are compiled and run as
// Example functions under examples/.
//
// Inside a run, the simulator memoizes the per-tick fixpoint
// evaluation while the platform programming is unchanged between PMU
// decisions (the steady-state fast path) and the PBM's budget→P-state
// grant while its inputs repeat, and batches runs of identical ticks
// into closed-form spans bounded by policy epochs and phase edges, so
// a run costs O(phases + decisions) rather than O(duration/
// SampleInterval). The memos are exact and always on, and span
// batching agrees with the per-tick walk to ≤1e-9 relative across the
// shipped suites (the paths differ only in floating-point summation
// order). Their off-switches are simulator test hooks, not Config
// fields: a Config describes the platform, the workload and the
// governor, never how time is integrated, and the result cache keys on
// all of it. All of this state lives and dies with one run: runs share
// no simulation state, only the engine's result cache. The engine
// recycles assembled platforms across batch jobs through a sync.Pool,
// which is invisible to callers (a reset platform is bit-identical to
// a fresh one).
package sysscale

import (
	"context"
	"crypto/sha256"
	"io"
	"time"

	"sysscale/internal/dram"
	"sysscale/internal/engine"
	"sysscale/internal/ioengine"
	"sysscale/internal/policy"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// Core simulation types.
type (
	// Config describes one simulation run: platform, workload, policy.
	Config = soc.Config
	// Result is a run's outcome: performance, power, energy, EDP and
	// DVFS telemetry.
	Result = soc.Result
	// Policy is a power-management governor.
	Policy = soc.Policy
	// PolicyContext is what a governor observes each interval.
	PolicyContext = soc.PolicyContext
	// PolicyDecision is a governor's output.
	PolicyDecision = soc.PolicyDecision
)

// Workload types.
type (
	// Workload is a named sequence of execution phases.
	Workload = workload.Workload
	// Phase is one phase's CPI-stack decomposition and demands.
	Phase = workload.Phase
	// WorkloadClass labels evaluation categories.
	WorkloadClass = workload.Class
)

// Platform types.
type (
	// OperatingPoint is one joint IO+memory DVFS point.
	OperatingPoint = vf.OperatingPoint
	// Hz is a frequency.
	Hz = vf.Hz
	// Watt is a power.
	Watt = power.Watt
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// DisplayCSR is the IO peripheral configuration register file.
	DisplayCSR = ioengine.CSR
)

// Frequency and time units.
const (
	GHz = vf.GHz
	MHz = vf.MHz

	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DRAM technologies.
const (
	LPDDR3 = dram.LPDDR3
	DDR4   = dram.DDR4
)

// Workload classes.
const (
	CPUSingleThread = workload.CPUSingleThread
	CPUMultiThread  = workload.CPUMultiThread
	Graphics        = workload.Graphics
	Battery         = workload.Battery
)

// DefaultConfig returns the paper's Table 2 platform: 4.5W TDP,
// 2-core Skylake-class SoC, dual-channel LPDDR3-1600, one HD panel,
// 30ms evaluation interval.
func DefaultConfig() Config { return soc.DefaultConfig() }

// Run simulates one workload under one policy.
func Run(cfg Config) (Result, error) { return soc.Run(cfg) }

// RunContext is Run with cancellation: the simulation checks ctx at
// every policy-evaluation boundary and unwinds within one policy epoch
// of wall-progress once ctx is done, returning ctx.Err().
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return soc.RunContext(ctx, cfg)
}

// ErrInvalidConfig is wrapped by every configuration-validation
// failure: errors.Is(err, ErrInvalidConfig) separates "this config can
// never run" from runtime failures such as cancellation.
var ErrInvalidConfig = soc.ErrInvalidConfig

// Batch execution types.
type (
	// Engine is the concurrent run service: a bounded worker pool with
	// a memoizing result cache. Construct with NewEngine.
	Engine = engine.Engine
	// Job is one unit of Engine batch work.
	Job = engine.Job
	// JobResult is one job's streamed outcome: input index plus Result
	// or error, and the job's cache key, delivered by Engine.Stream as
	// each simulation completes.
	JobResult = engine.JobResult
	// JobError reports which batch job failed and why; errors.As
	// recovers it from any batch-path error, and its chain exposes
	// ErrInvalidConfig and context cancellation to errors.Is.
	JobError = engine.JobError
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// EngineStats is the snapshot returned by Engine.CacheStats.
	EngineStats = engine.Stats
	// Sweep declaratively builds a policy × workload cross-product and
	// runs it as one engine batch. Construct with NewSweep.
	Sweep = engine.Sweep
	// ResultSet is a completed Sweep: the result matrix plus the
	// comparison helpers (PerfImprovement, PowerReduction,
	// EDPImprovement) keyed by policy and workload.
	ResultSet = engine.ResultSet
	// Comparison is a ResultSet comparison matrix.
	Comparison = engine.Comparison
)

// NewEngine returns a run engine with the given options.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithParallelism bounds the engine's in-flight simulations (n <= 0
// selects GOMAXPROCS, the default).
func WithParallelism(n int) EngineOption { return engine.WithParallelism(n) }

// WithCache enables or disables the engine's result memoization in
// its LRU and disk tier (enabled by default). With it off, every job
// simulates in full, which is how benchmarks measure raw simulation
// throughput.
func WithCache(enabled bool) EngineOption { return engine.WithCache(enabled) }

// WithCacheSize bounds the engine's result cache to n entries, evicted
// least-recently-used (n <= 0 selects the default bound, 8192).
func WithCacheSize(n int) EngineOption { return engine.WithCacheSize(n) }

// WithDiskCache layers a persistent, content-addressed on-disk result
// tier under the engine's in-memory LRU, rooted at dir. Entries are
// keyed by the canonical spec fingerprint (SpecFingerprint), so
// results persist across process restarts. Results, and so entries,
// are bit-identical only between hosts of the same GOARCH (floating-
// point contraction differs between architectures), so share a cache
// directory only between such hosts. Entries are written atomically
// and checksummed, and a corrupt entry reads as a miss (pruned and
// counted in EngineStats.DiskErrors) — never a wrong result. The tier is
// size-bounded, oldest entries reclaimed first. If the store cannot be
// opened the engine runs without it; check Engine.DiskCacheError after
// NewEngine when the directory comes from user input. An empty dir
// leaves the tier off.
func WithDiskCache(dir string) EngineOption { return engine.WithDiskCache(dir) }

// WithJobTimeout bounds every job's simulation wall time. A job over
// its deadline unwinds within one policy epoch and fails with an
// ErrJobTimeout-classed *JobError — a genuine per-job failure, never
// confused with batch cancellation.
func WithJobTimeout(d time.Duration) EngineOption { return engine.WithJobTimeout(d) }

// PanicError is a worker panic captured by the engine's panic
// isolation: the job that panicked fails with this error (wrapped in
// its *JobError) while the batch, the process, and every other job
// survive. Retrieve with errors.As.
type PanicError = engine.PanicError

// ErrJobTimeout classes a job that exceeded the engine's per-job
// deadline (WithJobTimeout); test with errors.Is.
var ErrJobTimeout = engine.ErrJobTimeout

// ErrDiskDegraded reports the disk tier's circuit breaker standing
// open (consecutive I/O failures tripped it; the tier is skipped until
// a probe succeeds). Returned by Engine.DiskCacheError while degraded
// and reflected by EngineStats.DiskDegraded.
var ErrDiskDegraded = engine.ErrDiskDegraded

// NewSweep starts a policy × workload cross-product builder:
//
//	rs, err := sysscale.NewSweep().
//		Policies(sysscale.NewBaseline(), sysscale.NewSysScale()).
//		Workloads(sysscale.SPECSuite()...).
//		RunContext(ctx, sysscale.NewEngine())
//	gain := rs.PerfImprovement(0) // matrix vs the baseline column
func NewSweep() *Sweep { return engine.NewSweep() }

// NewBaseline returns the evaluation baseline: IO and memory domains
// pinned at the highest operating point with worst-case reservations.
func NewBaseline() Policy { return policy.NewBaseline() }

// NewSysScale returns the SysScale governor with the default
// calibration.
func NewSysScale() Policy { return policy.NewSysScaleDefault() }

// NewMemScale returns the MemScale [16] reimplementation; redistribute
// selects the -Redist variant of §6.
func NewMemScale(redistribute bool) Policy {
	if redistribute {
		return policy.NewMemScaleRedist()
	}
	return policy.NewMemScale()
}

// NewCoScale returns the CoScale [14] reimplementation; redistribute
// selects the -Redist variant of §6.
func NewCoScale(redistribute bool) Policy {
	if redistribute {
		return policy.NewCoScaleRedist()
	}
	return policy.NewCoScale()
}

// NewStaticPoint pins the IO+memory domains at ladder index (0 = high);
// redistribute resizes the compute budget to match.
func NewStaticPoint(index int, redistribute bool) Policy {
	return policy.NewStaticPoint(index, redistribute)
}

// SPEC returns one SPEC CPU2006 workload by name (e.g. "470.lbm").
func SPEC(name string) (Workload, error) { return workload.SPEC(name) }

// SPECSuite returns all 29 single-threaded SPEC CPU2006 workloads.
func SPECSuite() []Workload { return workload.SPECSuite() }

// GraphicsSuite returns the three 3DMark workloads.
func GraphicsSuite() []Workload { return workload.GraphicsSuite() }

// BatterySuite returns the four battery-life workloads.
func BatterySuite() []Workload { return workload.BatterySuite() }

// Stream returns the peak-bandwidth microbenchmark of §3/Fig. 4.
func Stream() Workload { return workload.Stream() }

// Stochastic workload generation (internal/workload/gen): seed-driven
// Markov-model scenario synthesis, mutation-derived scenario families,
// and the persistable JSON trace format. Identical GenConfigs produce
// byte-identical workloads across runs and parallelism levels.
type (
	// GenConfig parameterizes the stochastic workload generator.
	GenConfig = gen.Config
	// GenClass is a generator workload class (the Markov state space).
	GenClass = gen.Class
	// GenMatrix is the Markov phase-transition matrix.
	GenMatrix = gen.Matrix
	// Mutator derives perturbed workloads from existing ones.
	Mutator = gen.Mutator
	// WorkloadTrace is a persistable generated scenario set with
	// replayable generator provenance.
	WorkloadTrace = gen.Trace
)

// DefaultGenConfig returns the default generator parameters for a seed.
func DefaultGenConfig(seed uint64) GenConfig { return gen.DefaultConfig(seed) }

// GenerateWorkloads emits n workloads from one configuration.
func GenerateWorkloads(cfg GenConfig, n int) []Workload { return gen.GenerateN(cfg, n) }

// MutateWorkloads derives n mutated variants of base (a scenario
// family) by applying the mutators with per-variant forked RNGs.
func MutateWorkloads(base Workload, seed uint64, n int, ms ...Mutator) []Workload {
	return gen.Family(base, seed, n, ms...)
}

// The composable workload mutators. Each keeps Validate-clean
// workloads Validate-clean, so chains apply to any workload.
func SplitPhases(prob float64) Mutator            { return gen.SplitPhases(prob) }
func JitterDurations(frac float64) Mutator        { return gen.JitterDurations(frac) }
func ScaleBW(lo, hi float64) Mutator              { return gen.ScaleBW(lo, hi) }
func InjectIdle(prob float64, dwell Time) Mutator { return gen.InjectIdle(prob, dwell) }

// NewWorkloadTrace records n generated workloads with provenance.
func NewWorkloadTrace(cfg GenConfig, n int) WorkloadTrace { return gen.NewTrace(cfg, n) }

// WriteWorkloadTrace / ReadWorkloadTrace persist traces as JSON.
func WriteWorkloadTrace(w io.Writer, t WorkloadTrace) error { return gen.WriteTrace(w, t) }
func ReadWorkloadTrace(r io.Reader) (WorkloadTrace, error)  { return gen.ReadTrace(r) }

// Job specs (internal/spec): the versioned JSON document that
// round-trips every runnable Config — platform, workload (built-in
// name, inline phases, or a tracegen trace entry), policy (registry
// name + typed params + ablation wrappers) and run parameters.
// DecodeSpec validates like Run does, so a spec that decodes is a spec
// that runs; SpecFingerprint over the canonical encoding is the
// engine's cache identity, stable across processes. Older documents
// still decode; one that sets a switch retired in spec v3 is a config
// error.
type (
	// JobSpec is one serializable simulation job.
	JobSpec = spec.Job
	// PlatformSpec is a JobSpec's platform section.
	PlatformSpec = spec.Platform
	// PointSpec is one serialized IO+memory operating point.
	PointSpec = spec.Point
	// CSRSpec is the serialized display/camera configuration.
	CSRSpec = spec.CSR
	// PanelSpec is one serialized display head.
	PanelSpec = spec.PanelCfg
	// WorkloadSpec selects a JobSpec's workload (exactly one form).
	WorkloadSpec = spec.WorkloadRef
	// TraceSpec embeds a tracegen trace and picks one workload from it.
	TraceSpec = spec.TraceRef
	// PolicySpec selects a registered policy family by name.
	PolicySpec = spec.Policy
	// RunSpec carries the serialized run parameters (nanoseconds).
	RunSpec = spec.Run
)

// EncodeSpec serializes a runnable Config to its normalized spec:
// workload inlined, every field explicit, policy parameters fully
// populated. It fails for policy types not known to the registry.
func EncodeSpec(cfg Config) (JobSpec, error) { return spec.Encode(cfg) }

// DecodeSpec resolves a job spec to a runnable Config, validating it
// the way Run would (errors wrap ErrInvalidConfig where applicable).
func DecodeSpec(job JobSpec) (Config, error) { return spec.Decode(job) }

// ReadJobSpec / WriteJobSpec persist job specs as JSON. ReadJobSpec
// rejects unknown fields; WriteJobSpec emits an indented, readable
// rendering (not the canonical encoding — see SpecFingerprint).
func ReadJobSpec(r io.Reader) (JobSpec, error)    { return spec.ReadJob(r) }
func WriteJobSpec(w io.Writer, job JobSpec) error { return spec.WriteJob(w, job) }

// ReadJobSpecs reads a JSON array of job specs — the sweep wire form
// accepted by sweepd's POST /v1/sweeps. Like ReadJobSpec it rejects
// unknown fields, trailing data, and documents over MaxSpecBytes.
func ReadJobSpecs(r io.Reader) ([]JobSpec, error) { return spec.ReadJobs(r) }

// MaxSpecBytes is the input-size bound ReadJobSpec and ReadJobSpecs
// enforce; larger documents fail with a size error instead of being
// slurped into memory.
const MaxSpecBytes = spec.MaxDocBytes

// SpecFingerprint returns sha256 of the canonical spec bytes — the
// engine's cache key for the decoded job, reproducible by any process
// that can normalize, sort and compact the same JSON.
func SpecFingerprint(job JobSpec) ([sha256.Size]byte, error) { return spec.Fingerprint(job) }

// JobFromSpec decodes a spec into an engine Job (DecodeSpec + wrap),
// for batch submission through Engine.RunBatchContext or Engine.Stream.
func JobFromSpec(job JobSpec) (Job, error) { return engine.FromSpec(job) }

// Policy registry types: how policy families serialize in job specs.
type (
	// PolicyCodec serializes one policy family: its concrete Type,
	// Decode (params JSON to a policy) and AppendParams (a live policy
	// to its canonical params JSON, the only params encoder).
	PolicyCodec = policy.Codec
	// PolicyWrapper builds one ablation wrapper by name.
	PolicyWrapper = policy.Wrapper
)

// RegisterPolicy adds a policy family to the spec registry under name.
// Registration is a policy type's only serialized identity and engine
// cache key: unregistered policy types still run but never cache, and
// there is no other way to opt in or out. A codec needs Type, Decode
// and AppendParams. Duplicate names or duplicate concrete types are
// rejected, so two packages cannot silently alias one identity.
func RegisterPolicy(name string, c PolicyCodec) error { return policy.Register(name, c) }

// RegisterPolicyWrapper adds an ablation wrapper to the registry. The
// wrapper's Type must have an Unwrap() Policy method returning the
// decorated policy; registration rejects one without it.
func RegisterPolicyWrapper(name string, w PolicyWrapper) error {
	return policy.RegisterWrapper(name, w)
}

// BuiltinWorkload resolves a shipped workload by name (matched
// case-insensitively across every suite) — the lookup behind spec
// files' {"workload":{"builtin":...}} and the CLIs' -workload flags.
func BuiltinWorkload(name string) (Workload, error) { return workload.Builtin(name) }

// BuiltinWorkloadNames lists every name BuiltinWorkload accepts.
func BuiltinWorkloadNames() []string { return workload.BuiltinNames() }

// PerfImprovement returns r's performance improvement over base.
func PerfImprovement(r, base Result) float64 { return soc.PerfImprovement(r, base) }

// PowerReduction returns r's average-power reduction versus base.
func PowerReduction(r, base Result) float64 { return soc.PowerReduction(r, base) }

// EDPImprovement returns r's energy-delay-product improvement versus
// base (positive = more efficient).
func EDPImprovement(r, base Result) float64 { return soc.EDPImprovement(r, base) }

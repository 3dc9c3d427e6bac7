// Package engine is the concurrent simulation run service: it executes
// batches of independent soc.Run jobs on a bounded worker pool and
// memoizes results behind a canonical config fingerprint.
//
// Every simulation in this repository is a pure function of its
// soc.Config, so batches parallelize trivially — except that policies
// are stateful (soc.Run resets and then mutates them), which makes
// sharing one Policy value across goroutines a data race. The engine
// therefore clones the configured policy once per job via
// soc.Policy.Clone and leaves the caller's instance untouched.
//
// The primitive execution surface is the streaming core (runJobs): a
// batch is one pass per job. Parallelism() workers, the calling
// goroutine among them, claim job indices from an atomic counter, and
// each worker keys its job, looks it up in the LRU and the disk tier or
// simulates it, and delivers one JobResult per job as it completes.
// Stream exposes the core on a channel that holds O(parallelism)
// results; RunBatchContext is a thin collector over the same core that
// delivers straight into the ordered results slice and restores
// fail-fast semantics. All entry points
// accept a context: cancellation stops the claiming of further jobs,
// unwinds in-flight simulations within one policy epoch, and returns
// every pooled platform cleanly.
//
// Results come back in input order (batch paths) or tagged with their
// input index (Stream) regardless of worker count. The cache persists
// across batches, so an experiment harness that re-runs the same
// baselines for several figures pays for them once. Duplicates inside
// one batch are not coalesced: a copy claimed after its twin finished
// hits the LRU, and one claimed while the twin still runs simulates
// again, which yields the same bits.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sysscale/internal/diskcache"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
)

// Job is one unit of batch work: a fully-specified simulation run.
type Job struct {
	Config soc.Config
}

// FromSpec builds a Job from a serialized job spec, resolving the
// workload reference and the policy registry name and validating the
// result (spec.Decode). The job's cache identity is the spec's
// fingerprint: running a decoded spec and re-running the same file hit
// the same cache entry.
func FromSpec(job spec.Job) (Job, error) {
	cfg, err := spec.Decode(job)
	if err != nil {
		return Job{}, err
	}
	return Job{Config: cfg}, nil
}

// JobResult is one job's outcome as delivered by Stream: the input
// index it belongs to, and either the Result or a non-nil Err (a
// *JobError, whose chain includes soc.ErrInvalidConfig for rejected
// configs and ctx.Err() for cancelled runs).
//
// Key is the job's cache key, spec.Key of its config, as the engine
// computed it to consult the result tiers; Keyed reports that it did.
// A job is unkeyed when its policy is not registered or the engine
// runs WithCache(false). Lookup(Key) later finds the result while a
// tier still holds it.
type JobResult struct {
	Index  int
	Result soc.Result
	Err    error
	Key    [32]byte
	Keyed  bool
}

// JobError reports which batch job failed and why. It wraps the
// underlying cause, so errors.Is/As see through it:
//
//	errors.Is(err, soc.ErrInvalidConfig) // bad configuration
//	errors.Is(err, context.Canceled)     // job unwound by cancellation
//	var je *engine.JobError
//	errors.As(err, &je)                  // je.Index, je.Config
type JobError struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Config is the failed job's configuration.
	Config soc.Config
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	pol := "<nil>"
	if e.Config.Policy != nil {
		pol = e.Config.Policy.Name()
	}
	return fmt.Sprintf("engine: job %d (%s under %s): %v", e.Index, e.Config.Workload.Name, pol, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// ErrJobTimeout classes a job that exceeded the engine's per-job
// deadline (WithJobTimeout). It is deliberately a plain sentinel
// — NOT context.DeadlineExceeded — so the batch paths' cancellation-
// collateral filters can never mistake a job's own timeout for the
// batch being cancelled: a timed-out job is a genuine, reported
// failure. Test with errors.Is(err, ErrJobTimeout).
var ErrJobTimeout = errors.New("engine: job deadline exceeded")

// ErrDiskDegraded reports the disk tier's circuit breaker standing
// open: the tier is being skipped (no I/O issued) until a probe
// succeeds. Surfaced by DiskCacheError while degraded.
var ErrDiskDegraded = errors.New("engine: disk cache degraded (circuit breaker open)")

// PanicError is a worker panic captured by the engine's panic
// isolation: the policy (or simulator) panicked mid-run, the panic was
// recovered on the worker, the possibly-corrupt platform was discarded
// instead of pooled, and the panic reads as this error on the job that
// caused it — the batch, the process, and every other job survive.
// Retrieve it with errors.As.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery
	// (runtime/debug.Stack).
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic: %v", p.Value)
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds the number of simulations in flight. n <= 0
// selects GOMAXPROCS, the default.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithCache enables or disables result memoization in the LRU and the
// disk tier (enabled by default). Disable it to measure raw simulation
// throughput in benchmarks.
func WithCache(enabled bool) Option {
	return func(e *Engine) { e.cacheOn = enabled }
}

// DefaultCacheSize is the result cache's default entry bound.
const DefaultCacheSize = 8192

// WithCacheSize bounds the result cache to n entries, evicted least-
// recently-used (n <= 0 selects DefaultCacheSize). The cache is always
// bounded: an unbounded sweep of distinct configs cycles the cache
// instead of growing it, so long-lived sweep services no longer need
// ClearCache discipline to bound memory.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheSize = n }
}

// WithDiskCache layers the persistent on-disk result tier (see
// internal/diskcache) under the in-memory LRU, rooted at dir. Results
// computed by any engine — in this process or another — with the same
// canonical config fingerprint are served from disk across process
// restarts, bit-identically (the entry payload is an exact binary
// encoding of the soc.Result). Corrupt or truncated entries read as
// misses, are pruned, and count in Stats.DiskErrors; they never poison
// a result or abort a batch. Jobs whose policy is not registered have
// no key and bypass the tier like they bypass the LRU.
//
// The store is opened by New and wrapped in a diskcache.Breaker with
// its default threshold and probe interval, so a dying disk degrades
// the tier instead of grinding an error into every job. An open
// failure (unwritable dir) leaves the engine fully functional without
// the disk tier and is reported by DiskCacheError — callers wiring a
// user-supplied directory should check it and fail loudly. An empty
// dir leaves the tier off.
func WithDiskCache(dir string) Option {
	return func(e *Engine) { e.diskDir = dir }
}

// WithDiskTier installs tier as the persistent result tier exactly as
// given, bypassing WithDiskCache's store construction and breaker. It
// exists for fault injection (internal/faultinject wraps a real store
// with a deterministic fault plan) and for tests that need a scripted
// tier; production callers want WithDiskCache. A caller that wants a
// breaker passes one: WithDiskTier(diskcache.NewBreaker(tier, n, d)).
func WithDiskTier(tier diskcache.Tier) Option {
	return func(e *Engine) { e.disk = tier }
}

// WithJobTimeout bounds every job's simulation wall time (d <= 0 means
// no bound, the default). A job over its deadline unwinds within one
// policy epoch, returns its pooled platform, and fails with an
// ErrJobTimeout-classed *JobError — a genuine per-job failure, distinct
// from batch cancellation (fail-fast RunBatchContext reports it; Stream
// delivers it).
func WithJobTimeout(d time.Duration) Option {
	return func(e *Engine) { e.jobTimeout = d }
}

// Stats is a snapshot of the engine's cache behaviour. It is plain
// data, safe to retain and JSON-serializable (snake_case field names)
// — CacheStats is the race-safe snapshot accessor, and its value is
// what the sweep service's /v1/stats endpoint and the CLIs' stats
// lines emit.
type Stats struct {
	// Entries is the number of memoized results.
	Entries int `json:"entries"`
	// Hits counts jobs served from the in-memory LRU. Disk-tier hits
	// count in DiskHits instead.
	Hits int `json:"hits"`
	// Misses counts jobs that executed a simulation.
	Misses int `json:"misses"`
	// Evictions counts results dropped by the LRU bound.
	Evictions int `json:"evictions"`

	// SpanHits, SpanMisses and SpanDropped are always 0: the engine
	// has no span cache.
	//
	// Deprecated: kept so bench/ compiles; delete with its span probes.
	SpanHits    int `json:"span_hits"`
	SpanMisses  int `json:"span_misses"`
	SpanDropped int `json:"span_dropped"`

	// DiskHits/DiskMisses/DiskErrors/DiskBytes snapshot the persistent
	// on-disk result tier (WithDiskCache): results served from disk
	// into the LRU, lookups that found no entry, corrupt or unreadable
	// entries degraded to misses (and pruned) plus failed writes, and
	// the store's current entry footprint. All zero when no disk tier
	// is configured.
	DiskHits   int   `json:"disk_hits"`
	DiskMisses int   `json:"disk_misses"`
	DiskErrors int   `json:"disk_errors"`
	DiskBytes  int64 `json:"disk_bytes"`
	// DiskDegraded reports the disk tier's circuit breaker standing
	// open: consecutive I/O failures tripped the tier, jobs are
	// skipping it entirely (skipped lookups count as DiskMisses), and
	// it stays skipped until a probe succeeds. See WithDiskCache.
	DiskDegraded bool `json:"disk_degraded"`

	// Panics counts worker panics recovered into PanicError by the
	// engine's panic isolation.
	Panics int `json:"panics"`
}

// cacheKey is a config fingerprint (spec.Key): a sha256 digest,
// comparable and heap-free. A config without one — its policy is not
// registered — always simulates and is never cached.
type cacheKey = [32]byte

// cacheEntry is one LRU-resident result.
type cacheEntry struct {
	key cacheKey
	res soc.Result
}

// Engine executes batches of independent simulations on a bounded
// worker pool with a memoizing result cache. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use.
type Engine struct {
	parallelism int
	cacheOn     bool
	cacheSize   int

	// disk is the persistent second result tier (nil without
	// WithDiskCache/WithDiskTier): consulted under the in-memory LRU on
	// a miss and written through on every cacheable simulation.
	// diskErr records a failed store open; the engine then runs without
	// the tier.
	disk    diskcache.Tier
	diskDir string
	diskErr error

	jobTimeout time.Duration

	mu sync.Mutex
	// cache + order form the size-capped LRU over results: cache maps
	// fingerprints to their list elements; order is most-recently-used
	// first.
	cache map[cacheKey]*list.Element
	order *list.List
	stats Stats
}

// New returns an engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{cacheOn: true}
	for _, o := range opts {
		o(e)
	}
	if e.cacheSize <= 0 {
		e.cacheSize = DefaultCacheSize
	}
	e.cache = make(map[cacheKey]*list.Element)
	e.order = list.New()

	if e.disk == nil && e.diskDir != "" {
		store, err := diskcache.Open(e.diskDir)
		if err != nil {
			e.diskErr = err
		} else {
			e.disk = diskcache.NewBreaker(store, 0, 0)
		}
	}
	return e
}

// DiskCacheError reports the disk tier's health: non-nil when
// WithDiskCache failed to open its store, or when the tier's circuit
// breaker is currently open (errors.Is(err, ErrDiskDegraded)) because
// consecutive I/O failures tripped it. Nil otherwise, including when no
// disk tier was requested. The engine stays fully functional in every
// case — results come from memory and simulation — but callers wiring a
// user-supplied cache directory should surface this loudly instead of
// letting every run silently re-simulate.
func (e *Engine) DiskCacheError() error {
	if e.diskErr != nil {
		return e.diskErr
	}
	if b, ok := e.disk.(*diskcache.Breaker); ok && b.Degraded() {
		return fmt.Errorf("%w after %d trip(s)", ErrDiskDegraded, b.Trips())
	}
	return nil
}

// cacheGet looks key up in the LRU, refreshing its recency on a hit.
// Callers hold e.mu.
func (e *Engine) cacheGet(key cacheKey) (soc.Result, bool) {
	el, ok := e.cache[key]
	if !ok {
		return soc.Result{}, false
	}
	e.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// cachePut inserts (or refreshes) a result, evicting the least
// recently used entry beyond the size bound. Callers hold e.mu.
func (e *Engine) cachePut(key cacheKey, res soc.Result) {
	if el, ok := e.cache[key]; ok {
		el.Value.(*cacheEntry).res = res
		e.order.MoveToFront(el)
		return
	}
	e.cache[key] = e.order.PushFront(&cacheEntry{key: key, res: res})
	for len(e.cache) > e.cacheSize {
		back := e.order.Back()
		e.order.Remove(back)
		delete(e.cache, back.Value.(*cacheEntry).key)
		e.stats.Evictions++
	}
}

// Parallelism returns the effective worker bound.
func (e *Engine) Parallelism() int {
	if e.parallelism > 0 {
		return e.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// CacheStats returns a snapshot of the cache counters.
func (e *Engine) CacheStats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Entries = len(e.cache)
	e.mu.Unlock()
	if e.disk != nil {
		ds := e.disk.Stats()
		s.DiskHits = ds.Hits
		s.DiskMisses = ds.Misses
		s.DiskErrors = ds.Errors
		s.DiskBytes = ds.Bytes
		s.DiskDegraded = ds.Degraded
	}
	return s
}

// ClearCache drops every memoized result (the hit/miss counters are
// kept). The cache is bounded, so this is about reclaiming memory
// promptly, not about preventing growth.
// The on-disk tier is untouched: persistence across processes is its
// point; delete the cache directory to reclaim it.
func (e *Engine) ClearCache() {
	e.mu.Lock()
	e.cache = make(map[cacheKey]*list.Element)
	e.order = list.New()
	e.mu.Unlock()
}

// RunContext simulates one configuration through the engine
// (memoized). A cancelled run unwinds within one policy epoch and
// returns ctx.Err().
func (e *Engine) RunContext(ctx context.Context, cfg soc.Config) (soc.Result, error) {
	rs, err := e.RunBatchContext(ctx, []Job{{Config: cfg}})
	if err != nil {
		return soc.Result{}, err
	}
	return rs[0], nil
}

// RunBatchContext executes the jobs with bounded parallelism and
// returns their results in input order. The batch is deterministic:
// the returned slice is identical to running each job sequentially
// through soc.Run, whatever the worker count. On the first failure the
// engine stops claiming jobs, cancels in-flight simulations, and
// returns a *JobError identifying the lowest-indexed failed job; no
// partial results are returned. Once ctx is done the engine stops
// claiming jobs, in-flight simulations unwind within one policy
// epoch, every pooled platform is returned, and the call reports
// ctx.Err() (so errors.Is(err, context.Canceled) holds for a cancelled
// batch).
func (e *Engine) RunBatchContext(ctx context.Context, jobs []Job) ([]soc.Result, error) {
	// Nil-policy jobs are rejected up front — before any simulation
	// runs — preserving the historical batch contract.
	for i, j := range jobs {
		if j.Config.Policy == nil {
			return nil, &JobError{Index: i, Config: j.Config, Err: fmt.Errorf("%w: nil policy", soc.ErrInvalidConfig)}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Collect the streaming core with fail-fast, delivering straight
	// into the results slice (each index is delivered exactly once, so
	// the direct writes need no lock and no channel handoff). The first
	// real job failure cancels the batch context, which stops claiming
	// and unwinds in-flight runs; those unwound siblings report
	// context.Canceled — collateral of the fail-fast, not root causes —
	// so they never displace the genuine error. Among genuine failures
	// the lowest-indexed delivered job wins.
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]soc.Result, len(jobs))
	var (
		errMu    sync.Mutex
		firstErr *JobError
	)
	e.runJobs(bctx, jobs, func(jr JobResult) bool {
		switch {
		case jr.Err == nil:
			results[jr.Index] = jr.Result
		case errors.Is(jr.Err, context.Canceled) || errors.Is(jr.Err, context.DeadlineExceeded):
			// Unwound by cancellation (ours or the caller's).
		default:
			var je *JobError
			if !errors.As(jr.Err, &je) {
				je = &JobError{Index: jr.Index, Config: jobs[jr.Index].Config, Err: jr.Err}
			}
			errMu.Lock()
			if firstErr == nil || je.Index < firstErr.Index {
				firstErr = je
			}
			errMu.Unlock()
			cancel()
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Stream executes the jobs with bounded parallelism and delivers one
// JobResult per job on the returned channel as each completes
// (completion order, not input order — JobResult.Index identifies the
// job). Results are not accumulated for delivery: the channel holds
// O(parallelism) of them. The engine cache is bounded (WithCacheSize),
// so even an unbounded config space cycles cache memory instead of
// growing it, and the batch keeps no per-job state.
//
// A failed job delivers a JobResult with a *JobError instead of
// killing the stream; jobs are independent and the remaining jobs
// still run. The channel is closed once every job has been delivered,
// or — when ctx is cancelled — once queued jobs have been abandoned
// and in-flight simulations have unwound (within one policy epoch) and
// returned their pooled platforms. Jobs overtaken by the cancellation
// are dropped, never delivered: an error on the channel is always a
// genuine job failure, not cancellation collateral.
//
// The consumer contract: either drain the channel to its close, or
// cancel ctx (after which the channel closes on its own, so further
// draining is optional). Breaking out of the receive loop without
// cancelling ctx leaks the stream's worker goroutines for the life of
// the process — they block delivering into a channel nobody reads.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan JobResult {
	// The channel carries a small buffer — one slot per worker — to
	// soften the producer/consumer handoff; memory stays
	// O(parallelism).
	out := make(chan JobResult, e.Parallelism())
	go func() {
		defer close(out)
		e.runJobs(ctx, jobs, func(jr JobResult) bool {
			if jr.Err != nil && (errors.Is(jr.Err, context.Canceled) || errors.Is(jr.Err, context.DeadlineExceeded)) {
				// Cancellation collateral: an in-flight job unwound by
				// ctx. Drop it deterministically — without this check
				// the select below delivers or drops at random while
				// both cases are ready — and stop delivering (the only
				// source of such errors is ctx itself being done).
				return false
			}
			select {
			case out <- jr:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}

// runJobs is the shared streaming core behind Stream and
// RunBatchContext. Parallelism() workers, at most one per job and the
// calling goroutine among them, claim job indices in input order from
// an atomic counter, and each takes its job from start to finish
// (batch.do): key, LRU, disk tier, simulation, cache fill and
// delivery. deliver is called concurrently from the workers; it returns
// false to stop deliveries early. Once ctx is done no further job is
// claimed.
// runJobs returns once every worker has finished — on cancellation
// that means unclaimed jobs were abandoned, in-flight simulations
// unwound within one policy epoch, and every pooled Runner is back in
// the pool.
func (e *Engine) runJobs(ctx context.Context, jobs []Job, deliver func(JobResult) bool) {
	b := &batch{e: e, ctx: ctx, jobs: jobs, deliver: deliver}
	workers := min(e.Parallelism(), len(jobs))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.work()
		}()
	}
	b.work()
	wg.Wait()
}

// batch is the state one runJobs call shares among its workers.
type batch struct {
	e       *Engine
	ctx     context.Context
	jobs    []Job
	deliver func(JobResult) bool
	next    atomic.Int64 // the next unclaimed job index
}

// work claims jobs until none is left, ctx is done, or deliver
// declines a result.
func (b *batch) work() {
	done := b.ctx.Done()
	for {
		select {
		case <-done:
			return
		default:
		}
		i := int(b.next.Add(1) - 1)
		if i >= len(b.jobs) || !b.do(i) {
			return
		}
	}
}

// do resolves job i from the first tier that has it (Lookup), else
// by a simulation that fills both tiers, and delivers the outcome. It
// returns false once deliver declines.
func (b *batch) do(i int) bool {
	e, cfg := b.e, &b.jobs[i].Config
	if cfg.Policy == nil {
		return b.send(JobResult{Index: i, Err: fmt.Errorf("%w: nil policy", soc.ErrInvalidConfig)})
	}
	jr := JobResult{Index: i}
	if e.cacheOn {
		jr.Key, jr.Keyed = spec.Key(*cfg)
	}
	if !jr.Keyed {
		// Nothing else holds this result, so it is delivered uncopied.
		jr.Result, jr.Err = e.simulate(b.ctx, *cfg, nil)
		return b.send(jr)
	}
	if r, ok := e.Lookup(jr.Key); ok {
		jr.Result = r
		return b.send(jr)
	}
	res, err := e.simulate(b.ctx, *cfg, &jr.Key)
	// The LRU holds res, so the delivery is a copy.
	jr.Result, jr.Err = cloneResult(res), err
	return b.send(jr)
}

// send delivers jr, its Err wrapped in a *JobError naming the job.
func (b *batch) send(jr JobResult) bool {
	if jr.Err != nil {
		jr.Result = soc.Result{}
		jr.Err = &JobError{Index: jr.Index, Config: b.jobs[jr.Index].Config, Err: jr.Err}
	}
	return b.deliver(jr)
}

// Lookup returns the result cached under key, a config's spec.Key:
// from the LRU (counted in Stats.Hits), else from the disk tier
// (counted by the tier in Stats.DiskHits, or DiskMisses when absent)
// and promoted into the LRU. It reports false when neither tier holds
// the key, and always when the engine runs WithCache(false). The
// result is a copy: no caller aliases a cached entry. The batch paths
// resolve every keyed job through Lookup before simulating it.
func (e *Engine) Lookup(key [32]byte) (soc.Result, bool) {
	if !e.cacheOn {
		return soc.Result{}, false
	}
	e.mu.Lock()
	r, hit := e.cacheGet(key)
	if hit {
		e.stats.Hits++
	}
	e.mu.Unlock()
	if hit {
		return cloneResult(r), true
	}
	// The Get error is diagnostic only (the tier counts it and the
	// breaker watches it); found is authoritative and every failure
	// degrades to a miss.
	if e.disk == nil {
		return soc.Result{}, false
	}
	r, ok, _ := e.disk.Get(key)
	if !ok {
		return soc.Result{}, false
	}
	e.mu.Lock()
	e.cachePut(key, r)
	e.mu.Unlock()
	return cloneResult(r), true
}

// runnerPool recycles assembled platforms across jobs and batches:
// each worker checks a soc.Runner out for the duration of one
// simulation, so steady-state batch traffic stops paying for MRC
// retraining, component assembly, and per-run slice/map allocations.
// Runners are goroutine-exclusive while checked out, and a recycled
// platform is reset to a state bit-identical with fresh assembly, so
// pooling changes neither determinism nor results. A cancelled run
// returns its Runner like any other — Reset restores a platform
// abandoned mid-run exactly as it restores a completed one.
var runnerPool = sync.Pool{New: func() any { return soc.NewRunner() }}

// runnersInFlight gauges Runners currently checked out of runnerPool.
// It must read zero whenever no simulation is executing — the tests
// use it to prove neither cancellation nor a worker panic can leak a
// pooled Runner.
var runnersInFlight atomic.Int64

// RunnersInFlight reports how many pooled Runners are currently checked
// out for executing simulations, process-wide. It is the engine's leak
// gauge: it must read zero whenever no batch is executing, whatever
// mix of completions, cancellations, timeouts, and panics preceded —
// the fault-injection torture tests assert exactly that.
func RunnersInFlight() int64 { return runnersInFlight.Load() }

// simulate runs cfg and, on success, counts a miss; given a key, it
// also fills the LRU and writes through to the disk tier (atomic on
// disk; a failed write counts a DiskError, feeds the breaker, and
// costs nothing else). The LRU keeps res itself: entries leave it only
// as copies, so no caller ever aliases one.
func (e *Engine) simulate(ctx context.Context, cfg soc.Config, key *cacheKey) (soc.Result, error) {
	res, err := e.runOnce(ctx, cfg)
	if err != nil {
		return res, err
	}
	e.mu.Lock()
	e.stats.Misses++
	if key != nil {
		e.cachePut(*key, res)
	}
	e.mu.Unlock()
	if key != nil && e.disk != nil {
		e.disk.Put(*key, res)
	}
	return res, nil
}

// runOnce executes one simulation under the engine's job deadline with
// full panic isolation. The single deferred block owns the Runner's
// whole lifecycle — gauge decrement, pool return, panic recovery — so
// no return path, early or panicking, can leak a checked-out Runner or
// leave the gauge skewed. A recovered panic discards the Runner (its
// platform may be mid-epoch, mid-mutation — Reset guarantees hold for
// runs that unwound through RunContext, not for arbitrary interrupt
// points) and surfaces as *PanicError.
func (e *Engine) runOnce(ctx context.Context, cfg soc.Config) (res soc.Result, err error) {
	cfg.Policy = cfg.Policy.Clone()
	if e.jobTimeout > 0 {
		// The cause brands the deadline as this job's own: soc returns
		// context.Cause at its per-epoch check, so the job fails with
		// ErrJobTimeout while batch cancellation still reads as
		// context.Canceled collateral.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, e.jobTimeout, ErrJobTimeout)
		defer cancel()
	}

	runner := runnerPool.Get().(*soc.Runner)
	runnersInFlight.Add(1)
	defer func() {
		if r := recover(); r != nil {
			// The panic unwound the simulation at an arbitrary point;
			// the platform state is suspect, so the Runner is discarded
			// — the pool assembles a replacement on demand.
			res = soc.Result{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
			e.mu.Lock()
			e.stats.Panics++
			e.mu.Unlock()
		} else {
			runnerPool.Put(runner)
		}
		runnersInFlight.Add(-1)
	}()
	return runner.RunContext(ctx, cfg)
}

// cloneResult deep-copies the result's one slice, PointResidency, so
// a delivered result never aliases an LRU entry or another delivery.
func cloneResult(r soc.Result) soc.Result {
	c := r
	if r.PointResidency != nil {
		c.PointResidency = append([]float64(nil), r.PointResidency...)
	}
	return c
}

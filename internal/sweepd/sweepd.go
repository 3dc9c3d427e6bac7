// Package sweepd is the sweep service: the simulation engine behind an
// HTTP/JSON API, turning the in-process what-if engine into a
// capacity/energy-planning server a fleet of clients can share.
//
// The API surface is four endpoints:
//
//	POST   /v1/jobs         one job spec in, its result out (synchronous)
//	POST   /v1/sweeps       a JSON array of job specs in; results stream
//	                        back as NDJSON in completion order, one
//	                        StreamLine per job, per-job errors in-band,
//	                        a Done marker last
//	DELETE /v1/sweeps/{id}  cancel a running sweep (id from the
//	                        response's Sweep-Id header); in-flight
//	                        simulations unwind within one policy epoch
//	GET    /v1/stats        engine + server counters as JSON
//	GET    /healthz         readiness probe
//
// The payload is the PR 7 versioned job spec (internal/spec), so a
// job submitted over the wire has the same identity — validation,
// canonical bytes, cache fingerprint — as one run locally: services on
// hosts of one GOARCH sharing a disk cache directory
// (engine.WithDiskCache) serve a config one of them finished from disk.
// Two that miss the same config at the same time both simulate it.
//
// Memory per sweep is O(parallelism): results go straight from
// engine.Stream to the response writer and are never accumulated.
//
// # Admission control
//
// The server degrades loudly instead of queueing unboundedly. A
// semaphore bounds concurrently admitted requests (sweeps and single
// jobs alike); past it the server answers 503 with a Retry-After hint
// rather than holding connections open. Request bodies are bounded
// (http.MaxBytesReader and the spec decoder's own MaxDocBytes), the
// number of specs per sweep is capped, and per-job wall time is
// bounded by the engine's WithJobTimeout. Every rejection is a typed
// JSON error with a stable code (see ErrorInfo), never a hang.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/spec"
)

// Defaults for the admission-control knobs (Config).
const (
	// DefaultMaxSpecsPerSweep caps one sweep's spec count: a larger
	// space should be submitted as several sweeps, which bounds both
	// the decoded request footprint and how long one response stream
	// monopolizes a connection.
	DefaultMaxSpecsPerSweep = 4096
	// DefaultMaxBodyBytes caps the request body; it matches the spec
	// decoder's own MaxDocBytes bound.
	DefaultMaxBodyBytes = spec.MaxDocBytes
	// DefaultRetryAfter is the hint sent with 503 responses.
	DefaultRetryAfter = time.Second
)

// DefaultMaxConcurrentSweeps returns the default admission bound:
// twice the engine's worker count, so there is always a decoded sweep
// ready to feed the pool while bounded well short of unbounded
// connection pileup.
func DefaultMaxConcurrentSweeps() int { return 2 * runtime.GOMAXPROCS(0) }

// errCanceledByDelete is the cancel cause recorded when DELETE
// /v1/sweeps/{id} cancels a sweep.
var errCanceledByDelete = errors.New("sweepd: sweep canceled by request")

// Config configures a Server. Engine is the only required field; zero
// values select the defaults above.
type Config struct {
	// Engine executes the jobs. Its options — parallelism, caches,
	// WithJobTimeout — are the service's execution policy; nil
	// constructs a default engine.
	Engine *engine.Engine
	// MaxConcurrentSweeps bounds admitted requests (sweeps and single
	// jobs); <= 0 selects DefaultMaxConcurrentSweeps().
	MaxConcurrentSweeps int
	// MaxSpecsPerSweep caps one sweep's spec count; <= 0 selects
	// DefaultMaxSpecsPerSweep.
	MaxSpecsPerSweep int
	// MaxBodyBytes caps the request body; <= 0 selects
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RetryAfter is the 503 Retry-After hint; <= 0 selects
	// DefaultRetryAfter.
	RetryAfter time.Duration
}

// Server is the sweep service's HTTP handler. Construct with New; it
// is safe for concurrent use and implements http.Handler.
type Server struct {
	eng        *engine.Engine
	mux        *http.ServeMux
	sem        chan struct{}
	maxSpecs   int
	maxBody    int64
	retryAfter time.Duration

	mu     sync.Mutex
	sweeps map[string]context.CancelCauseFunc
	nextID int64

	sweepsTotal    atomic.Int64
	sweepsCanceled atomic.Int64
	jobsAccepted   atomic.Int64
	jobErrors      atomic.Int64
	rejected       atomic.Int64
}

// New returns a Server over cfg.Engine with cfg's admission bounds.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = engine.New()
	}
	if cfg.MaxConcurrentSweeps <= 0 {
		cfg.MaxConcurrentSweeps = DefaultMaxConcurrentSweeps()
	}
	if cfg.MaxSpecsPerSweep <= 0 {
		cfg.MaxSpecsPerSweep = DefaultMaxSpecsPerSweep
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		eng:        cfg.Engine,
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxConcurrentSweeps),
		maxSpecs:   cfg.MaxSpecsPerSweep,
		maxBody:    cfg.MaxBodyBytes,
		retryAfter: cfg.RetryAfter,
		sweeps:     make(map[string]context.CancelCauseFunc),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine returns the engine the server executes on.
func (s *Server) Engine() *engine.Engine { return s.eng }

// ActiveSweeps reports requests currently holding an admission slot.
func (s *Server) ActiveSweeps() int { return len(s.sem) }

// Stats snapshots the service-level counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		SweepsActive:    s.ActiveSweeps(),
		SweepsTotal:     s.sweepsTotal.Load(),
		SweepsCanceled:  s.sweepsCanceled.Load(),
		JobsAccepted:    s.jobsAccepted.Load(),
		JobErrors:       s.jobErrors.Load(),
		Rejected:        s.rejected.Load(),
		RunnersInFlight: engine.RunnersInFlight(),
	}
}

// admit takes an admission slot, or answers 503 + Retry-After and
// reports false. The release func must be called when the request
// finishes.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.rejected.Add(1)
		secs := int((s.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.writeError(w, http.StatusServiceUnavailable, "overloaded",
			fmt.Sprintf("at capacity (%d concurrent requests); retry after %s", cap(s.sem), s.retryAfter))
		return nil, false
	}
}

// writeError sends a typed JSON error body with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: ErrorInfo{Code: code, Message: msg}})
}

// decodeBodyError maps a spec-decoding failure to its HTTP shape:
// size-bound violations (the server's body cap or the decoder's
// document cap) are 413, everything else is a 400 with the decoder's
// message.
func (s *Server) decodeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || errors.Is(err, spec.ErrDocTooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body over limit (%d bytes)", s.maxBody))
		return
	}
	s.writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
}

// handleJob runs one spec synchronously: POST /v1/jobs.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	js, err := spec.ReadJob(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.decodeBodyError(w, err)
		return
	}
	job, err := engine.FromSpec(js)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_spec", err.Error())
		return
	}
	s.jobsAccepted.Add(1)

	res, err := s.eng.RunContext(r.Context(), job.Config)
	if err != nil {
		info := errInfoFor(err)
		status := http.StatusInternalServerError
		switch info.Code {
		case "timeout":
			status = http.StatusGatewayTimeout
		case "invalid_config":
			status = http.StatusBadRequest
		case "canceled":
			// The client is gone (or going); there is nobody to answer.
			s.jobErrors.Add(1)
			return
		}
		s.jobErrors.Add(1)
		s.writeError(w, status, info.Code, info.Message)
		return
	}

	resp := JobResponse{Result: res}
	// The key of the decoded config is spec.Fingerprint(js), without
	// decoding the spec again.
	if key, ok := spec.Key(job.Config); ok {
		resp.Fingerprint = fmt.Sprintf("%x", key)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleSweep streams a batch: POST /v1/sweeps.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	specs, err := spec.ReadJobs(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.decodeBodyError(w, err)
		return
	}
	if len(specs) == 0 {
		s.writeError(w, http.StatusBadRequest, "invalid_spec", "empty sweep: no job specs")
		return
	}
	if len(specs) > s.maxSpecs {
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("sweep of %d specs over the %d-spec limit; split it", len(specs), s.maxSpecs))
		return
	}
	// One Decoder per body: specs with the same policy section share
	// one build, and the engine clones the policy for each run.
	var dec spec.Decoder
	jobs := make([]engine.Job, len(specs))
	for i, sp := range specs {
		cfg, err := dec.Decode(sp)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid_spec", fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		jobs[i] = engine.Job{Config: cfg}
	}
	s.sweepsTotal.Add(1)
	s.jobsAccepted.Add(int64(len(jobs)))

	// The sweep runs on a cancellable child of the request context:
	// DELETE /v1/sweeps/{id} cancels it from another connection, and
	// the client closing this one cancels it implicitly. Either way
	// in-flight simulations unwind within one policy epoch and every
	// pooled platform is returned.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	id := s.registerSweep(cancel)
	defer s.unregisterSweep(id)

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Sweep-Id", id)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Publish the headers (and the sweep id) before the first
		// result is ready, so a client can cancel a sweep it has not
		// yet received anything from.
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	delivered, errCount := 0, 0
	results := s.eng.Stream(ctx, jobs)
	for jr := range results {
		line := StreamLine{Index: jr.Index}
		if jr.Err != nil {
			line.Error = errInfoFor(jr.Err)
			errCount++
		} else {
			res := jr.Result
			line.Result = &res
		}
		if err := enc.Encode(&line); err != nil {
			// The connection died mid-write. Cancel the sweep — Stream
			// closes its channel once in-flight jobs unwind — and stop
			// delivering.
			cancel(err)
			break
		}
		delivered++
		// Flush only when no further result is ready. A ready one is
		// taken at once and its line joins this one, so a written line
		// is never held while the handler waits on the engine.
		if flusher != nil && len(results) == 0 {
			flusher.Flush()
		}
	}
	s.jobErrors.Add(int64(errCount))

	done := DoneInfo{Jobs: delivered, Errors: errCount}
	if ctx.Err() != nil {
		done.Canceled = true
		s.sweepsCanceled.Add(1)
	}
	// Best-effort: if the connection is gone this write fails silently,
	// and the absent Done marker is itself the truncation signal.
	enc.Encode(StreamLine{Index: -1, Done: &done})
}

// handleCancel cancels a running sweep: DELETE /v1/sweeps/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	cancel, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no running sweep %q", id))
		return
	}
	cancel(errCanceledByDelete)
	w.WriteHeader(http.StatusNoContent)
}

// handleStats serves the machine-readable counter snapshot:
// GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(StatsResponse{Engine: s.eng.CacheStats(), Server: s.Stats()})
}

// registerSweep assigns a sweep id and records its cancel func for
// DELETE. Ids are monotonic per process; they identify, they do not
// authenticate.
func (s *Server) registerSweep(cancel context.CancelCauseFunc) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := "s" + strconv.FormatInt(s.nextID, 10)
	s.sweeps[id] = cancel
	return id
}

func (s *Server) unregisterSweep(id string) {
	s.mu.Lock()
	delete(s.sweeps, id)
	s.mu.Unlock()
}

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
// # Bodies seen before
//
// A server keeps a bounded LRU memo from the sha256 of a /v1/sweeps
// body's exact bytes to the cache keys (spec.Key) of its jobs in index
// order: 32 B a job, and no decoded spec, config or result. An entry is
// stored only after a sweep of that body delivered every job with a key
// and without an error or cancellation, so an engine built
// WithCache(false) never gets one.
//
// A body the memo holds is neither decoded nor keyed: its lines are
// written in index order from Engine.Lookup, which counts hits and
// promotes disk hits exactly as a batch does, and the sweep context is
// checked between jobs. A job whose result neither engine tier still
// holds (evicted, or dropped by ClearCache) is then decoded from the
// body and streamed under its own index, so a stale entry costs time,
// never a result; its disk lookup counts twice in DiskMisses. Any
// other body pays one sha256 more than decoding. The memo rests on one
// assumption: identical bytes decode to identical configs. That holds
// because the policy and workload registries only grow, at init, and
// a spec embeds its trace.
//
// The first post served by key (a body's second) renders its result
// lines and, when every job was found and written and the sweep was
// not canceled, attaches them to the entry: one exactly-sized buffer
// and the lines' end offsets. A later post writes each job's stored
// line instead of encoding its result, but only after Engine.Lookup
// found its key, so the hit counts stay exact and a line is never
// written for a result the engine has dropped. A body posted once
// keeps a keys-only entry. The memo holds at most
// engine.DefaultCacheSize keys (256 KiB) and 4 MiB of lines in all,
// dropping whole entries least recently used first; a body whose lines
// alone exceed 4 MiB keeps a keys-only entry.
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
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/soc"
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

	memo sweepMemo

	sweepsTotal    atomic.Int64
	sweepsByKey    atomic.Int64
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
		SweepsByKey:     s.sweepsByKey.Load(),
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

	// Stream delivers nothing for a job unwound by cancellation: the
	// client is gone (or going), and there is nobody to answer.
	jr, delivered := <-s.eng.Stream(r.Context(), []engine.Job{job})
	if !delivered {
		s.jobErrors.Add(1)
		return
	}
	if jr.Err != nil {
		s.jobErrors.Add(1)
		info := errInfoFor(jr.Err)
		status := http.StatusInternalServerError
		switch info.Code {
		case "timeout":
			status = http.StatusGatewayTimeout
		case "invalid_config":
			status = http.StatusBadRequest
		}
		s.writeError(w, status, info.Code, info.Message)
		return
	}

	// The engine's key of the decoded config is spec.Fingerprint(js).
	resp := JobResponse{Result: jr.Result}
	if jr.Keyed {
		resp.Fingerprint = hex.EncodeToString(jr.Key[:])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// bodies recycles the buffers handleSweep reads request bodies into;
// buffers over maxPooledBody are left to the garbage collector.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// handleSweep streams a batch: POST /v1/sweeps. A body whose digest
// the memo holds is served by its cache keys (serveByKey); any other
// is decoded, and stored in the memo once every job in it was
// delivered keyed and without error.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	// The decoder refuses a document over spec.MaxDocBytes, so one byte
	// more is all a body needs to be refused by it.
	if _, err := buf.ReadFrom(io.LimitReader(http.MaxBytesReader(w, r.Body, s.maxBody), spec.MaxDocBytes+1)); err != nil {
		s.decodeBodyError(w, err)
		return
	}
	body := buf.Bytes()
	sum := sha256.Sum256(body)
	seen, byKey := s.memo.get(sum)
	var jobs []engine.Job
	if byKey {
		s.sweepsByKey.Add(1)
		s.jobsAccepted.Add(int64(len(seen.keys)))
	} else {
		if jobs, ok = s.decodeSweep(w, body); !ok {
			return
		}
		s.jobsAccepted.Add(int64(len(jobs)))
	}
	s.sweepsTotal.Add(1)

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
	sw := &sweepWriter{w: w, enc: json.NewEncoder(w), cancel: cancel}
	sw.flusher, _ = w.(http.Flusher)
	if byKey {
		s.serveByKey(ctx, sw, &seen, body)
	} else if keys := s.stream(ctx, sw, jobs, nil); keys != nil && ctx.Err() == nil {
		s.memo.put(sum, keys)
	}
	s.jobErrors.Add(int64(sw.errs))

	done := DoneInfo{Jobs: sw.delivered, Errors: sw.errs}
	if ctx.Err() != nil {
		done.Canceled = true
		s.sweepsCanceled.Add(1)
	}
	// Best-effort: if the connection is gone this write fails silently,
	// and the absent Done marker is itself the truncation signal.
	sw.enc.Encode(StreamLine{Index: -1, Done: &done})
}

// decodeSweep decodes a sweep body into its jobs, or answers the
// request with the typed error and reports false.
func (s *Server) decodeSweep(w http.ResponseWriter, body []byte) ([]engine.Job, bool) {
	specs, err := spec.ParseJobs(body)
	if err != nil {
		s.decodeBodyError(w, err)
		return nil, false
	}
	if len(specs) == 0 {
		s.writeError(w, http.StatusBadRequest, "invalid_spec", "empty sweep: no job specs")
		return nil, false
	}
	if len(specs) > s.maxSpecs {
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("sweep of %d specs over the %d-spec limit; split it", len(specs), s.maxSpecs))
		return nil, false
	}
	// One Decoder per body: specs with the same policy section share
	// one build, and the engine clones the policy for each run.
	var dec spec.Decoder
	jobs := make([]engine.Job, len(specs))
	for i, sp := range specs {
		cfg, err := dec.Decode(sp)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid_spec", fmt.Sprintf("spec %d: %v", i, err))
			return nil, false
		}
		jobs[i] = engine.Job{Config: cfg}
	}
	return jobs, true
}

// serveByKey answers a sweep from its body's memo entry seen: each
// job's line is written in index order once Engine.Lookup has found its
// key, with no decoding and no keying. The line is seen's stored bytes
// when it has lines. Otherwise it is rendered, and when every job was
// found and written and the sweep was not canceled, the rendered lines
// are attached to the entry for the body's later posts. The jobs whose
// results neither tier still holds are decoded from body afterwards
// and streamed under their own indices, so a stale memo entry costs
// time, never a result. The sweep stops at the first job after ctx is
// done.
func (s *Server) serveByKey(ctx context.Context, sw *sweepWriter, seen *memoEntry, body []byte) {
	var (
		missing []int
		res     soc.Result
		line    = StreamLine{Result: &res}
		// rendered and ends collect this post's lines while seen has
		// none.
		rendered *bytes.Buffer
		enc      *json.Encoder
		ends     []int
	)
	if seen.lines == nil {
		rendered = new(bytes.Buffer)
		enc = json.NewEncoder(rendered)
		ends = make([]int, 0, len(seen.keys))
	}
	for i, key := range seen.keys {
		if ctx.Err() != nil {
			return
		}
		var ok bool
		if res, ok = s.eng.Lookup(key); !ok {
			missing = append(missing, i)
			continue
		}
		if seen.lines != nil {
			ok = sw.writeLine(seen.line(i))
		} else {
			line.Index = i
			start := rendered.Len()
			if err := enc.Encode(&line); err != nil {
				sw.cancel(err)
				return
			}
			ends = append(ends, rendered.Len())
			ok = sw.writeLine(rendered.Bytes()[start:])
		}
		if !ok {
			return
		}
	}
	if len(missing) == 0 {
		if rendered != nil && ctx.Err() == nil {
			s.memo.attach(seen.sum, rendered.Bytes(), ends)
		}
		return
	}
	// The body decoded before, and the policy and workload registries
	// only grow, so this decode fails only on a bug. Its error then
	// answers each job it leaves undecoded.
	specs, parseErr := spec.ParseJobs(body)
	var dec spec.Decoder
	jobs := make([]engine.Job, 0, len(missing))
	idx := make([]int, 0, len(missing))
	for _, i := range missing {
		cfg, err := soc.Config{}, parseErr
		if err == nil {
			cfg, err = dec.Decode(specs[i])
		}
		if err != nil {
			if !sw.write(&StreamLine{Index: i, Error: errInfoFor(err)}) {
				return
			}
			continue
		}
		jobs = append(jobs, engine.Job{Config: cfg})
		idx = append(idx, i)
	}
	s.stream(ctx, sw, jobs, idx)
}

// sweepWriter writes a sweep's NDJSON lines and counts them.
type sweepWriter struct {
	w       io.Writer
	enc     *json.Encoder // encodes to w
	flusher http.Flusher  // nil when the writer cannot flush
	cancel  context.CancelCauseFunc
	// delivered counts the result and error lines written, errs the
	// error lines among them.
	delivered, errs int
}

// write writes one result or error line. A failed write means the
// connection died: it cancels the sweep and reports false.
func (sw *sweepWriter) write(line *StreamLine) bool {
	if err := sw.enc.Encode(line); err != nil {
		sw.cancel(err)
		return false
	}
	sw.delivered++
	if line.Error != nil {
		sw.errs++
	}
	return true
}

// writeLine writes one result line rendered before. A failed write
// means the connection died: it cancels the sweep and reports false.
func (sw *sweepWriter) writeLine(line []byte) bool {
	if _, err := sw.w.Write(line); err != nil {
		sw.cancel(err)
		return false
	}
	sw.delivered++
	return true
}

// stream runs jobs on the engine and writes a line per delivered
// result to sw, under index idx[j] for job j when idx is non-nil. It
// returns the jobs' cache keys in job order, or nil unless every job
// was delivered keyed and without error.
func (s *Server) stream(ctx context.Context, sw *sweepWriter, jobs []engine.Job, idx []int) [][32]byte {
	if sw.flusher != nil {
		// Publish what is written, the headers and the sweep id at
		// least, before waiting on the engine, so a client can cancel a
		// sweep it has not yet received a result from.
		sw.flusher.Flush()
	}
	keys := make([][32]byte, len(jobs))
	keyed := 0
	var (
		res  soc.Result
		line StreamLine
	)
	results := s.eng.Stream(ctx, jobs)
	for jr := range results {
		line = StreamLine{Index: jr.Index}
		if idx != nil {
			line.Index = idx[jr.Index]
		}
		if jr.Err != nil {
			line.Error = errInfoFor(jr.Err)
		} else {
			res = jr.Result
			line.Result = &res
			if jr.Keyed {
				keys[jr.Index] = jr.Key
				keyed++
			}
		}
		if !sw.write(&line) {
			// Stream closes its channel once in-flight jobs unwind.
			break
		}
		// Flush only when no further result is ready. A ready one is
		// taken at once and its line joins this one, so a written line
		// is never held while the handler waits on the engine.
		if sw.flusher != nil && len(results) == 0 {
			sw.flusher.Flush()
		}
	}
	if keyed < len(jobs) {
		return nil
	}
	return keys
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

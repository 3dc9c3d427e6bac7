package sweepd

import (
	"context"
	"errors"

	"sysscale/internal/engine"
	"sysscale/internal/soc"
)

// This file is the service's wire vocabulary: the JSON bodies the four
// endpoints exchange. The shapes are deliberately small and stable —
// the load generator, the CLI clients, and the CI smoke all parse them.

// StreamLine is one NDJSON line of a sweep response. Exactly one of
// Result, Error, or Done is set:
//
//   - a result line carries the job's input index and its Result;
//   - an error line carries the index and the job's in-band failure
//     (the sweep keeps streaming — jobs are independent);
//   - the final line of every stream is a Done marker (Index == -1).
//     A stream that ends without one was truncated by a transport
//     failure, and its results, though individually valid, are an
//     incomplete set.
//
// Lines arrive in completion order, not input order; Index is the
// job's position in the submitted spec array. A sweep served from the
// memo of bodies seen before (see the package doc) completes in index
// order.
type StreamLine struct {
	Index  int         `json:"index"`
	Result *soc.Result `json:"result,omitempty"`
	Error  *ErrorInfo  `json:"error,omitempty"`
	Done   *DoneInfo   `json:"done,omitempty"`
}

// ErrorInfo is a typed error body: a stable machine-readable code plus
// a human-readable message. It appears both in-band (StreamLine.Error)
// and as the body of non-200 responses ({"error": {...}}).
type ErrorInfo struct {
	// Code is one of: "invalid_spec", "invalid_config", "timeout",
	// "panic", "canceled", "too_large", "overloaded", "not_found",
	// "error".
	Code    string `json:"code"`
	Message string `json:"message"`
}

// DoneInfo is the stream's completion marker. Jobs counts the result
// and error lines delivered before it; Errors counts just the error
// lines. Canceled reports that the sweep was cut short — by DELETE, by
// the client closing the connection, or by server shutdown — so
// delivered results are a prefix, not the full sweep.
type DoneInfo struct {
	Jobs     int  `json:"jobs"`
	Errors   int  `json:"errors"`
	Canceled bool `json:"canceled,omitempty"`
}

// JobResponse is the body of a successful POST /v1/jobs: the result
// plus the job's canonical fingerprint (hex; its cache identity across
// the fleet), the key the engine looked the job up by. Fingerprint is
// empty when the engine computed no key: the job's policy is not
// registered, or the engine runs WithCache(false).
type JobResponse struct {
	Fingerprint string     `json:"fingerprint,omitempty"`
	Result      soc.Result `json:"result"`
}

// StatsResponse is the body of GET /v1/stats: the engine's cache and
// robustness counters plus the server's own admission telemetry.
type StatsResponse struct {
	Engine engine.Stats `json:"engine"`
	Server ServerStats  `json:"server"`
}

// ServerStats is the service-level counter snapshot.
type ServerStats struct {
	// SweepsActive is the number of sweep requests currently holding an
	// admission slot (streaming or about to); SweepsTotal counts every
	// admitted sweep since start, and SweepsCanceled those cut short.
	SweepsActive   int   `json:"sweeps_active"`
	SweepsTotal    int64 `json:"sweeps_total"`
	SweepsCanceled int64 `json:"sweeps_canceled"`
	// SweepsByKey counts the admitted sweeps served by their cache
	// keys, from the memo of bodies seen before (see the package doc).
	SweepsByKey int64 `json:"sweeps_by_key"`
	// JobsAccepted counts specs admitted across all sweeps and single
	// jobs; JobErrors counts in-band per-job failures delivered.
	JobsAccepted int64 `json:"jobs_accepted"`
	JobErrors    int64 `json:"job_errors"`
	// Rejected counts requests refused at admission (HTTP 503).
	Rejected int64 `json:"rejected"`
	// RunnersInFlight is the engine's leak gauge: pooled platforms
	// currently executing. Zero whenever the service is idle.
	RunnersInFlight int64 `json:"runners_in_flight"`
}

// errorResponse is the JSON body of every non-200 response.
type errorResponse struct {
	Error ErrorInfo `json:"error"`
}

// errInfoFor classifies err into the wire taxonomy. The order matters:
// a job's own timeout (ErrJobTimeout) is deliberately distinct from
// cancellation collateral, mirroring the engine's error classes.
func errInfoFor(err error) *ErrorInfo {
	code := "error"
	var pe *engine.PanicError
	switch {
	case errors.Is(err, engine.ErrJobTimeout):
		code = "timeout"
	case errors.Is(err, soc.ErrInvalidConfig):
		code = "invalid_config"
	case errors.As(err, &pe):
		code = "panic"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = "canceled"
	}
	return &ErrorInfo{Code: code, Message: err.Error()}
}

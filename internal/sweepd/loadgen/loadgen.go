// Package loadgen drives concurrent load at a sweepd server and
// measures what comes back: per-sweep latency quantiles, error rates,
// throttling, and (optionally) every streamed line for verification.
// It is both the engine behind cmd/sweepload — the harness that finds
// the service's knee — and the library the HTTP-layer tests use to
// prove the acceptance numbers (hundreds of concurrent clients, zero
// errors, bit-identical results).
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sysscale/internal/spec"
	"sysscale/internal/sweepd"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Specs is the job corpus. It is partitioned into chunks of
	// JobsPerSweep specs (the last chunk may be short); request i
	// submits chunk i % NumChunks, so the request→spec mapping is
	// deterministic and a caller can verify responses offline.
	Specs []spec.Job
	// Clients is the number of concurrent clients (default 1).
	Clients int
	// Sweeps is the total number of sweep requests to issue (default
	// max(Clients, NumChunks) — every chunk at least once).
	Sweeps int
	// JobsPerSweep is the chunk size; <= 0 submits the whole corpus in
	// every sweep.
	JobsPerSweep int
	// Rate is the aggregate request launch rate in sweeps/second; 0
	// launches as fast as the clients turn around.
	Rate float64
	// Timeout bounds one request (connect to last byte); 0 means 120s.
	Timeout time.Duration
	// MaxRetries bounds per-request retries on 503 (honoring
	// Retry-After); 0 means 8. Retries count as Throttled, not errors.
	MaxRetries int
	// Collect retains every parsed line per request in
	// Report.Outcomes — for verification harnesses, not load runs.
	Collect bool
	// Client overrides the HTTP client (tests); nil builds one sized
	// for Clients concurrent connections.
	Client *http.Client
}

// NumChunks reports how many distinct sweep bodies the corpus
// partitions into under JobsPerSweep.
func (c Config) NumChunks() int {
	if c.JobsPerSweep <= 0 || c.JobsPerSweep >= len(c.Specs) {
		return 1
	}
	return (len(c.Specs) + c.JobsPerSweep - 1) / c.JobsPerSweep
}

// Chunk returns the corpus range [start, end) submitted by request i.
func (c Config) Chunk(i int) (start, end int) {
	n := c.NumChunks()
	if n == 1 {
		return 0, len(c.Specs)
	}
	start = (i % n) * c.JobsPerSweep
	end = start + c.JobsPerSweep
	if end > len(c.Specs) {
		end = len(c.Specs)
	}
	return start, end
}

// Line is one parsed NDJSON line, with the raw bytes preserved so
// byte-identity across runs can be asserted without re-encoding.
type Line struct {
	Index  int               `json:"index"`
	Result json.RawMessage   `json:"result,omitempty"`
	Error  *sweepd.ErrorInfo `json:"error,omitempty"`
	Done   *sweepd.DoneInfo  `json:"done,omitempty"`
	Raw    []byte            `json:"-"`
}

// Quantiles summarizes per-sweep latencies in milliseconds.
type Quantiles struct {
	Mean, P50, P90, P99, Max float64
}

// Report is a completed load run.
type Report struct {
	// Sweeps is requests completed (including failed ones); Jobs is
	// result+error lines received.
	Sweeps int
	Jobs   int
	// JobErrors counts in-band per-job error lines; HTTPErrors counts
	// requests that failed at the transport/status level (after
	// retries); Throttled counts 503 retries taken; Incomplete counts
	// streams that ended without a Done marker; Canceled counts Done
	// markers with the canceled flag.
	JobErrors  int
	HTTPErrors int
	Throttled  int
	Incomplete int
	Canceled   int

	Elapsed time.Duration
	Latency Quantiles
	// Outcomes[i] holds request i's lines, in arrival order (Collect).
	Outcomes [][]Line
}

// String renders the one-look summary cmd/sweepload prints.
func (r Report) String() string {
	jobsPerSec := float64(r.Jobs) / r.Elapsed.Seconds()
	return fmt.Sprintf(
		"sweeps %d, jobs %d (%.0f jobs/s), job errors %d, http errors %d, throttled %d, incomplete %d, canceled %d\n"+
			"latency ms: p50 %.1f, p90 %.1f, p99 %.1f, max %.1f (mean %.1f)",
		r.Sweeps, r.Jobs, jobsPerSec, r.JobErrors, r.HTTPErrors, r.Throttled, r.Incomplete, r.Canceled,
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max, r.Latency.Mean)
}

// Failures reports whether the run saw anything other than clean,
// complete sweeps (cmd/sweepload's exit status).
func (r Report) Failures() int {
	return r.JobErrors + r.HTTPErrors + r.Incomplete + r.Canceled
}

// Run executes the load run: Clients workers issue Sweeps requests
// against BaseURL, parse every NDJSON stream, and aggregate. It
// returns an error only for setup problems (empty corpus, bad
// config); request-level failures are counted in the Report.
// Cancelling ctx stops issuing new requests and fails in-flight ones.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if len(cfg.Specs) == 0 {
		return Report{}, fmt.Errorf("loadgen: empty spec corpus")
	}
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: no base URL")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Sweeps <= 0 {
		cfg.Sweeps = max(cfg.Clients, cfg.NumChunks())
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = cfg.Clients
		tr.MaxIdleConnsPerHost = cfg.Clients
		client = &http.Client{Transport: tr}
	}

	// Pre-marshal every distinct chunk once; clients share the bytes.
	bodies := make([][]byte, cfg.NumChunks())
	for ci := range bodies {
		start, end := cfg.Chunk(ci)
		b, err := json.Marshal(cfg.Specs[start:end])
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: marshal chunk %d: %w", ci, err)
		}
		bodies[ci] = b
	}

	// Rate pacing: a shared token stream at cfg.Rate. Unlimited when
	// Rate <= 0 (tokens is nil and the select below never blocks).
	var tokens <-chan time.Time
	if cfg.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer t.Stop()
		tokens = t.C
	}

	var (
		rep       Report
		latencies = make([]float64, cfg.Sweeps)
		issued    = make([]bool, cfg.Sweeps)
		outcomes  [][]Line
		jobs      atomic.Int64
		jobErrs   atomic.Int64
		httpErrs  atomic.Int64
		throttled atomic.Int64
		incompl   atomic.Int64
		canceled  atomic.Int64
	)
	if cfg.Collect {
		outcomes = make([][]Line, cfg.Sweeps)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if tokens != nil {
					select {
					case <-tokens:
					case <-ctx.Done():
						return
					}
				}
				t0 := time.Now()
				lines, retries, err := oneSweep(ctx, client, cfg, cfg.BaseURL+"/v1/sweeps", bodies[i%len(bodies)])
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				issued[i] = true
				throttled.Add(int64(retries))
				if cfg.Collect {
					outcomes[i] = lines
				}
				if err != nil {
					httpErrs.Add(1)
					continue
				}
				sawDone := false
				for _, ln := range lines {
					switch {
					case ln.Done != nil:
						sawDone = true
						if ln.Done.Canceled {
							canceled.Add(1)
						}
					case ln.Error != nil:
						jobs.Add(1)
						jobErrs.Add(1)
					default:
						jobs.Add(1)
					}
				}
				if !sawDone {
					incompl.Add(1)
				}
			}
		}()
	}
feed:
	for i := 0; i < cfg.Sweeps; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	rep.Elapsed = time.Since(start)

	var issuedLat []float64
	for i, ok := range issued {
		if ok {
			rep.Sweeps++
			issuedLat = append(issuedLat, latencies[i])
		}
	}
	rep.Jobs = int(jobs.Load())
	rep.JobErrors = int(jobErrs.Load())
	rep.HTTPErrors = int(httpErrs.Load())
	rep.Throttled = int(throttled.Load())
	rep.Incomplete = int(incompl.Load())
	rep.Canceled = int(canceled.Load())
	rep.Latency = quantiles(issuedLat)
	rep.Outcomes = outcomes
	return rep, nil
}

// oneSweep issues one POST /v1/sweeps, retrying on 503 per Retry-After,
// and parses the NDJSON stream to its end. retries reports how many
// 503s were absorbed.
func oneSweep(ctx context.Context, client *http.Client, cfg Config, url string, body []byte) (lines []Line, retries int, err error) {
	for attempt := 0; ; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
		lines, err = doSweep(rctx, client, url, body)
		cancel()
		if err == nil {
			return lines, retries, nil
		}
		var ra *retryAfterError
		if !errors.As(err, &ra) || attempt >= cfg.MaxRetries || ctx.Err() != nil {
			return lines, retries, err
		}
		retries++
		select {
		case <-time.After(ra.delay):
		case <-ctx.Done():
			return nil, retries, ctx.Err()
		}
	}
}

// retryAfterError marks a 503 worth retrying after the server's hint.
type retryAfterError struct{ delay time.Duration }

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("server overloaded (503), retry after %s", e.delay)
}

// doSweep performs one request attempt and parses the whole stream.
func doSweep(ctx context.Context, client *http.Client, url string, body []byte) ([]Line, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		delay := time.Second
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
		}
		return nil, &retryAfterError{delay: delay}
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}

	var lines []Line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln Line
		if err := json.Unmarshal(raw, &ln); err != nil {
			return lines, fmt.Errorf("bad stream line: %w", err)
		}
		ln.Raw = append([]byte(nil), raw...)
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		return lines, err
	}
	return lines, nil
}

// quantiles computes the latency summary (ms) from raw samples. Each
// quantile is the nearest-rank one, the smallest sample with at least
// that share of the samples at or below it, so P99 of fewer than 100
// samples is the maximum.
func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	// at is the nearest-rank pct-th percentile: rank ceil(pct·n/100),
	// in integer arithmetic so no rounding can move it.
	at := func(pct int) float64 {
		return s[(pct*len(s)+99)/100-1]
	}
	return Quantiles{
		Mean: sum / float64(len(s)),
		P50:  at(50),
		P90:  at(90),
		P99:  at(99),
		Max:  s[len(s)-1],
	}
}

// HTTP-layer tests for the sweep service: the acceptance suite for the
// streaming contract (bit-identity with in-process runs), cancellation
// through the API (prompt termination, no leaked runners, reproducible
// reruns), and admission control (typed 503/413/400/404, never hangs).
// Run with -race; the whole point of an HTTP layer over the engine is
// that concurrent clients are safe.
package sweepd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/sweepd"
	"sysscale/internal/sweepd/loadgen"
	"sysscale/internal/workload"
)

// slowPolicy wraps the baseline governor with a wall-clock sleep per
// decision epoch, making job duration controllable from a spec — the
// lever the cancellation and overload tests need. It registers as the
// "test-slow" family so it round-trips through the wire format like
// any real policy.
type slowPolicy struct {
	inner   soc.Policy
	DelayMS int64
}

type slowParams struct {
	DelayMS int64 `json:"delay_ms"`
}

func (p *slowPolicy) Name() string { return "test-slow" }

func (p *slowPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	time.Sleep(time.Duration(p.DelayMS) * time.Millisecond)
	return p.inner.Decide(ctx)
}

func (p *slowPolicy) Reset() { p.inner.Reset() }

func (p *slowPolicy) Clone() soc.Policy {
	return &slowPolicy{inner: p.inner.Clone(), DelayMS: p.DelayMS}
}

func init() {
	err := policy.Register("test-slow", policy.Codec{
		Type: reflect.TypeOf(&slowPolicy{}),
		Decode: func(params []byte) (soc.Policy, error) {
			p := slowParams{DelayMS: 1}
			if len(params) > 0 {
				dec := json.NewDecoder(bytes.NewReader(params))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&p); err != nil {
					return nil, err
				}
			}
			return &slowPolicy{inner: policy.NewBaseline(), DelayMS: p.DelayMS}, nil
		},
		AppendParams: func(b []byte, p soc.Policy) ([]byte, bool) {
			sp, ok := p.(*slowPolicy)
			if !ok {
				return b, false
			}
			b = append(b, `{"delay_ms":`...)
			b = strconv.AppendInt(b, sp.DelayMS, 10)
			return append(b, '}'), true
		},
	})
	if err != nil {
		panic(err)
	}
}

// fastSpecs builds n distinct quick jobs (50 simulated ms, mixed
// policies and workloads).
func fastSpecs(t *testing.T, n int) []spec.Job {
	t.Helper()
	suite := workload.SPECSuite()
	specs := make([]spec.Job, 0, n)
	for i := 0; i < n; i++ {
		cfg := soc.DefaultConfig()
		cfg.Workload = suite[i%len(suite)]
		if i%2 == 0 {
			cfg.Policy = policy.NewSysScaleDefault()
		} else {
			cfg.Policy = policy.NewBaseline()
		}
		cfg.Duration = 50*sim.Millisecond + sim.Time(i)*cfg.SampleInterval // distinct fingerprint per job
		js, err := spec.Encode(cfg)
		if err != nil {
			t.Fatalf("encode spec %d: %v", i, err)
		}
		specs = append(specs, js)
	}
	return specs
}

// slowSpecs builds n distinct jobs whose wall time is ~10×delayMS
// (300 simulated ms at the 30ms epoch = 10 sleeping decisions each).
func slowSpecs(t *testing.T, n int, delayMS int64) []spec.Job {
	t.Helper()
	suite := workload.SPECSuite()
	specs := make([]spec.Job, 0, n)
	for i := 0; i < n; i++ {
		cfg := soc.DefaultConfig()
		cfg.Workload = suite[i%len(suite)]
		cfg.Policy = &slowPolicy{inner: policy.NewBaseline(), DelayMS: delayMS}
		cfg.Duration = 300*sim.Millisecond + sim.Time(i)*cfg.SampleInterval // distinct fingerprint per job
		js, err := spec.Encode(cfg)
		if err != nil {
			t.Fatalf("encode slow spec %d: %v", i, err)
		}
		specs = append(specs, js)
	}
	return specs
}

// freshResults runs the specs on a brand-new engine in-process — the
// reference the wire results must be bit-identical to.
func freshResults(t *testing.T, specs []spec.Job) []soc.Result {
	t.Helper()
	jobs := make([]engine.Job, len(specs))
	for i, js := range specs {
		j, err := engine.FromSpec(js)
		if err != nil {
			t.Fatalf("FromSpec %d: %v", i, err)
		}
		jobs[i] = j
	}
	res, err := engine.New().RunBatchContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("reference RunBatchContext: %v", err)
	}
	return res
}

func newServer(t *testing.T, cfg sweepd.Config) (*sweepd.Server, *httptest.Server) {
	t.Helper()
	s := sweepd.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, url string, specs []spec.Job) *http.Response {
	t.Helper()
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream parses a whole NDJSON response.
func readStream(t *testing.T, body io.Reader) []loadgen.Line {
	t.Helper()
	var lines []loadgen.Line
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln loadgen.Line
		if err := json.Unmarshal(raw, &ln); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		ln.Raw = append([]byte(nil), raw...)
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

// waitIdle polls until no pooled runner is executing — the no-leak
// postcondition every cancellation path must restore.
func waitIdle(t *testing.T, whom string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for engine.RunnersInFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d runners still in flight", whom, engine.RunnersInFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// errCode decodes a typed error response body and checks the status.
func errCode(t *testing.T, resp *http.Response, wantStatus int) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, b)
	}
	var er struct {
		Error sweepd.ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body: %v", err)
	}
	return er.Error.Code
}

// TestJobEndpoint: POST /v1/jobs returns the same result the engine
// computes in-process, plus spec.Fingerprint of the request body, for
// a generated spec, the checked-in example specs and their v1 forms.
func TestJobEndpoint(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	generated, err := json.Marshal(fastSpecs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{generated}
	examples, _ := filepath.Glob("../../examples/specs/*.json")
	v1, _ := filepath.Glob("../spec/testdata/v1/*.json")
	if len(examples) < 2 || len(v1) != len(examples) {
		t.Fatalf("found %d example specs and %d v1 fixtures", len(examples), len(v1))
	}
	for _, p := range append(examples, v1...) {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}

	for i, body := range bodies {
		js, err := spec.ReadJob(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want := freshResults(t, []spec.Job{js})[0]
		fp, err := spec.Fingerprint(js)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr sweepd.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("body %d: status %d, decode error %v", i, resp.StatusCode, err)
		}
		if !reflect.DeepEqual(jr.Result, want) {
			t.Errorf("body %d: wire result differs from in-process run", i)
		}
		if jr.Fingerprint != fmt.Sprintf("%x", fp) {
			t.Errorf("body %d: fingerprint %q, want %x", i, jr.Fingerprint, fp)
		}
	}
}

// TestSweepStreamBitIdentical: a sweep's NDJSON results, reordered by
// input index, are byte-for-byte the JSON of an in-process
// RunBatchContext on a fresh engine.
func TestSweepStreamBitIdentical(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	specs := fastSpecs(t, 6)
	want := freshResults(t, specs)

	resp := postSweep(t, ts.URL, specs)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if resp.Header.Get("Sweep-Id") == "" {
		t.Error("no Sweep-Id header")
	}
	lines := readStream(t, resp.Body)

	last := lines[len(lines)-1]
	if last.Done == nil || last.Index != -1 {
		t.Fatalf("stream did not end with a Done marker: %+v", last)
	}
	if last.Done.Jobs != len(specs) || last.Done.Errors != 0 || last.Done.Canceled {
		t.Fatalf("done marker %+v, want %d clean jobs", *last.Done, len(specs))
	}

	byIndex := make([]json.RawMessage, len(specs))
	for _, ln := range lines[:len(lines)-1] {
		if ln.Error != nil {
			t.Fatalf("in-band error for job %d: %+v", ln.Index, *ln.Error)
		}
		if ln.Index < 0 || ln.Index >= len(specs) || byIndex[ln.Index] != nil {
			t.Fatalf("bad or duplicate index %d", ln.Index)
		}
		byIndex[ln.Index] = ln.Result
	}
	for i, got := range byIndex {
		wantJSON, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("job %d: streamed result bytes differ from in-process run", i)
		}
	}
}

// TestSweepInBandJobError: a job that fails (here: over its wall-time
// budget) becomes a typed in-band error line; the sweep itself keeps
// streaming and completes with HTTP 200.
func TestSweepInBandJobError(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2), engine.WithJobTimeout(40*time.Millisecond))
	_, ts := newServer(t, sweepd.Config{Engine: eng})

	// One job that cannot finish inside the budget, plus fast ones.
	specs := append(slowSpecs(t, 1, 50), fastSpecs(t, 2)...)
	resp := postSweep(t, ts.URL, specs)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := readStream(t, resp.Body)
	last := lines[len(lines)-1]
	if last.Done == nil {
		t.Fatal("no Done marker")
	}
	if last.Done.Jobs != len(specs) || last.Done.Errors != 1 || last.Done.Canceled {
		t.Fatalf("done marker %+v, want %d jobs with 1 error", *last.Done, len(specs))
	}
	var sawTimeout bool
	for _, ln := range lines[:len(lines)-1] {
		if ln.Error != nil {
			if ln.Index != 0 || ln.Error.Code != "timeout" {
				t.Fatalf("error line %+v, want index 0 code timeout", ln)
			}
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no in-band timeout error line")
	}
	waitIdle(t, "after in-band error sweep")
}

// TestSweepCancelMidStream is satellite 4: DELETE /v1/sweeps/{id}
// mid-stream terminates the response promptly with a canceled Done
// marker, leaks no runners, and a subsequent identical sweep is
// bit-identical to a fresh in-process run.
func TestSweepCancelMidStream(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2))
	srv, ts := newServer(t, sweepd.Config{Engine: eng})
	specs := slowSpecs(t, 6, 10)

	resp := postSweep(t, ts.URL, specs)
	defer resp.Body.Close()
	id := resp.Header.Get("Sweep-Id")
	if id == "" {
		t.Fatal("no Sweep-Id header")
	}

	// Read one result, then cancel from a second connection.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d, want 204", dresp.StatusCode)
	}

	// The stream must terminate promptly — in-flight jobs unwind within
	// one policy epoch (~10ms here), not after the full sweep.
	type tail struct {
		lines []loadgen.Line
		err   error
	}
	tc := make(chan tail, 1)
	go func() {
		var tl tail
		defer func() { tc <- tl }()
		sc := bufio.NewScanner(br)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		for sc.Scan() {
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			var ln loadgen.Line
			if err := json.Unmarshal(raw, &ln); err != nil {
				tl.err = err
				return
			}
			tl.lines = append(tl.lines, ln)
		}
		tl.err = sc.Err()
	}()
	var tl tail
	select {
	case tl = <-tc:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled stream did not terminate")
	}
	if tl.err != nil {
		t.Fatalf("canceled stream: %v", tl.err)
	}
	if len(tl.lines) == 0 || tl.lines[len(tl.lines)-1].Done == nil {
		t.Fatal("canceled stream ended without a Done marker")
	}
	done := tl.lines[len(tl.lines)-1].Done
	if !done.Canceled {
		t.Fatalf("done marker %+v, want canceled", *done)
	}
	if done.Jobs >= len(specs) {
		t.Fatalf("sweep delivered all %d jobs despite cancellation", done.Jobs)
	}
	waitIdle(t, "after DELETE")
	if st := srv.Stats(); st.SweepsCanceled != 1 {
		t.Errorf("SweepsCanceled = %d, want 1", st.SweepsCanceled)
	}

	// The id is gone once the sweep unwinds.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		d2, err := http.DefaultClient.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		d2.Body.Close()
		if d2.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("DELETE of finished sweep still %d, want 404", d2.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A rerun of the same sweep — half-served from the cache the
	// canceled pass warmed, half recomputed — is bit-identical to a
	// fresh in-process run.
	want := freshResults(t, specs)
	resp2 := postSweep(t, ts.URL, specs)
	defer resp2.Body.Close()
	lines := readStream(t, resp2.Body)
	last := lines[len(lines)-1]
	if last.Done == nil || last.Done.Jobs != len(specs) || last.Done.Errors != 0 || last.Done.Canceled {
		t.Fatalf("rerun done marker %+v", last.Done)
	}
	for _, ln := range lines[:len(lines)-1] {
		wantJSON, err := json.Marshal(want[ln.Index])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ln.Result, wantJSON) {
			t.Errorf("rerun job %d not bit-identical to fresh run", ln.Index)
		}
	}
}

// TestSweepClientDisconnect: a client that walks away mid-stream
// cancels the sweep implicitly; the engine unwinds and no runner leaks.
func TestSweepClientDisconnect(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2))
	srv, ts := newServer(t, sweepd.Config{Engine: eng})
	specs := slowSpecs(t, 6, 10)

	resp := postSweep(t, ts.URL, specs)
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	resp.Body.Close() // hang up mid-stream

	waitIdle(t, "after client disconnect")
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSweeps() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sweeps still hold admission slots", srv.ActiveSweeps())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.SweepsCanceled != 1 {
		t.Errorf("SweepsCanceled = %d, want 1", st.SweepsCanceled)
	}
}

// TestAdmissionControl: every overload and malformed-input path is a
// typed JSON error with the right status — never a hang.
func TestAdmissionControl(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2))
	srv, ts := newServer(t, sweepd.Config{
		Engine:              eng,
		MaxConcurrentSweeps: 1,
		MaxSpecsPerSweep:    2,
	})

	t.Run("overload 503", func(t *testing.T) {
		slow := slowSpecs(t, 2, 10)
		resp := postSweep(t, ts.URL, slow) // occupy the only slot
		defer resp.Body.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.ActiveSweeps() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("sweep never took the admission slot")
			}
			time.Sleep(time.Millisecond)
		}

		r2 := postSweep(t, ts.URL, fastSpecs(t, 1))
		if got := r2.Header.Get("Retry-After"); got == "" {
			t.Error("503 without Retry-After")
		}
		if code := errCode(t, r2, http.StatusServiceUnavailable); code != "overloaded" {
			t.Errorf("code %q, want overloaded", code)
		}
		if st := srv.Stats(); st.Rejected == 0 {
			t.Error("rejection not counted")
		}
		io.Copy(io.Discard, resp.Body) // drain the slot-holder
		waitIdle(t, "after overload test")
	})

	t.Run("cancel unknown 404", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/nope", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if code := errCode(t, resp, http.StatusNotFound); code != "not_found" {
			t.Errorf("code %q, want not_found", code)
		}
	})

	t.Run("garbage body 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if code := errCode(t, resp, http.StatusBadRequest); code != "invalid_spec" {
			t.Errorf("code %q, want invalid_spec", code)
		}
	})

	t.Run("empty sweep 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		if code := errCode(t, resp, http.StatusBadRequest); code != "invalid_spec" {
			t.Errorf("code %q, want invalid_spec", code)
		}
	})

	t.Run("too many specs 413", func(t *testing.T) {
		resp := postSweep(t, ts.URL, fastSpecs(t, 3)) // cap is 2
		if code := errCode(t, resp, http.StatusRequestEntityTooLarge); code != "too_large" {
			t.Errorf("code %q, want too_large", code)
		}
	})

	t.Run("oversized body 413", func(t *testing.T) {
		_, small := newServer(t, sweepd.Config{MaxBodyBytes: 64})
		resp := postSweep(t, small.URL, fastSpecs(t, 1))
		if code := errCode(t, resp, http.StatusRequestEntityTooLarge); code != "too_large" {
			t.Errorf("code %q, want too_large", code)
		}
	})
}

// TestOversizedMalformedBody413: a body over the cap is 413 whatever
// its content — the decoder takes the whole body before judging it,
// so a syntax error early in an oversized body does not make it a 400.
func TestOversizedMalformedBody413(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{MaxBodyBytes: 64})
	job := `{"version":x` + strings.Repeat(" ", 128)
	for path, body := range map[string]string{"/v1/jobs": job, "/v1/sweeps": "[" + job} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if code := errCode(t, resp, http.StatusRequestEntityTooLarge); code != "too_large" {
			t.Errorf("%s: code %q, want too_large", path, code)
		}
	}
}

// TestSubTickDurationIs400: a job shorter than one sample interval is
// a configuration error, so /v1/jobs answers 400 invalid_spec instead
// of failing the run mid-flight with a 500.
func TestSubTickDurationIs400(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	body, err := os.ReadFile("../../examples/specs/sysscale-470.lbm.json")
	if err != nil {
		t.Fatal(err)
	}
	short := bytes.Replace(body, []byte(`"duration_ns": 2000000000`), []byte(`"duration_ns": 500000`), 1)
	if bytes.Equal(short, body) {
		t.Fatal("example spec has no 2 s duration to shorten")
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if code := errCode(t, resp, http.StatusBadRequest); code != "invalid_spec" {
		t.Errorf("code %q, want invalid_spec", code)
	}
}

// TestStatsEndpoint: /v1/stats is valid JSON with both counter blocks,
// and reflects work done.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	resp := postSweep(t, ts.URL, fastSpecs(t, 2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st sweepd.StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Server.SweepsTotal != 1 || st.Server.JobsAccepted != 2 {
		t.Errorf("server stats %+v, want 1 sweep / 2 jobs", st.Server)
	}
	if st.Engine.Misses == 0 {
		t.Errorf("engine stats %+v, want nonzero misses", st.Engine)
	}
}

// TestManyConcurrentClients is the acceptance load test: 256 concurrent
// clients, 512 single-job sweeps against a deliberately small admission
// bound, zero non-injected failures (503s are absorbed by retry), and
// every streamed result bit-identical to the in-process reference.
func TestManyConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	eng := engine.New(engine.WithParallelism(4))
	_, ts := newServer(t, sweepd.Config{
		Engine:              eng,
		MaxConcurrentSweeps: 64,
		RetryAfter:          time.Second,
	})
	specs := fastSpecs(t, 8)
	want := freshResults(t, specs)
	wantJSON := make([][]byte, len(want))
	for i, res := range want {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON[i] = b
	}

	cfg := loadgen.Config{
		BaseURL:      ts.URL,
		Specs:        specs,
		Clients:      256,
		Sweeps:       512,
		JobsPerSweep: 1,
		MaxRetries:   32,
		Collect:      true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("load: %s", rep)
	if rep.Failures() != 0 {
		t.Fatalf("%d failures (job %d, http %d, incomplete %d, canceled %d)",
			rep.Failures(), rep.JobErrors, rep.HTTPErrors, rep.Incomplete, rep.Canceled)
	}
	if rep.Sweeps != cfg.Sweeps || rep.Jobs != cfg.Sweeps {
		t.Fatalf("sweeps %d jobs %d, want %d each", rep.Sweeps, rep.Jobs, cfg.Sweeps)
	}
	for i, lines := range rep.Outcomes {
		start, end := cfg.Chunk(i)
		if end-start != 1 {
			t.Fatalf("chunking broken: request %d spans [%d,%d)", i, start, end)
		}
		for _, ln := range lines {
			if ln.Done != nil {
				continue
			}
			if ln.Index != 0 {
				t.Fatalf("request %d: job index %d in a 1-spec sweep", i, ln.Index)
			}
			if !bytes.Equal(ln.Result, wantJSON[start]) {
				t.Fatalf("request %d (spec %d): result not bit-identical to in-process run", i, start)
			}
		}
	}
	waitIdle(t, "after load test")
}

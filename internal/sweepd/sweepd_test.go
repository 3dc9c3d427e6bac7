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
	"sync"
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
	"sysscale/internal/workload/gen"
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
// a generated spec, the checked-in example specs and their v1 and v2
// forms.
func TestJobEndpoint(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	generated, err := json.Marshal(fastSpecs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{generated}
	examples, _ := filepath.Glob("../../examples/specs/*.json")
	old, _ := filepath.Glob("../spec/testdata/v[12]/*.json")
	if len(examples) < 2 || len(old) != 2*len(examples) {
		t.Fatalf("found %d example specs and %d v1 and v2 fixtures", len(examples), len(old))
	}
	for _, p := range append(examples, old...) {
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

// sweepOnce posts body to /v1/sweeps and returns each job's result
// bytes by index, and whether the lines arrived in index order. It
// fails unless the answer is 200 and the stream ends in a Done marker
// for n jobs with no error or cancellation. It is safe to call from
// several goroutines.
func sweepOnce(url string, body []byte, n int) (res []json.RawMessage, inOrder bool, err error) {
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	res = make([]json.RawMessage, n)
	inOrder = true
	dec := json.NewDecoder(resp.Body)
	for i := 0; ; i++ {
		var ln loadgen.Line
		if err := dec.Decode(&ln); err != nil {
			return nil, false, fmt.Errorf("line %d: %v", i, err)
		}
		if ln.Done != nil {
			if ln.Index != -1 || ln.Done.Jobs != n || ln.Done.Errors != 0 || ln.Done.Canceled || i != n {
				return nil, false, fmt.Errorf("line %d: done marker %+v after %d lines, want %d clean jobs", i, *ln.Done, i, n)
			}
			return res, inOrder, nil
		}
		if ln.Error != nil {
			return nil, false, fmt.Errorf("in-band error for job %d: %+v", ln.Index, *ln.Error)
		}
		if ln.Index < 0 || ln.Index >= n || res[ln.Index] != nil {
			return nil, false, fmt.Errorf("bad or duplicate index %d", ln.Index)
		}
		res[ln.Index] = ln.Result
		inOrder = inOrder && ln.Index == i
	}
}

// TestSweepStreamBitIdentical: a sweep's NDJSON results, reordered by
// input index, are byte-for-byte the JSON of an in-process
// RunBatchContext on a fresh engine. Posted again, the same body is
// served by its cache keys: in index order, with the same bytes and no
// simulation.
func TestSweepStreamBitIdentical(t *testing.T) {
	srv, ts := newServer(t, sweepd.Config{})
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

	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	byKey, misses := srv.Stats().SweepsByKey, srv.Engine().CacheStats().Misses
	again, inOrder, err := sweepOnce(ts.URL, body, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().SweepsByKey; got != byKey+1 {
		t.Errorf("SweepsByKey %d -> %d, want one more", byKey, got)
	}
	if got := srv.Engine().CacheStats().Misses; got != misses {
		t.Errorf("the repeated body simulated: misses %d -> %d", misses, got)
	}
	if !inOrder {
		t.Error("a sweep served by key did not stream in index order")
	}
	for i := range again {
		if !bytes.Equal(again[i], byIndex[i]) {
			t.Errorf("job %d: result bytes served by key differ from the first post's", i)
		}
	}
}

// TestSweepMemoFallback: a memoized body whose results left the LRU
// (all of them by ClearCache, or some by eviction) is still served by
// key, with every job the engine no longer holds simulated again and
// each index's bytes equal to the first post's.
func TestSweepMemoFallback(t *testing.T) {
	specs := fastSpecs(t, 6)
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		eng        *engine.Engine
		drop       func(*engine.Engine)
		wantMisses int
	}{
		{"ClearCache", engine.New(), (*engine.Engine).ClearCache, len(specs)},
		// Six distinct results cannot all stay in a 3-entry LRU.
		{"eviction", engine.New(engine.WithCacheSize(3)), func(*engine.Engine) {}, len(specs) - 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := newServer(t, sweepd.Config{Engine: c.eng})
			first, _, err := sweepOnce(ts.URL, body, len(specs))
			if err != nil {
				t.Fatal(err)
			}
			c.drop(c.eng)
			misses := c.eng.CacheStats().Misses
			again, _, err := sweepOnce(ts.URL, body, len(specs))
			if err != nil {
				t.Fatal(err)
			}
			if got := srv.Stats().SweepsByKey; got != 1 {
				t.Errorf("SweepsByKey = %d, want 1", got)
			}
			if got := c.eng.CacheStats().Misses - misses; got != c.wantMisses {
				t.Errorf("%d jobs simulated again, want %d", got, c.wantMisses)
			}
			for i := range again {
				if !bytes.Equal(again[i], first[i]) {
					t.Errorf("job %d: result bytes differ from the first post's", i)
				}
			}
		})
	}
}

// TestSweepMemoSkipsIncompleteSweeps: a body is served by key only
// after a sweep of it delivered every job keyed and without error. One
// with an in-band job error, or sent to an engine built
// WithCache(false), is decoded on every post. (A canceled sweep is
// covered by TestSweepCancelMidStream.)
func TestSweepMemoSkipsIncompleteSweeps(t *testing.T) {
	for _, c := range []struct {
		name  string
		eng   *engine.Engine
		specs []spec.Job
		errs  int
	}{
		{"job error", engine.New(engine.WithParallelism(2), engine.WithJobTimeout(40*time.Millisecond)),
			append(slowSpecs(t, 1, 50), fastSpecs(t, 2)...), 1},
		{"no cache", engine.New(engine.WithCache(false)), fastSpecs(t, 2), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, ts := newServer(t, sweepd.Config{Engine: c.eng})
			for post := range 2 {
				resp := postSweep(t, ts.URL, c.specs)
				lines := readStream(t, resp.Body)
				resp.Body.Close()
				if d := lines[len(lines)-1].Done; d == nil || d.Jobs != len(c.specs) || d.Errors != c.errs {
					t.Fatalf("post %d ended with %+v, want %d jobs and %d errors", post, lines[len(lines)-1], len(c.specs), c.errs)
				}
			}
			if st := srv.Stats(); st.SweepsByKey != 0 || st.SweepsTotal != 2 {
				t.Errorf("server stats %+v, want 2 sweeps, none by key", st)
			}
		})
	}
}

// TestSweepMemoConcurrent: identical bodies posted at once, round after
// round, all stream the bytes of a fresh in-process run, whether they
// were decoded or served by key. The first round's posts, all decoded
// at once, leave the body's keys and lines in the memo once.
func TestSweepMemoConcurrent(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2))
	srv, ts := newServer(t, sweepd.Config{Engine: eng, MaxConcurrentSweeps: 16})
	specs := fastSpecs(t, 4)
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(specs))
	for i, res := range freshResults(t, specs) {
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	const clients, rounds = 8, 3
	for round := range rounds {
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
		)
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, _, err := sweepOnce(ts.URL, body, len(specs))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("job %d: streamed bytes differ from a fresh run", i)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if round > 0 {
			continue
		}
		stored, err := postRaw(ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if keys, lineBytes := srv.MemoTotals(); keys != len(specs) || lineBytes != len(resultLines(stored)) {
			t.Errorf("memo holds %d keys and %d line bytes, want the body's %d and %d once",
				keys, lineBytes, len(specs), len(resultLines(stored)))
		}
	}
	if st := srv.Stats(); st.SweepsTotal != clients*rounds+1 || st.SweepsByKey < clients+1 {
		t.Errorf("server stats %+v, want %d sweeps, at least the last round's %d and one more by key", st, clients*rounds+1, clients)
	}
	waitIdle(t, "after concurrent identical sweeps")
}

// postRaw posts body to /v1/sweeps and returns the whole stream of a
// 200 answer. It is safe to call from several goroutines.
func postRaw(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return out, err
}

// resultLines returns stream without its last line, the Done marker.
func resultLines(stream []byte) []byte {
	return stream[:bytes.LastIndexByte(stream[:len(stream)-1], '\n')+1]
}

// checkPerIndex fails unless stream is a clean sweep whose result
// bytes equal want's, index by index.
func checkPerIndex(t *testing.T, stream []byte, want []json.RawMessage) {
	t.Helper()
	lines := readStream(t, bytes.NewReader(stream))
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	if d := lines[len(lines)-1].Done; d == nil || d.Jobs != len(want) || d.Errors != 0 || d.Canceled {
		t.Fatalf("stream ended with %s, want a Done marker for %d clean jobs", lines[len(lines)-1].Raw, len(want))
	}
	for _, ln := range lines[:len(lines)-1] {
		if ln.Index < 0 || ln.Index >= len(want) || !bytes.Equal(ln.Result, want[ln.Index]) {
			t.Fatalf("line %s: not the first post's result for its index", ln.Raw)
		}
	}
}

// doneLine returns stream's last line, the Done marker.
func doneLine(stream []byte) []byte { return stream[len(resultLines(stream)):] }

// TestSweepMemoServesLines: the first post of a body, decoded, stores
// exactly the result lines it streamed. The second is written from
// them: every job still counts an engine hit, none simulates, and each
// index's result and the Done line match the first post's. The third
// is byte for byte the second.
func TestSweepMemoServesLines(t *testing.T) {
	eng := engine.New()
	srv, ts := newServer(t, sweepd.Config{Engine: eng})
	specs := fastSpecs(t, 6)
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	first, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, lineBytes := srv.MemoTotals(); lineBytes != len(resultLines(first)) {
		t.Fatalf("memo holds %d line bytes after the first post, want its %d", lineBytes, len(resultLines(first)))
	}
	byIndex := make([]json.RawMessage, len(specs))
	for _, ln := range readStream(t, bytes.NewReader(resultLines(first))) {
		byIndex[ln.Index] = ln.Result
	}

	before := eng.CacheStats()
	second, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.CacheStats()
	if after.Hits != before.Hits+len(specs) || after.Misses != before.Misses {
		t.Errorf("second post: hits %d -> %d, misses %d -> %d; want %d more hits and no miss",
			before.Hits, after.Hits, before.Misses, after.Misses, len(specs))
	}
	checkPerIndex(t, second, byIndex)
	if !bytes.Equal(doneLine(second), doneLine(first)) {
		t.Errorf("second post's Done line %q, the first's %q", doneLine(second), doneLine(first))
	}

	third, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, second) {
		t.Errorf("third post's stream differs from the second's:\n%s\n%s", third, second)
	}
	if got := srv.Stats().SweepsByKey; got != 2 {
		t.Errorf("SweepsByKey = %d, want 2", got)
	}
}

// TestSweepMemoOversizedBody: a body whose result lines alone exceed
// memoBound (five jobs with 1 MiB workload names) streams the bytes a
// fresh server does, index by index, and is decoded on every post:
// the memo keeps none of it.
func TestSweepMemoOversizedBody(t *testing.T) {
	specs := fastSpecs(t, 5)
	for i := range specs {
		specs[i].Workload.Inline.Name = strings.Repeat(string(rune('a'+i)), 1<<20)
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := newServer(t, sweepd.Config{})
	want, _, err := sweepOnce(fresh.URL, body, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newServer(t, sweepd.Config{})
	for post := 1; post <= 2; post++ {
		got, _, err := sweepOnce(ts.URL, body, len(specs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("post %d, job %d: result bytes differ from a fresh server's", post, i)
			}
		}
	}
	if got := srv.Stats().SweepsByKey; got != 0 {
		t.Errorf("SweepsByKey = %d, want 0", got)
	}
	if keys, lineBytes := srv.MemoTotals(); keys != 0 || lineBytes != 0 {
		t.Errorf("memo holds %d keys and %d line bytes of an oversized body", keys, lineBytes)
	}
}

// TestSweepMemoLinesAfterClearCache: once a body's lines are stored, a
// ClearCache makes its next post simulate every job again, with the
// same result bytes per index. The entry keeps its lines, and the post
// after that is written from them again, byte for byte as the post
// served from them before.
func TestSweepMemoLinesAfterClearCache(t *testing.T) {
	eng := engine.New()
	_, ts := newServer(t, sweepd.Config{Engine: eng})
	specs := fastSpecs(t, 6)
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := sweepOnce(ts.URL, body, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}

	eng.ClearCache()
	misses := eng.CacheStats().Misses
	again, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	checkPerIndex(t, again, first)
	if got := eng.CacheStats().Misses - misses; got != len(specs) {
		t.Errorf("%d jobs simulated after ClearCache, want %d", got, len(specs))
	}

	misses = eng.CacheStats().Misses
	last, err := postRaw(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Misses; got != misses {
		t.Errorf("the post after the re-simulation simulated %d jobs", got-misses)
	}
	if !bytes.Equal(last, stored) {
		t.Error("the stream after the re-simulation differs from the stored lines' stream")
	}
}

// TestSweepMemoLinesConcurrent: eight posts of a body seen once, sent
// at once, are all written from the lines its first post stored: they
// stream the same bytes, with each index's result equal to the first
// post's, and the memo still holds the body's lines once.
func TestSweepMemoLinesConcurrent(t *testing.T) {
	eng := engine.New(engine.WithParallelism(2))
	srv, ts := newServer(t, sweepd.Config{Engine: eng, MaxConcurrentSweeps: 16})
	specs := fastSpecs(t, 4)
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := sweepOnce(ts.URL, body, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var (
		streams [clients][]byte
		errs    [clients]error
		start   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			streams[c], errs[c] = postRaw(ts.URL, body)
		}()
	}
	close(start)
	wg.Wait()
	for c := range clients {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if !bytes.Equal(streams[c], streams[0]) {
			t.Errorf("client %d's stream differs from client 0's", c)
		}
	}
	checkPerIndex(t, streams[0], first)
	if _, lineBytes := srv.MemoTotals(); lineBytes != len(resultLines(streams[0])) {
		t.Errorf("memo holds %d line bytes, want the body's %d once", lineBytes, len(resultLines(streams[0])))
	}
	if got := srv.Stats().SweepsByKey; got != clients {
		t.Errorf("SweepsByKey = %d, want %d", got, clients)
	}
}

// sectionSpecs returns two workloads under each of three policy
// sections: sysscale with default params, sysscale with a custom
// high_scale, and baseline. In body order each section repeats, so a
// sweep of them shares policy builds.
func sectionSpecs(t *testing.T) []spec.Job {
	t.Helper()
	sections := []spec.Policy{
		{Name: "sysscale"},
		{Name: "sysscale", Params: json.RawMessage(`{"high_scale":1}`)},
		{Name: "baseline"},
	}
	var specs []spec.Job
	for _, name := range []string{"403.gcc", "473.astar"} {
		w, err := workload.SPEC(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = policy.NewBaseline()
		cfg.Duration = 400 * sim.Millisecond
		js, err := spec.Encode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sections {
			js.Policy = p
			specs = append(specs, js)
		}
	}
	return specs
}

// TestSweepSharedPolicySections: specs of one body that share a policy
// section share its build, and each still returns what /v1/jobs
// returns for it alone, under the same fingerprint.
func TestSweepSharedPolicySections(t *testing.T) {
	srv, ts := newServer(t, sweepd.Config{})
	specs := sectionSpecs(t)
	resp := postSweep(t, ts.URL, specs)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := readStream(t, resp.Body)
	if d := lines[len(lines)-1].Done; d == nil || d.Jobs != len(specs) || d.Errors != 0 {
		t.Fatalf("stream ended with %+v, want %d clean jobs", lines[len(lines)-1], len(specs))
	}
	swept := make([]json.RawMessage, len(specs))
	for _, ln := range lines[:len(lines)-1] {
		swept[ln.Index] = ln.Result
	}
	if ref := freshResults(t, specs[:2]); reflect.DeepEqual(ref[0], ref[1]) {
		t.Fatal("custom high_scale does not change the result; the test cannot tell sections apart")
	}

	_, alone := newServer(t, sweepd.Config{})
	for i, js := range specs {
		body, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := spec.Fingerprint(js)
		if err != nil {
			t.Fatal(err)
		}
		// On a fresh server the spec is simulated alone; on the sweep's
		// server it must hit the entry the sweep stored under the same
		// key.
		for _, url := range []string{alone.URL, ts.URL} {
			before := srv.Engine().CacheStats()
			resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var jr struct {
				Fingerprint string          `json:"fingerprint"`
				Result      json.RawMessage `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("spec %d on %s: status %d, decode error %v", i, url, resp.StatusCode, err)
			}
			if !bytes.Equal(jr.Result, swept[i]) {
				t.Errorf("spec %d on %s: /v1/jobs result differs from the sweep's", i, url)
			}
			if jr.Fingerprint != fmt.Sprintf("%x", fp) {
				t.Errorf("spec %d on %s: fingerprint %s, want %x", i, url, jr.Fingerprint, fp)
			}
			if after := srv.Engine().CacheStats(); url == ts.URL && (after.Hits != before.Hits+1 || after.Misses != before.Misses) {
				t.Errorf("spec %d: /v1/jobs after the sweep missed its entry (hits %d → %d, misses %d → %d)",
					i, before.Hits, after.Hits, before.Misses, after.Misses)
			}
		}
	}
}

// TestSweepBadSectionNamesItsSpec: a body whose spec k carries bad
// policy params is refused with a 400 naming spec k and its decode
// error, even when earlier specs share the family and a later one
// repeats the bad section.
func TestSweepBadSectionNamesItsSpec(t *testing.T) {
	_, ts := newServer(t, sweepd.Config{})
	for _, params := range []string{`{"high_scale":-1}`, `{"no_such_param":1}`} {
		specs := sectionSpecs(t)
		const k = 3
		specs[k].Policy = spec.Policy{Name: "sysscale", Params: json.RawMessage(params)}
		specs[k+1].Policy = specs[k].Policy
		_, decErr := spec.Decode(specs[k])
		if decErr == nil {
			t.Fatalf("params %s decode", params)
		}
		resp := postSweep(t, ts.URL, specs)
		var er struct {
			Error sweepd.ErrorInfo `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil {
			t.Fatalf("params %s: status %d, decode error %v", params, resp.StatusCode, err)
		}
		if want := fmt.Sprintf("spec %d: %v", k, decErr); er.Error.Code != "invalid_spec" || er.Error.Message != want {
			t.Errorf("params %s: error %+v, want invalid_spec %q", params, er.Error, want)
		}
	}
}

// BenchmarkSweepHot is the sweep-hot path in one process: each op
// posts a 20-spec generated body (policy i mod 4, 2 s runs) whose
// results are resident in the server's LRU to a loopback server, and
// the client drains the NDJSON stream.
func BenchmarkSweepHot(b *testing.B) {
	pols := []soc.Policy{policy.NewBaseline(), policy.NewSysScaleDefault(), policy.NewMemScaleRedist(), policy.NewCoScaleRedist()}
	var specs []spec.Job
	for i, w := range gen.GenerateN(gen.DefaultConfig(1), 20) {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = pols[i%4]
		cfg.Duration = 2 * sim.Second
		js, err := spec.Encode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, js)
	}
	body, err := json.Marshal(specs)
	if err != nil {
		b.Fatal(err)
	}
	srv := sweepd.New(sweepd.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	sweep := func() {
		resp, err := client.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.HasSuffix(out, []byte(`"done":{"jobs":20,"errors":0}}`+"\n")) {
			b.Fatalf("status %d, read error %v, stream tail %q", resp.StatusCode, err, out[max(0, len(out)-80):])
		}
	}
	sweep()
	b.ReportAllocs()
	for b.Loop() {
		sweep()
	}
	if st := srv.Engine().CacheStats(); st.Misses != len(specs) {
		b.Fatalf("%d simulations, want only the %d of the warming sweep", st.Misses, len(specs))
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
	// The canceled pass left no memo entry; the complete rerun did.
	if st := srv.Stats(); st.SweepsByKey != 0 {
		t.Errorf("the rerun of a canceled sweep was served by key (%d)", st.SweepsByKey)
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepOnce(ts.URL, body, len(specs)); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SweepsByKey != 1 {
		t.Errorf("SweepsByKey = %d after a complete rerun, want 1", st.SweepsByKey)
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

// TestSubTickDurationIs400: a job shorter than one sample interval, or
// one whose duration is not a whole number of sample intervals, is a
// configuration error, so /v1/jobs answers 400 invalid_spec instead
// of failing the run mid-flight with a 500. So is a document that sets
// a switch retired in spec v3: the service refuses it rather than
// answering with results it did not ask for.
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
	for i, b := range append([][]byte{short, offGridBody(t)}, retiredSwitchBodies(t)...) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if code := errCode(t, resp, http.StatusBadRequest); code != "invalid_spec" {
			t.Errorf("body %d: code %q, want invalid_spec", i, code)
		}
	}
}

// offGridBody returns the example 470.lbm document with a 2.0005 s
// run, which is not a whole number of its 1 ms sample ticks.
func offGridBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := os.ReadFile("../../examples/specs/sysscale-470.lbm.json")
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Replace(body, []byte(`"duration_ns": 2000000000`), []byte(`"duration_ns": 2000500000`), 1)
}

// retiredSwitchBodies returns the v2 example document once with each
// switch retired in spec v3 (run.trace_power,
// knobs.disable_span_batching) set true.
func retiredSwitchBodies(tb testing.TB) [][]byte {
	tb.Helper()
	v2, err := os.ReadFile("../spec/testdata/v2/sysscale-470.lbm.json")
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for _, key := range []string{`"trace_power": `, `"disable_span_batching": `} {
		b := bytes.Replace(v2, []byte(key+"false"), []byte(key+"true"), 1)
		if bytes.Equal(b, v2) {
			tb.Fatalf("v2 fixture has no %sfalse", key)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// fuzzMaxBody is the request-body bound of the wire fuzzers' server.
const fuzzMaxBody = 16 << 10

// fuzzSeeds returns the wire fuzzers' seed documents: every example and
// v1/v2 fixture spec, the retired-switch bodies, and a few malformed
// shapes, one over the body bound.
func fuzzSeeds(f *testing.F) [][]byte {
	seeds, _ := filepath.Glob("../../examples/specs/*.json")
	old, _ := filepath.Glob("../spec/testdata/v[12]/*.json")
	var docs [][]byte
	for _, p := range append(seeds, old...) {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b)
	}
	docs = append(docs, retiredSwitchBodies(f)...)
	return append(docs, offGridBody(f),
		[]byte(`{"version":3}`),
		[]byte(`[]`),
		append([]byte(`{"version":3`), bytes.Repeat([]byte(" "), fuzzMaxBody)...))
}

// fuzzServer starts the server the wire fuzzers post to: one worker, a
// 2 s job timeout and a fuzzMaxBody body bound.
func fuzzServer(f *testing.F) *httptest.Server {
	s := sweepd.New(sweepd.Config{
		Engine:       engine.New(engine.WithParallelism(1), engine.WithJobTimeout(2*time.Second)),
		MaxBodyBytes: fuzzMaxBody,
	})
	ts := httptest.NewServer(s)
	f.Cleanup(ts.Close)
	return ts
}

// wireStatuses are the documented HTTP statuses of /v1/jobs and
// /v1/sweeps; wireCodes are the documented ErrorInfo codes.
var (
	wireStatuses = map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusRequestEntityTooLarge: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	wireCodes = map[string]bool{
		"invalid_spec": true, "invalid_config": true, "timeout": true, "panic": true,
		"canceled": true, "too_large": true, "overloaded": true, "not_found": true, "error": true,
	}
)

// fuzzPost posts body to path and fails on an undocumented status or,
// for any status but 200, on a body that is not a typed ErrorInfo with
// a documented code. It returns the 200 response, or nil.
func fuzzPost(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !wireStatuses[resp.StatusCode] {
		resp.Body.Close()
		t.Fatalf("undocumented status %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusOK {
		return resp
	}
	defer resp.Body.Close()
	var er struct {
		Error sweepd.ErrorInfo `json:"error"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&er); err != nil || !wireCodes[er.Error.Code] {
		t.Fatalf("status %d: untyped error body (code %q, err %v)", resp.StatusCode, er.Error.Code, err)
	}
	return nil
}

// maxFuzzTicks bounds the simulated ticks of a fuzzed request: longer
// runs exercise the simulator's speed, not the wire, and the job
// timeout bounds the rest.
const maxFuzzTicks = 1_000_000

// FuzzJobBody posts arbitrary bodies to /v1/jobs. Whatever the bytes,
// the server must not panic, must answer with a documented status
// (200, 400, 413, 503 or 504), and must give every non-200 answer a
// typed ErrorInfo body with a documented code. A 200 answer's result
// must pass Result.Check. Bodies that decode to runs longer than
// maxFuzzTicks are skipped.
func FuzzJobBody(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	ts := fuzzServer(f)

	f.Fuzz(func(t *testing.T, body []byte) {
		if js, err := spec.ReadJob(bytes.NewReader(body)); err == nil {
			if cfg, err := spec.Decode(js); err == nil && cfg.Duration/cfg.SampleInterval > maxFuzzTicks {
				t.Skip("run longer than maxFuzzTicks")
			}
		}
		resp := fuzzPost(t, ts.URL+"/v1/jobs", body)
		if resp == nil {
			return
		}
		defer resp.Body.Close()
		var jr sweepd.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("200 body is not a JobResponse: %v", err)
		}
		if err := jr.Result.Check(1e-12); err != nil {
			t.Fatalf("result breaks its physics: %v", err)
		}
	})
}

// FuzzSweepBody posts arbitrary bodies to /v1/sweeps, on the server and
// seeds of FuzzJobBody (each seed also wrapped in an array, the sweep
// form). The server must not panic and must answer with a documented
// status; a non-200 answer must carry a typed ErrorInfo, and a 200
// stream must end in a Done line, with every earlier line holding
// either a result that passes Result.Check or a typed ErrorInfo, and
// the Done counts matching them. Every body is posted twice: when the
// first stream was complete and free of errors, the second (written
// from the lines the first stored) must carry the same result bytes
// per index and the same Done line. Sweeps simulating more than
// maxFuzzTicks in all are skipped.
func FuzzSweepBody(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
		f.Add(append(append([]byte("["), b...), ']'))
	}
	ts := fuzzServer(f)

	f.Fuzz(func(t *testing.T, body []byte) {
		if jobs, err := spec.ReadJobs(bytes.NewReader(body)); err == nil {
			var ticks sim.Time
			for _, js := range jobs {
				if cfg, err := spec.Decode(js); err == nil {
					ticks += cfg.Duration / cfg.SampleInterval
				}
			}
			if ticks > maxFuzzTicks {
				t.Skip("sweep longer than maxFuzzTicks")
			}
		}
		first, done := fuzzSweep(t, ts.URL, body)
		if done == nil || done.Errors != 0 || done.Canceled {
			return
		}
		again, doneAgain := fuzzSweep(t, ts.URL, body)
		if doneAgain == nil || *doneAgain != *done {
			t.Fatalf("second post ended with %+v, the first with %+v", doneAgain, *done)
		}
		for i, res := range first {
			if !bytes.Equal(again[i], res) {
				t.Fatalf("job %d: the second post's result bytes differ from the first's", i)
			}
		}
	})
}

// fuzzSweep posts body to /v1/sweeps and checks the answer as
// FuzzSweepBody describes. For a 200 answer it returns the result bytes
// by index and the Done line; otherwise nil.
func fuzzSweep(t *testing.T, url string, body []byte) (map[int]json.RawMessage, *sweepd.DoneInfo) {
	t.Helper()
	resp := fuzzPost(t, url+"/v1/sweeps", body)
	if resp == nil {
		return nil, nil
	}
	defer resp.Body.Close()
	lines := readStream(t, resp.Body)
	if len(lines) == 0 || lines[len(lines)-1].Done == nil {
		t.Fatalf("stream of %d lines ends without a Done line", len(lines))
	}
	results := make(map[int]json.RawMessage)
	errs := 0
	for i, ln := range lines[:len(lines)-1] {
		switch {
		case ln.Done != nil:
			t.Fatalf("line %d: Done line before the end of the stream", i)
		case ln.Error != nil && len(ln.Result) == 0:
			if !wireCodes[ln.Error.Code] {
				t.Fatalf("line %d: undocumented error code %q", i, ln.Error.Code)
			}
			errs++
		case ln.Error == nil && len(ln.Result) > 0:
			var r soc.Result
			if err := json.Unmarshal(ln.Result, &r); err != nil {
				t.Fatalf("line %d: result does not decode: %v", i, err)
			}
			if err := r.Check(1e-12); err != nil {
				t.Fatalf("line %d: result breaks its physics: %v", i, err)
			}
			results[ln.Index] = ln.Result
		default:
			t.Fatalf("line %d holds neither exactly a result nor an error: %s", i, ln.Raw)
		}
	}
	d := lines[len(lines)-1].Done
	if d.Jobs != len(lines)-1 || d.Errors != errs {
		t.Fatalf("Done counts %d jobs, %d errors; the stream held %d lines, %d errors", d.Jobs, d.Errors, len(lines)-1, errs)
	}
	return results, d
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

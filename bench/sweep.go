package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/sweepd"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// The load model for the sweep workloads is a closed loop: the users
// are sweep scripts that wait for each stream's Done line before
// sending their next request. sweepClients clients, one keep-alive
// connection each, drive a server in the same process whose engine
// runs GOMAXPROCS workers. A refused request (503) is not retried: it
// counts as a failure.
const sweepClients = 2

// coldSampleEvery selects the sweep-cold specs whose streamed results
// are checked against an in-process soc.Run.
const coldSampleEvery = 97

type sweepKind int

const (
	// sweepCold sends every spec once to a server in sweepd's default
	// deployment, without a disk tier: every job misses the result
	// cache and simulates.
	sweepCold sweepKind = iota
	// sweepHot cycles through a corpus resident in the result LRU of the
	// same server: no simulation, no disk I/O.
	sweepHot
	// sweepDisk cycles, in order, through a corpus larger than the LRU
	// on a restarted server over a filled disk cache: every job misses
	// memory and is served from disk.
	sweepDisk
)

// sweepBench is one of the three sweep workloads.
type sweepBench struct {
	o    *options
	kind sweepKind
	tmp  string
	// batch is the specs per sweep request, corpus the hot/disk corpus
	// size, lru the server engine's result-cache bound.
	batch, corpus, lru int

	dir string // sweep-disk's cache directory, filled once per run
	svc *service
	// next is the next measured op's index.
	next int
	// bodies are the hot/disk corpus in request-sized chunks, and
	// expect[b][j] the setup pass's result bytes for job j of body b.
	bodies [][]byte
	expect [][][]byte

	mu       sync.Mutex
	samples  []coldSample
	failures []string
}

// coldSample is one sweep-cold result kept for the soc.Run check.
type coldSample struct {
	op, job int
	result  []byte
}

func newSweep(o *options, tmp string, kind sweepKind) *sweepBench {
	b := &sweepBench{o: o, tmp: tmp, kind: kind, batch: 20, corpus: 2000, lru: engine.DefaultCacheSize}
	if kind == sweepDisk {
		// Under cyclic access an LRU smaller than the working set misses
		// on every job: the hot corpus against a 1024-entry LRU. The
		// slack absorbs the reordering of two concurrent clients, which
		// would otherwise turn a late op into hits. A default-sized LRU
		// would need a corpus whose fsync-bound fill dominates the run.
		b.lru = 1024
	}
	if o.toy {
		b.batch, b.corpus = 2, 40
		if kind == sweepDisk {
			b.lru = 20
		}
	}
	return b
}

// sweepConfig is the job for generated workload w at corpus index i,
// as sweepload -gen builds it: policy i mod 4, 2 s of simulated time.
func sweepConfig(w workload.Workload, i int) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Workload = w
	cfg.Policy = closedLoopPolicies()[i%4]
	cfg.Duration = 2 * sim.Second
	return cfg
}

// genSpecs builds the specs of n generated workloads from g, the
// first at corpus index first.
func genSpecs(g gen.Config, first, n int) ([]spec.Job, error) {
	out := make([]spec.Job, n)
	for i, w := range gen.GenerateN(g, n) {
		js, err := spec.Encode(sweepConfig(w, first+i))
		if err != nil {
			return nil, fmt.Errorf("encode generated job %d: %w", first+i, err)
		}
		out[i] = js
	}
	return out, nil
}

// coldGen is sweep-cold op i's generator: a seed of its own, so every
// spec the workload sends is distinct.
func coldGen(seed uint64, i int) gen.Config { return gen.DefaultConfig(seed<<32 + uint64(i) + 1) }

// body returns op i's request body. sweep-cold generates it here, just
// before it is sent: outside the op's latency, inside wall time.
func (b *sweepBench) body(i int) ([]byte, error) {
	if b.kind != sweepCold {
		return b.bodies[i%len(b.bodies)], nil
	}
	specs, err := genSpecs(coldGen(b.o.seed, i), i*b.batch, b.batch)
	if err != nil {
		return nil, err
	}
	return json.Marshal(specs)
}

// stop shuts the current server down. sweep-disk's cache directory
// stays until the run's temp dir is removed at exit, outside every
// timed region.
func (b *sweepBench) stop() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.close()
	b.svc = nil
	return err
}

func (b *sweepBench) close() { b.stop() }

// prepare fills sweep-disk's cache directory through a server, once
// per run. Every entry written waits on fsync, whose rate on the
// benchmark host swings between about 900 and 8000 per second from
// one minute to the next, so the fill is not part of setup_s.
func (b *sweepBench) prepare(ctx context.Context) error {
	if b.kind != sweepDisk {
		return nil
	}
	b.dir = filepath.Join(b.tmp, "cache")
	if err := b.loadCorpus(ctx); err != nil {
		return err
	}
	return b.stop()
}

// setup starts a fresh server. sweep-cold warms it with one sweep per
// client, of specs no measured op sends; sweep-hot loads the corpus
// into its LRU; sweep-disk restarts over the filled directory.
func (b *sweepBench) setup(ctx context.Context) error {
	if err := b.stop(); err != nil {
		return err
	}
	switch b.kind {
	case sweepCold:
		if err := b.start(); err != nil {
			return err
		}
		for c := range sweepClients {
			specs, err := genSpecs(gen.DefaultConfig(^(b.o.seed<<32 + uint64(c))), 0, b.batch)
			if err != nil {
				return err
			}
			body, err := json.Marshal(specs)
			if err != nil {
				return err
			}
			if _, err := b.svc.post(ctx, c, body, b.batch); err != nil {
				return fmt.Errorf("warm-up sweep: %w", err)
			}
		}
		return nil
	case sweepHot:
		return b.loadCorpus(ctx)
	}
	if err := b.corpusBodies(); err != nil {
		return err
	}
	return b.start()
}

// corpusBodies generates the hot/disk corpus in request-sized chunks.
func (b *sweepBench) corpusBodies() error {
	specs, err := genSpecs(gen.DefaultConfig(b.o.seed), 0, b.corpus)
	if err != nil {
		return err
	}
	b.bodies = b.bodies[:0]
	for i := 0; i < len(specs); i += b.batch {
		body, err := json.Marshal(specs[i:min(i+b.batch, len(specs))])
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body)
	}
	return nil
}

// loadCorpus starts a server and sends it the corpus once, which
// leaves it in the LRU (sweep-hot) or written through to the disk tier
// (sweep-disk). The streamed results are what every measured op must
// reproduce byte for byte.
func (b *sweepBench) loadCorpus(ctx context.Context) error {
	if err := b.corpusBodies(); err != nil {
		return err
	}
	if err := b.start(); err != nil {
		return err
	}
	b.expect = make([][][]byte, len(b.bodies))
	run, err := b.closedLoop(0, limit{ops: len(b.bodies)}, func(c, i int, body []byte) ([][]byte, error) {
		return b.svc.post(ctx, c, body, b.batchOf(i))
	}, func(i int, res [][]byte) error {
		b.expect[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	if run.failed > 0 {
		return fmt.Errorf("corpus pass: %d of %d sweeps failed, first: %s", run.failed, len(b.bodies), run.errs[0])
	}
	return nil
}

// start serves sweepd over a fresh engine, with sweep-disk's disk tier
// on the current directory.
func (b *sweepBench) start() error {
	eng, err := newServiceEngine(b.dir, b.lru)
	if err != nil {
		return err
	}
	b.svc, err = startService(eng)
	return err
}

// batchOf is the number of specs in op i's body.
func (b *sweepBench) batchOf(i int) int {
	if b.kind == sweepCold {
		return b.batch
	}
	if last := len(b.bodies) - 1; i%len(b.bodies) == last {
		return b.corpus - last*b.batch
	}
	return b.batch
}

func (b *sweepBench) measure(ctx context.Context, lim limit) (*phase, error) {
	before, err := b.svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocs()
	run, err := b.closedLoop(b.next, lim, func(c, i int, body []byte) ([][]byte, error) {
		return b.svc.post(ctx, c, body, b.batchOf(i))
	}, b.verify)
	allocs := heapAllocs() - a0
	if err != nil {
		return nil, err
	}
	b.next += len(run.lat)
	after, err := b.svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	ph := &phase{lat: run.lat, failed: run.failed, errs: run.errs, wall: run.wall, allocs: allocs,
		stats: statsDelta(after.Engine, before.Engine), rates: run.rates}
	ph.jobs = jobsOf(ph.stats)
	b.assertIntent(after, ph.stats, run.jobs)
	return ph, nil
}

// verify checks op i's results outside its latency: byte-equal to the
// setup pass for hot and disk; for cold, every coldSampleEvery-th spec
// is kept for the soc.Run check.
func (b *sweepBench) verify(i int, res [][]byte) error {
	if b.kind == sweepCold {
		for j, r := range res {
			if (i*b.batch+j)%coldSampleEvery == 0 {
				b.mu.Lock()
				b.samples = append(b.samples, coldSample{op: i, job: j, result: r})
				b.mu.Unlock()
			}
		}
		return nil
	}
	want := b.expect[i%len(b.bodies)]
	for j, r := range res {
		if !bytes.Equal(r, want[j]) {
			return fmt.Errorf("op %d job %d: result bytes differ from the setup pass", i, j)
		}
	}
	return nil
}

// assertIntent fails the run if the workload stopped exercising the
// layer it exists for.
func (b *sweepBench) assertIntent(after sweepd.StatsResponse, d engine.Stats, jobs int) {
	fail := func(format string, args ...any) {
		b.failures = append(b.failures, fmt.Sprintf(b.o.workload+": "+format, args...))
	}
	if n := after.Server.RunnersInFlight; n != 0 {
		fail("runners_in_flight = %d after the phase", n)
	}
	if n := after.Engine.DiskErrors; n != 0 {
		fail("disk_errors = %d", n)
	}
	switch b.kind {
	case sweepCold:
		if d.Misses != jobs {
			fail("misses = %d, want jobs = %d", d.Misses, jobs)
		}
	case sweepHot:
		if d.Hits != jobs {
			fail("hits = %d, want jobs = %d", d.Hits, jobs)
		}
	case sweepDisk:
		if d.DiskHits != jobs || d.Misses != 0 {
			fail("disk_hits = %d and misses = %d, want jobs = %d and 0", d.DiskHits, d.Misses, jobs)
		}
	}
}

// check runs the sweep-cold samples through soc.Run.
func (b *sweepBench) check(ctx context.Context) []string {
	failures := b.failures
	specsOf := map[int][]spec.Job{}
	for _, s := range b.samples {
		specs, ok := specsOf[s.op]
		if !ok {
			var err error
			if specs, err = genSpecs(coldGen(b.o.seed, s.op), s.op*b.batch, b.batch); err != nil {
				return append(failures, err.Error())
			}
			specsOf[s.op] = specs
		}
		cfg, err := spec.Decode(specs[s.job])
		var res soc.Result
		if err == nil {
			res, err = soc.Run(cfg)
		}
		var want []byte
		if err == nil {
			want, err = json.Marshal(&res)
		}
		if err == nil && !bytes.Equal(want, s.result) {
			err = errors.New("streamed result differs from soc.Run")
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("sweep-cold op %d job %d: %v", s.op, s.job, err))
		}
	}
	return failures
}

// loopResult is one closed-loop pass.
type loopResult struct {
	lat    []float64 // by op index
	failed int
	errs   []string // the first maxReportedErrors failures
	jobs   int      // results received
	wall   time.Duration
	rates  []float64 // results received per second, by one-second window
}

// maxReportedErrors bounds the failure messages a pass keeps.
const maxReportedErrors = 10

// closedLoop runs ops first, first+1, ... on sweepClients goroutines
// until lim says stop. A client takes the next op index, builds its
// body, times do, and then verifies the results outside the op's
// latency. A failed op is counted, not fatal; a body that cannot be
// built is.
func (b *sweepBench) closedLoop(first int, lim limit, do func(c, i int, body []byte) ([][]byte, error), verify func(i int, res [][]byte) error) (loopResult, error) {
	type rec struct {
		lat  float64
		err  error
		jobs int
		done time.Duration // since the pass began
	}
	var (
		mu    sync.Mutex
		taken int
		recs  []rec
		errs  [sweepClients]error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := range sweepClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Checking the limit and taking the index under one lock
				// keeps the executed ops a contiguous prefix.
				mu.Lock()
				if !lim.more(taken, time.Since(start)) {
					mu.Unlock()
					return
				}
				k := taken
				taken++
				recs = append(recs, rec{})
				mu.Unlock()

				i := first + k
				body, err := b.body(i)
				if err != nil {
					errs[c] = err
					return
				}
				t0 := time.Now()
				res, err := do(c, i, body)
				lat := msSince(t0)
				if err == nil {
					err = verify(i, res)
				}
				mu.Lock()
				recs[k] = rec{lat: lat, err: err, jobs: len(res), done: time.Since(start)}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start), lat: make([]float64, len(recs))}
	done := make([]time.Duration, len(recs))
	jobs := make([]int, len(recs))
	for i, r := range recs {
		out.lat[i] = r.lat
		out.jobs += r.jobs
		done[i], jobs[i] = r.done, r.jobs
		if r.err != nil {
			out.failed++
			if len(out.errs) < maxReportedErrors {
				out.errs = append(out.errs, fmt.Sprintf("op %d: %v", first+i, r.err))
			}
		}
	}
	out.rates = windowRates(done, jobs, out.wall, time.Second)
	return out, errors.Join(errs[:]...)
}

// trace replays the measured ops in-process, untraced and then traced,
// each from the state the measured phase started from, and probes the
// first ops' jobs.
func (b *sweepBench) trace(ctx context.Context, tr *tracer, lim limit) (*traced, error) {
	// The server's engine holds the cache state of the end of the
	// measured phase; the replays open their own.
	if err := b.stop(); err != nil {
		return nil, err
	}
	res := &traced{}
	var err error
	if res.base, err = b.replay(ctx, nil, lim); err != nil {
		return nil, err
	}
	if res.lat, err = b.replay(ctx, tr, lim); err != nil {
		return nil, err
	}

	n := 200
	if b.o.toy {
		n = 20
	}
	if b.kind != sweepCold {
		n = min(n, b.corpus)
	}
	var cfgs []soc.Config
	for i := 0; len(cfgs) < n; i++ {
		body, err := b.body(i)
		if err != nil {
			return nil, err
		}
		specs, err := spec.ReadJobs(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for _, sp := range specs[:min(len(specs), n-len(cfgs))] {
			cfg, err := spec.Decode(sp)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	f, err := runProbes(ctx, tr, b.o, 0, cfgs, false)
	if err != nil {
		return nil, err
	}
	res.failures = append(res.failures, f...)
	return res, nil
}

// replay runs ops through the request path in-process with the same
// closed loop as the measured phase, on an engine in the state the
// server's was in when the phase began.
func (b *sweepBench) replay(ctx context.Context, tr *tracer, lim limit) ([]float64, error) {
	eng, err := newServiceEngine(b.dir, b.lru)
	if err != nil {
		return nil, err
	}
	if b.kind == sweepHot {
		// Load the corpus into the LRU, as the setup pass did.
		for i := range b.bodies {
			if _, err := requestPath(ctx, nil, i, false, b.bodies[i], eng, nil); err != nil {
				return nil, err
			}
		}
	}
	run, err := b.closedLoop(0, lim, func(c, i int, body []byte) ([][]byte, error) {
		return requestPath(ctx, tr, i, false, body, eng, nil)
	}, func(i int, lines [][]byte) error {
		if b.kind == sweepCold {
			return nil
		}
		want := b.expect[i%len(b.bodies)]
		for j, ln := range lines {
			if !bytes.Equal(ln, []byte(fmt.Sprintf("{\"index\":%d,\"result\":%s}\n", j, want[j]))) {
				return fmt.Errorf("replayed line %d differs from the setup pass", j)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if run.failed > 0 {
		return nil, fmt.Errorf("replay: %d ops failed, first: %s", run.failed, run.errs[0])
	}
	return run.lat, nil
}

// requestPath replays one sweep request through the public calls the
// server makes, in its order: spec.ReadJobs, engine.FromSpec per spec,
// the engine run (on eng, or taking the precomputed results pre when
// eng is nil), and one StreamLine encode per result. It returns the
// encoded lines.
func requestPath(ctx context.Context, tr *tracer, op int, probe bool, body []byte, eng *engine.Engine, pre []soc.Result) ([][]byte, error) {
	rootName := "op"
	if probe {
		rootName = "probe.request_path"
	}
	root := tr.begin(rootName, 0, op, probe)
	defer tr.end(root, nil)

	id := tr.begin("spec.read_jobs", root, op, probe)
	specs, err := spec.ReadJobs(bytes.NewReader(body))
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	tr.setCount(id, len(specs))

	jobs := make([]engine.Job, len(specs))
	fs := tr.agg("engine.from_spec")
	for j, sp := range specs {
		fs.time(func() { jobs[j], err = engine.FromSpec(sp) })
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", j, err)
		}
	}
	fs.add(root, op, probe)

	results := pre
	if eng != nil {
		id := tr.begin("engine.run_batch", root, op, probe)
		results, err = eng.RunBatchContext(ctx, jobs)
		tr.end(id, map[string]float64{"jobs": float64(len(jobs))})
		if err != nil {
			return nil, err
		}
		tr.setCount(id, len(jobs))
	}

	lines := make([][]byte, len(results))
	var buf bytes.Buffer
	je := json.NewEncoder(&buf)
	enc := tr.agg("sweepd.encode_line")
	for j := range results {
		buf.Reset()
		enc.time(func() { err = je.Encode(&sweepd.StreamLine{Index: j, Result: &results[j]}) })
		if err != nil {
			return nil, err
		}
		enc.attr("bytes", float64(buf.Len()))
		lines[j] = bytes.Clone(buf.Bytes())
	}
	enc.add(root, op, probe)
	return lines, nil
}

// service is a sweepd server on a loopback listener in this process,
// with its clients.
type service struct {
	hs      *http.Server
	url     string
	served  chan error
	clients [sweepClients]*http.Client
}

// newServiceEngine is the server's engine: engine.New with the given
// result-cache bound, over a disk cache in dir (none if dir is empty);
// every other setting is the default, so it runs GOMAXPROCS workers.
func newServiceEngine(dir string, lru int) (*engine.Engine, error) {
	eng := engine.New(engine.WithDiskCache(dir), engine.WithCacheSize(lru))
	return eng, eng.DiskCacheError()
}

// startService serves sweepd over eng with the default admission
// settings.
func startService(eng *engine.Engine) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		hs:     &http.Server{Handler: sweepd.New(sweepd.Config{Engine: eng})},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for c := range s.clients {
		// One keep-alive connection per client.
		s.clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return s, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return err
}

// streamLine is one NDJSON line as a client parses it, keeping the
// result's raw bytes.
type streamLine struct {
	Index  int               `json:"index"`
	Result json.RawMessage   `json:"result,omitempty"`
	Error  *sweepd.ErrorInfo `json:"error,omitempty"`
	Done   *sweepd.DoneInfo  `json:"done,omitempty"`
}

// post sends one sweep of n specs on client c and reads the stream to
// its end. It returns each job's raw result bytes by index, or an
// error for a non-200 status, an in-band error, a missing or wrong
// Done line, or an index that is out of range, repeated or absent.
func (s *service) post(ctx context.Context, c int, body []byte, n int) ([][]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	results := make([][]byte, n)
	var done *sweepd.DoneInfo
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		raw, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var ln streamLine
			if err := json.Unmarshal(raw, &ln); err != nil {
				return nil, fmt.Errorf("bad stream line: %w", err)
			}
			switch {
			case ln.Done != nil:
				done = ln.Done
			case ln.Error != nil:
				return nil, fmt.Errorf("job %d: in-band error %s: %s", ln.Index, ln.Error.Code, ln.Error.Message)
			case ln.Index < 0 || ln.Index >= n || results[ln.Index] != nil:
				return nil, fmt.Errorf("result index %d out of range or repeated", ln.Index)
			default:
				results[ln.Index] = ln.Result
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if done == nil {
		return nil, errors.New("stream ended without a Done line")
	}
	if done.Jobs != n || done.Errors != 0 || done.Canceled {
		return nil, fmt.Errorf("Done line %+v, want %d jobs and no errors", *done, n)
	}
	for j, r := range results {
		if r == nil {
			return nil, fmt.Errorf("no result for index %d", j)
		}
	}
	return results, nil
}

// stats fetches GET /v1/stats.
func (s *service) stats(ctx context.Context) (sweepd.StatsResponse, error) {
	var out sweepd.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return out, err
	}
	resp, err := s.clients[0].Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Command bench is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process:
//
//	bench -workload <name> [-seed 1] [-seconds 18] [-trace 0|1] [-trace-out file]
//
// A run has three parts, in order: set-up (repeated, its median
// reported as setup_s), a measured phase with tracing off, and
// correctness checks that sit outside every timed region. Every timed
// stretch lies between two measurements of the host's speed, and times
// are reported at a reference host's speed (calibrate.go). The run
// prints each metric as "name value unit", then one JSON summary
// line, and exits non-zero if any check fails. With -trace 1 the same
// workload and inputs run again with a span around every call the
// benchmark makes into a layer's public functions; the per-layer
// metrics are printed instead of the end-to-end ones in the JSON line,
// and the spans are written to -trace-out.
//
// The workloads are described in README.md, which also records the
// baseline run sets.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sysscale/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// repo is the repository root, where the golden snapshots live.
	repo string
	// toy shrinks every workload to a smoke-test size: fixed op counts
	// instead of a measuring time, and corpora of a few dozen specs.
	toy bool
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// subPhases is how many stretches the measured phase is cut into, with
// a measurement of the host's speed between each two, so that the
// host's speed is sampled throughout the phase.
const subPhases = 5

// limit says how long a phase runs: until it has run at least ops ops
// and for at least dur.
type limit struct {
	ops int
	dur time.Duration
}

// more reports whether another op may start after done ops and
// elapsed time.
func (l limit) more(done int, elapsed time.Duration) bool {
	return done < l.ops || elapsed < l.dur
}

// toyOps is every phase's length at smoke-test size.
const toyOps = 3

// subLimit is one sub-phase of the measured phase.
func (o *options) subLimit() limit {
	if o.toy {
		return limit{ops: toyOps}
	}
	return limit{dur: time.Duration(o.seconds / subPhases * float64(time.Second))}
}

// traceLimit bounds each traced pass: a quarter of the measuring time,
// enough ops for a stable median without doubling the run.
func (o *options) traceLimit() limit {
	if o.toy {
		return limit{ops: toyOps}
	}
	return limit{dur: time.Duration(o.seconds / 4 * float64(time.Second))}
}

// tailOps is the fewest ops op_p90_ms may be reported from. Toy runs
// are too short for the real guard and only check that it is printed.
func (o *options) tailOps() int {
	if o.toy {
		return toyOps
	}
	return minTailOps
}

// phase is what a measured phase, or one sub-phase of it, produced.
type phase struct {
	// lat is each op's latency in ms, indexed by op id, and rates the
	// phase's throughput samples in jobs/s, one per round: a
	// regeneration, a Monte Carlo op, or a one-second window of a sweep
	// phase. jobs_per_s is their median, so a few seconds of a
	// slowed-down host move it less than they move the phase mean.
	lat, rates []float64
	// failed counts ops that failed: an error, a refused request, a
	// missing Done line, or wrong result bytes; errs describes the
	// first few.
	failed int
	errs   []string
	// wall is the measured wall time; jobs the jobs answered by any
	// engine tier within it; allocs the heap allocations made in it by
	// the whole process.
	wall   time.Duration
	jobs   int
	allocs uint64
	// stats is the engine counters' change over the phase.
	stats engine.Stats
}

// add appends sub-phase s.
func (p *phase) add(s *phase) {
	p.lat = append(p.lat, s.lat...)
	p.rates = append(p.rates, s.rates...)
	p.failed += s.failed
	p.errs = append(p.errs, s.errs[:min(len(s.errs), maxReportedErrors-len(p.errs))]...)
	p.wall += s.wall
	p.jobs += s.jobs
	p.allocs += s.allocs
	p.stats = statsSum(p.stats, s.stats)
}

// traced is what a workload's traced pass produced, beyond its spans.
type traced struct {
	// lat is the traced ops' latencies (ms) by op id, and base the
	// untraced latencies of the same ops on the same path; nil base
	// means the measured phase's.
	lat, base []float64
	// experiments holds per-experiment median call times (ms), for the
	// workloads whose ops are experiment calls.
	experiments []metric
	failures    []string
}

// bench is one benchmark workload.
type bench interface {
	// prepare builds, once and untimed, inputs every setup reuses.
	prepare(ctx context.Context) error
	// setup builds the state the measured phase starts from, replacing
	// the state of any earlier setup.
	setup(ctx context.Context) error
	// measure runs one sub-phase of the measured phase with tracing
	// off. Successive calls continue where the previous one stopped.
	measure(ctx context.Context, lim limit) (*phase, error)
	// check verifies the measured phase's outputs outside every timed
	// region and returns one message per failed check.
	check(ctx context.Context) []string
	// trace runs the same ops again with spans, plus the probes.
	trace(ctx context.Context, tr *tracer, lim limit) (*traced, error)
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-regen", "montecarlo", "sweep-cold", "sweep-hot", "sweep-disk"}

func newWorkload(o *options, tmp string) (bench, error) {
	switch o.workload {
	case "paper-regen":
		return newPaperRegen(o), nil
	case "montecarlo":
		return newMonteCarlo(o), nil
	case "sweep-cold":
		return newSweep(o, tmp, sweepCold), nil
	case "sweep-hot":
		return newSweep(o, tmp, sweepHot), nil
	case "sweep-disk":
		return newSweep(o, tmp, sweepDisk), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if err := benchmark(o, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 18, "length of the measured phase")
	traceOn := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file (default .bench_build/trace-<workload>-<seed>.json)")
	fs.StringVar(&o.repo, "repo", ".", "repository root, for the golden snapshots")
	fs.BoolVar(&o.toy, "toy", false, "smoke-test sizes: 3 ops, tiny corpora")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 || *traceOn < 0 || *traceOn > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments: want -workload name [-seed n] [-seconds s] [-trace 0|1]")
		return nil, errors.New("bad arguments")
	}
	o.trace = *traceOn == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

// benchmark runs one workload and prints its report. An error means
// the run could not complete; failed checks are reported in the
// summary and also returned as an error, so the exit status is
// non-zero either way.
func benchmark(o *options, stdout io.Writer) error {
	ctx := context.Background()
	w := bufio.NewWriter(stdout)
	defer w.Flush()

	tmp, err := os.MkdirTemp("", "sysscale-bench-*")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(tmp)
		settle() // the deletes' writeback belongs to this run, not the next
	}()
	wl, err := newWorkload(o, tmp)
	if err != nil {
		return err
	}
	defer wl.close()

	if err := wl.prepare(ctx); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	settle()

	// The host's speed is measured before and after every timed stretch
	// (calibrate.go).
	cal, err := newCalibrator(o.toy)
	if err != nil {
		return err
	}
	defer cal.close()
	if err := cal.measure(); err != nil {
		return err
	}
	setupTimes := make([]float64, setups)
	for i := range setupTimes {
		t0 := time.Now()
		if err := wl.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes[i] = time.Since(t0).Seconds()
		if err := cal.measure(); err != nil {
			return err
		}
	}
	setupSpeed := cal.speed(0)

	// The measurement after the last set-up opens the measured phase.
	phaseFrom := cal.taken() - 1
	n := subPhases
	if o.toy {
		n = 1
	}
	ph := &phase{}
	for k := 0; k < n || len(ph.lat) < o.tailOps(); k++ {
		lim := o.subLimit()
		if k >= n {
			// A slow host has not yet run the ops op_p90_ms needs.
			lim = limit{ops: o.tailOps() - len(ph.lat)}
		}
		sub, err := wl.measure(ctx, lim)
		if err != nil {
			return fmt.Errorf("measure: %w", err)
		}
		ph.add(sub)
		if err := cal.measure(); err != nil {
			return err
		}
	}
	speed := cal.speed(phaseFrom)
	failures := wl.check(ctx)

	// Times are reported at the reference host's speed; the raw lines
	// give them as measured.
	raw := []metric{{"setup_s", median(sortedCopy(setupTimes)), "s"}}
	e2e := []metric{atSpeed(raw[0], setupSpeed)}
	p50, p90, qerr := opQuantiles(ph.lat, o.tailOps())
	if qerr != nil {
		failures = append(failures, qerr.Error())
	} else {
		raw = append(raw, metric{"op_p50_ms", p50, "ms"}, metric{"op_p90_ms", p90, "ms"})
	}
	if ph.jobs > 0 {
		raw = append(raw, metric{"jobs_per_s", median(sortedCopy(ph.rates)), "jobs/s"})
	} else {
		failures = append(failures, "no jobs answered in the measured phase")
	}
	for i, m := range raw {
		if i > 0 {
			e2e = append(e2e, atSpeed(m, speed))
		}
		raw[i].name = "raw." + m.name
	}
	if ph.jobs > 0 {
		e2e = append(e2e, metric{"allocs_per_job", float64(ph.allocs) / float64(ph.jobs), "allocs"})
	}

	// The traced pass; layers are the per-layer metrics every workload
	// reports, extra the per-experiment ones, printed by the workloads
	// whose ops are experiment calls and left out of the JSON line.
	var layers, extra []metric
	if o.trace {
		tr := newTracer()
		traceFrom := cal.taken()
		if err := cal.measure(); err != nil { // the checks ran since the last measurement
			return err
		}
		tres, err := wl.trace(ctx, tr, o.traceLimit())
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := cal.measure(); err != nil {
			return err
		}
		traceSpeed := cal.speed(traceFrom)
		failures = append(failures, tres.failures...)
		spans := tr.finalize()
		st := spanStats(spans)
		if err := writeTrace(o.traceOut, traceFile{Workload: o.workload, Seed: o.seed, Speed: traceSpeed, Spans: spans, SelfTime: st}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		printSelfTime(w, st)
		lat := atSpeeds(ph.lat, speed)
		tres.lat = atSpeeds(tres.lat, traceSpeed)
		if tres.base == nil {
			tres.base = lat
		} else {
			tres.base = atSpeeds(tres.base, traceSpeed)
		}
		layers = layerMetrics(spans, ph.stats, lat, tres, traceSpeed)
		for _, m := range tres.experiments {
			extra = append(extra, atSpeed(m, traceSpeed))
		}
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	e2e = append(e2e, metric{"peak_rss_mb", rss, "MiB"})

	attempted := len(ph.lat)
	failed := ph.failed + len(failures)
	e2e = append(e2e, metric{"failed_frac", float64(failed) / float64(max(attempted, 1)), "ratio"})
	raw = append(raw, metric{"host_speed", speed, "ratio"}, metric{"host_speed.setup", setupSpeed, "ratio"})
	for _, m := range append(append(e2e, raw...), append(layers, extra...)...) {
		fmt.Fprintf(w, "%s %s %s\n", m.name, formatValue(m.value), m.unit)
	}
	for _, f := range append(ph.errs, failures...) {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}

	// The JSON line carries the end-to-end metrics, or with -trace 1
	// the per-layer ones. failed_frac travels as attempted/failed.
	reported := e2e[:len(e2e)-1]
	if o.trace {
		reported = layers
	}
	values := make(map[string]jsonMetric, len(reported))
	for _, m := range reported {
		values[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	correct := failed == 0
	line, err := json.Marshal(summaryLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: values})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return fmt.Errorf("%d failed ops or checks", failed)
	}
	return nil
}

// atSpeed converts a time, or a rate in jobs/s, measured on a host
// running at speed (calibrate.go) to the reference host's speed.
func atSpeed(m metric, speed float64) metric {
	if m.unit == "jobs/s" {
		m.value /= speed
	} else {
		m.value *= speed
	}
	return m
}

// atSpeeds converts op latencies (ms) measured at speed to the
// reference host's speed.
func atSpeeds(lat []float64, speed float64) []float64 {
	out := make([]float64, len(lat))
	for i, v := range lat {
		out[i] = v * speed
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// formatValue prints a value with every digit it was measured with.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// settle flushes every file system's pending writes (sync(2)) outside
// the timed regions, so that writeback left by sweep-disk's fill or by
// an earlier run does not land in the one being timed.
func settle() { syscall.Sync() }

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// jobsOf counts the jobs an engine answered from any tier.
func jobsOf(s engine.Stats) int { return s.Hits + s.Misses + s.DiskHits }

// statsDelta is after minus before for every engine counter.
func statsDelta(after, before engine.Stats) engine.Stats {
	return engine.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		SpanHits:  after.SpanHits - before.SpanHits, SpanMisses: after.SpanMisses - before.SpanMisses,
		SpanDropped: after.SpanDropped - before.SpanDropped,
		DiskHits:    after.DiskHits - before.DiskHits, DiskMisses: after.DiskMisses - before.DiskMisses,
		DiskErrors: after.DiskErrors - before.DiskErrors,
	}
}

// statsSum adds two counter deltas.
func statsSum(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions,
		SpanHits: a.SpanHits + b.SpanHits, SpanMisses: a.SpanMisses + b.SpanMisses,
		SpanDropped: a.SpanDropped + b.SpanDropped,
		DiskHits:    a.DiskHits + b.DiskHits, DiskMisses: a.DiskMisses + b.DiskMisses,
		DiskErrors: a.DiskErrors + b.DiskErrors,
	}
}

// msSince is the time since t0 in ms.
func msSince(t0 time.Time) float64 { return ms(time.Since(t0)) }

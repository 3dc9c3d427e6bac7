package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sysscale/internal/engine"
	"sysscale/internal/experiments"
	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
	"sysscale/internal/workload/gen"
)

// experiment is one entry of the cmd/experiments default set.
type experiment struct {
	name string
	run  func(ctx context.Context) (fmt.Stringer, error)
}

// multi renders several results of one experiment in sequence, as
// cmd/experiments does.
type multi []fmt.Stringer

func (m multi) String() string {
	var b bytes.Buffer
	for _, x := range m {
		b.WriteString(x.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// paperSet is the default cmd/experiments selection, in paper order:
// the 16 experiments a paper regeneration runs (Monte Carlo is opt-in
// there and is its own workload here). fig6PerPanel 0 is paper scale.
func paperSet(fig6PerPanel int) []experiment {
	return []experiment{
		{"table1", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Table1(), nil }},
		{"table2", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Table2(), nil }},
		{"fig2", func(ctx context.Context) (fmt.Stringer, error) {
			a, err := experiments.Fig2a(ctx)
			if err != nil {
				return nil, err
			}
			b, err := experiments.Fig2b()
			if err != nil {
				return nil, err
			}
			c, err := experiments.Fig2c()
			if err != nil {
				return nil, err
			}
			return multi{a, b, c}, nil
		}},
		{"fig3", func(ctx context.Context) (fmt.Stringer, error) {
			a, err := experiments.Fig3a()
			if err != nil {
				return nil, err
			}
			return multi{a, experiments.Fig3b()}, nil
		}},
		{"fig4", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig4(ctx) }},
		{"fig5", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig5Latency() }},
		{"fig6", func(ctx context.Context) (fmt.Stringer, error) {
			opt := experiments.DefaultFig6Options()
			if fig6PerPanel > 0 {
				opt.PerPanel = fig6PerPanel
			}
			return experiments.Fig6(ctx, opt)
		}},
		{"fig7", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig7(ctx) }},
		{"fig8", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig8(ctx) }},
		{"fig9", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig9(ctx) }},
		{"fig10", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Fig10(ctx) }},
		{"sensitivity", func(ctx context.Context) (fmt.Stringer, error) { return experiments.DRAMSensitivity(ctx) }},
		{"multipoint", func(ctx context.Context) (fmt.Stringer, error) { return experiments.MultiPoint(ctx) }},
		{"cost", func(ctx context.Context) (fmt.Stringer, error) { return experiments.ImplementationCost() }},
		{"ablations", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Ablations(ctx) }},
		{"calibrate", func(ctx context.Context) (fmt.Stringer, error) { return experiments.Calibrate(ctx, 0, 7) }},
	}
}

// closedLoopPolicies are the policy columns of Figs. 7-9 and of the
// Monte Carlo sweep, baseline first.
func closedLoopPolicies() []soc.Policy {
	return []soc.Policy{policy.NewBaseline(), policy.NewSysScaleDefault(), policy.NewMemScaleRedist(), policy.NewCoScaleRedist()}
}

// experimentDuration is the experiment harness's duration rule: at
// least two full loops of the workload's phases, never under 2 s. The
// probe jobs must be the jobs the experiments run, which trace mode
// checks by finding every one of them in the experiment engine's
// cache.
func experimentDuration(cfg *soc.Config) {
	cfg.Duration = max(2*cfg.Workload.TotalDuration(), 2*sim.Second)
}

// fig7Configs are Fig. 7's policy × SPEC sweep cells: the paper-regen
// workload's probe jobs.
func fig7Configs() []soc.Config {
	return engine.NewSweep().Policies(closedLoopPolicies()...).
		Workloads(workload.SPECSuite()...).Configure(experimentDuration).Configs()
}

// fig6PerPanel is the Fig. 6 workloads per panel in a paper-regen op:
// a sixth of paper scale (180), which keeps a regeneration near 130 ms
// on two cores, so an 18 s phase holds the 100 ops op_p90_ms needs.
// Fig. 6 still runs its whole path: synthetic workloads, the sweep and
// the threshold fit.
const fig6PerPanel = 30

// paperRegen is the paper-regen workload. An op is one regeneration of
// the whole default set on a fresh engine, so its result LRU and span
// cache start cold.
type paperRegen struct {
	o    *options
	exps []experiment
	// first is the first measured regeneration's rendering hash; every
	// later one must match it.
	first    [sha256.Size]byte
	regens   int
	failures []string
}

func newPaperRegen(o *options) *paperRegen {
	return &paperRegen{o: o, exps: paperSet(fig6PerPanel)}
}

// regenerate runs every experiment once on a fresh engine. op, when
// non-nil, is called around each experiment call.
func (p *paperRegen) regenerate(ctx context.Context, op func(name string, call func() error) error) ([]fmt.Stringer, error) {
	experiments.SetParallelism(0)
	out := make([]fmt.Stringer, len(p.exps))
	for i, e := range p.exps {
		call := func() error {
			r, err := e.run(ctx)
			out[i] = r
			return err
		}
		var err error
		if op != nil {
			err = op(e.name, call)
		} else {
			err = call()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return out, nil
}

func (p *paperRegen) prepare(ctx context.Context) error { return nil }

// setup runs one regeneration.
func (p *paperRegen) setup(ctx context.Context) error {
	_, err := p.regenerate(ctx, nil)
	return err
}

func (p *paperRegen) measure(ctx context.Context, lim limit) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for lim.more(len(ph.lat), time.Since(start)) {
		a0 := heapAllocs()
		t0 := time.Now()
		res, err := p.regenerate(ctx, nil)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		ph.wall += d
		ph.lat = append(ph.lat, ms(d))
		ph.allocs += heapAllocs() - a0
		st := experiments.Engine().CacheStats() // a fresh engine: its totals are this regeneration's
		ph.stats = statsSum(ph.stats, st)
		ph.jobs += jobsOf(st)
		ph.rates = append(ph.rates, float64(jobsOf(st))/d.Seconds())
		p.record(res) // outside the timed region
	}
	return ph, nil
}

// record checks one measured regeneration: the first against the
// golden snapshots, every one against the first's rendering.
func (p *paperRegen) record(res []fmt.Stringer) {
	h := sha256.New()
	for _, r := range res {
		h.Write([]byte(r.String()))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	p.regens++
	if p.regens > 1 {
		if sum != p.first {
			p.failures = append(p.failures, fmt.Sprintf("paper-regen: regeneration %d renders differently from regeneration 1", p.regens))
		}
		return
	}
	p.first = sum
	byName := make(map[string]fmt.Stringer, len(res))
	for i, e := range p.exps {
		byName[e.name] = res[i]
	}
	for name, v := range map[string]any{
		"fig2a": byName["fig2"].(multi)[0],
		"fig7":  byName["fig7"],
		"fig8":  byName["fig8"],
	} {
		if err := checkGolden(p.o.repo, name, v); err != nil {
			p.failures = append(p.failures, err.Error())
		}
	}
}

func (p *paperRegen) check(ctx context.Context) []string { return p.failures }

// trace regenerates again, one op span per regeneration with a child
// span per experiment call carrying the call's engine counter deltas,
// then probes Fig. 7's jobs.
func (p *paperRegen) trace(ctx context.Context, tr *tracer, lim limit) (*traced, error) {
	res := &traced{}
	names := make(map[string][]float64)
	start := time.Now()
	for i := 0; lim.more(i, time.Since(start)); i++ {
		root := tr.begin("op", 0, i, false)
		_, err := p.regenerate(ctx, func(name string, call func() error) error {
			before := experiments.Engine().CacheStats()
			id := tr.begin("experiments."+name, root, i, false)
			err := call()
			tr.end(id, countersAttrs(statsDelta(experiments.Engine().CacheStats(), before)))
			names[name] = append(names[name], ms(tr.duration(id)))
			return err
		})
		tr.end(root, nil)
		if err != nil {
			return nil, err
		}
		res.lat = append(res.lat, ms(tr.duration(root)))
	}
	for _, e := range p.exps {
		res.experiments = append(res.experiments, metric{"experiments." + e.name + "_ms", median(sortedCopy(names[e.name])), "ms"})
	}

	cfgs := fig7Configs()
	if err := checkCached(ctx, experiments.Engine(), cfgs); err != nil {
		res.failures = append(res.failures, "paper-regen probe jobs: "+err.Error())
	}
	f, err := runProbes(ctx, tr, p.o, len(res.lat)-1, cfgs, true)
	if err != nil {
		return nil, err
	}
	res.failures = append(res.failures, f...)
	return res, nil
}

func (p *paperRegen) close() {}

// countersAttrs turns an engine counter delta into span attributes.
func countersAttrs(d engine.Stats) map[string]float64 {
	return map[string]float64{
		"jobs": float64(jobsOf(d)), "hits": float64(d.Hits), "misses": float64(d.Misses),
		"disk_hits": float64(d.DiskHits), "evictions": float64(d.Evictions),
		"span_hits": float64(d.SpanHits), "span_misses": float64(d.SpanMisses), "span_dropped": float64(d.SpanDropped),
	}
}

// checkCached runs cfgs on eng and reports an error unless every one
// was already cached, which proves they are jobs eng has run.
func checkCached(ctx context.Context, eng *engine.Engine, cfgs []soc.Config) error {
	jobs := make([]engine.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = engine.Job{Config: c}
	}
	before := eng.CacheStats()
	if _, err := eng.RunBatchContext(ctx, jobs); err != nil {
		return err
	}
	if d := statsDelta(eng.CacheStats(), before); d.Misses != 0 {
		return fmt.Errorf("%d of %d jobs were not among the workload's jobs", d.Misses, len(cfgs))
	}
	return nil
}

// checkGolden compares v, rendered the way the golden tests render it,
// with internal/experiments/testdata/golden/<name>.json.
func checkGolden(repo, name string, v any) error {
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join(repo, "internal", "experiments", "testdata", "golden", name+".json"))
	if err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden %s: result differs from the snapshot", name)
	}
	return nil
}

// monteCarlo is the montecarlo workload: op i is one Monte Carlo sweep
// of n generated workloads × 4 policies from generator seed
// mcSeed(seed, i), all on one long-lived engine. n = 25 (100
// simulations per op) keeps an 18 s phase at about 200 ops or more on
// two cores, well above the 100 op_p90_ms needs.
type monteCarlo struct {
	o *options
	n int
	// out holds each measured op's result JSON, for the re-run check.
	out [][]byte
}

func newMonteCarlo(o *options) *monteCarlo {
	n := 25
	if o.toy {
		n = 2
	}
	return &monteCarlo{o: o, n: n}
}

// mcSeed is op i's generator seed. It is never 0, which MonteCarlo
// would replace by 1.
func mcSeed(seed uint64, i int) uint64 { return seed + uint64(i) + 1 }

// warmSeed is the set-up op's seed, outside every measured op's.
func warmSeed(seed uint64) uint64 { return seed + 1<<40 }

func (m *monteCarlo) op(ctx context.Context, seed uint64) (experiments.MonteCarloResult, error) {
	opt := experiments.DefaultMonteCarloOptions()
	opt.N = m.n
	opt.Seed = seed
	return experiments.MonteCarlo(ctx, opt)
}

func (m *monteCarlo) prepare(ctx context.Context) error { return nil }

// setup starts a fresh engine and warms it with one op.
func (m *monteCarlo) setup(ctx context.Context) error {
	experiments.SetParallelism(0)
	_, err := m.op(ctx, warmSeed(m.o.seed))
	return err
}

func (m *monteCarlo) measure(ctx context.Context, lim limit) (*phase, error) {
	ph := &phase{}
	eng := experiments.Engine()
	before := eng.CacheStats()
	start := time.Now()
	for i := 0; lim.more(i, time.Since(start)); i++ {
		s0 := eng.CacheStats()
		a0 := heapAllocs()
		t0 := time.Now()
		r, err := m.op(ctx, mcSeed(m.o.seed, len(m.out)))
		d := time.Since(t0)
		ph.allocs += heapAllocs() - a0
		if err != nil {
			return nil, err
		}
		ph.wall += d
		ph.lat = append(ph.lat, ms(d))
		ph.rates = append(ph.rates, float64(jobsOf(statsDelta(eng.CacheStats(), s0)))/d.Seconds())
		b, err := json.Marshal(r) // outside the timed region
		if err != nil {
			return nil, err
		}
		m.out = append(m.out, b)
	}
	ph.stats = statsDelta(eng.CacheStats(), before)
	ph.jobs = jobsOf(ph.stats)
	return ph, nil
}

// check reproduces the N=25/seed-1 golden and re-runs two sampled ops
// on a fresh sequential engine: their JSON must equal the measured
// ops'.
func (m *monteCarlo) check(ctx context.Context) []string {
	var failures []string
	experiments.SetParallelism(1)
	opt := experiments.DefaultMonteCarloOptions()
	opt.N = 25
	r, err := experiments.MonteCarlo(ctx, opt)
	if err == nil {
		err = checkGolden(m.o.repo, "montecarlo", r)
	}
	if err != nil {
		failures = append(failures, "montecarlo: "+err.Error())
	}
	for _, i := range sampleOps(m.o.seed, len(m.out)) {
		experiments.SetParallelism(1)
		r, err := m.op(ctx, mcSeed(m.o.seed, i))
		var b []byte
		if err == nil {
			b, err = json.Marshal(r)
		}
		if err == nil && !bytes.Equal(b, m.out[i]) {
			err = fmt.Errorf("re-run differs from the measured result")
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("montecarlo op %d: %v", i, err))
		}
	}
	return failures
}

// sampleOps picks two distinct op indices out of n from the seed.
func sampleOps(seed uint64, n int) []int {
	if n < 2 {
		return []int{0}[:n]
	}
	r := sim.NewRNG(seed)
	a := int(r.Uint64() % uint64(n))
	b := (a + 1 + int(r.Uint64()%uint64(n-1))) % n
	return []int{a, b}
}

// mcConfigs are op seed's jobs, built as MonteCarlo builds them.
func (m *monteCarlo) mcConfigs(seed uint64) []soc.Config {
	return engine.NewSweep().Policies(closedLoopPolicies()...).
		Workloads(gen.GenerateN(gen.DefaultConfig(seed), m.n)...).Configure(experimentDuration).Configs()
}

// trace re-runs the first ops from a freshly set-up engine with one
// span per MonteCarlo call, then probes the last traced op's jobs.
func (m *monteCarlo) trace(ctx context.Context, tr *tracer, lim limit) (*traced, error) {
	if err := m.setup(ctx); err != nil {
		return nil, err
	}
	res := &traced{}
	eng := experiments.Engine()
	start := time.Now()
	for i := 0; lim.more(i, time.Since(start)); i++ {
		before := eng.CacheStats()
		id := tr.begin("experiments.montecarlo", 0, i, false)
		_, err := m.op(ctx, mcSeed(m.o.seed, i))
		tr.end(id, countersAttrs(statsDelta(eng.CacheStats(), before)))
		if err != nil {
			return nil, err
		}
		res.lat = append(res.lat, ms(tr.duration(id)))
	}
	res.experiments = []metric{{"experiments.montecarlo_ms", median(sortedCopy(res.lat)), "ms"}}

	last := len(res.lat) - 1
	cfgs := m.mcConfigs(mcSeed(m.o.seed, last))
	if err := checkCached(ctx, eng, cfgs); err != nil {
		res.failures = append(res.failures, "montecarlo probe jobs: "+err.Error())
	}
	f, err := runProbes(ctx, tr, m.o, last, cfgs, true)
	if err != nil {
		return nil, err
	}
	res.failures = append(res.failures, f...)
	return res, nil
}

func (m *monteCarlo) close() {}

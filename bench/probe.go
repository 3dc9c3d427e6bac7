package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"sysscale/internal/diskcache"
	"sysscale/internal/engine"
	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/workload/gen"
)

// policyFamilies are the registry families the workloads run, in the
// order their policy.decide_ns metrics are reported.
var policyFamilies = []string{"baseline", "sysscale", "memscale", "coscale"}

// family names a policy's registry family.
func family(p soc.Policy) string {
	switch p.(type) {
	case *policy.Baseline:
		return "baseline"
	case *policy.SysScale:
		return "sysscale"
	case *policy.MemScale:
		return "memscale"
	case *policy.CoScale:
		return "coscale"
	}
	return p.Name()
}

// timedPolicy delegates every soc.Policy call to the policy it wraps
// and times Decide. A run under it must produce the same Result as a
// run without it; the probe checks that.
type timedPolicy struct {
	soc.Policy
	decide *agg
}

func (p *timedPolicy) Decide(ctx soc.PolicyContext) soc.PolicyDecision {
	t0 := time.Now()
	d := p.Policy.Decide(ctx)
	p.decide.record(t0, time.Since(t0), 1)
	return d
}

func (p *timedPolicy) Clone() soc.Policy {
	return &timedPolicy{Policy: p.Policy.Clone(), decide: p.decide}
}

// Validate forwards soc.PolicyValidator, which the wrapper would
// otherwise hide.
func (p *timedPolicy) Validate() error {
	if v, ok := p.Policy.(soc.PolicyValidator); ok {
		return v.Validate()
	}
	return nil
}

// runProbes times, over cfgs (jobs of the workload's op op), the stages
// the benchmark cannot reach through the request path: the generator,
// the canonical fingerprint, platform assembly and reset, pooled runs
// with and without a span cache, policy Decide, the result codec and
// the disk tier. With specPath it also replays the request path's
// spec decode and line encode over the same jobs, for workloads whose
// ops do not send specs. Every probe span is marked as a probe. It
// returns a message per failed identity check.
func runProbes(ctx context.Context, tr *tracer, o *options, op int, cfgs []soc.Config, specPath bool) ([]string, error) {
	var failures []string
	probe := func(name string, f func(parent int) error) error {
		id := tr.begin("probe."+name, 0, op, true)
		defer tr.end(id, nil)
		return f(id)
	}
	add := func(a *agg, parent int) { a.add(parent, op, true) }

	err := probe("gen", func(parent int) error {
		n := 50
		if o.toy {
			n = 5
		}
		g := tr.agg("gen.generate")
		for k := range 4 {
			g.timeN(n, func() { gen.GenerateN(gen.DefaultConfig(o.seed+uint64(k)), n) })
		}
		add(g, parent)
		return nil
	})
	if err != nil {
		return nil, err
	}

	keys := make([][sha256.Size]byte, len(cfgs))
	err = probe("fingerprint", func(parent int) error {
		fp := tr.agg("spec.fingerprint")
		buf := make([]byte, 0, 4096)
		for i, cfg := range cfgs {
			var ok bool
			fp.time(func() {
				buf, ok = spec.AppendConfig(buf[:0], cfg)
				keys[i] = sha256.Sum256(buf)
			})
			if !ok {
				return fmt.Errorf("job %d has no canonical form", i)
			}
			fp.attr("bytes", float64(len(buf)))
		}
		add(fp, parent)
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("platform", func(parent int) error {
		asm, rst := tr.agg("soc.assembly"), tr.agg("soc.reset")
		var p0 *soc.Platform
		for _, cfg := range cfgs {
			var p *soc.Platform
			var err error
			asm.time(func() { p, err = soc.NewPlatform(cfg) })
			if err != nil {
				return err
			}
			if p0 == nil {
				p0 = p
			}
			rst.time(func() { err = p0.Reset(cfg) })
			if err != nil {
				return err
			}
		}
		add(asm, parent)
		add(rst, parent)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pooled runs, the way engine workers run them: one Runner, the
	// policy cloned per job, a span cache shared across jobs. The first
	// pass fills the cache; soc.run is the warm pass.
	var warm []soc.Result
	err = probe("soc", func(parent int) error {
		cache := soc.NewSpanCache(0)
		r := soc.NewRunner()
		r.SetSpanCache(cache)
		pass := func(name string, wrap func(soc.Policy) soc.Policy) ([]soc.Result, *agg, error) {
			a := tr.agg(name)
			out := make([]soc.Result, len(cfgs))
			for i, cfg := range cfgs {
				cfg.Policy = cfg.Policy.Clone()
				if wrap != nil {
					cfg.Policy = wrap(cfg.Policy)
				}
				var err error
				a.time(func() { out[i], err = r.Run(cfg) })
				if err != nil {
					return nil, nil, fmt.Errorf("%s job %d: %w", name, i, err)
				}
			}
			return out, a, nil
		}
		cold, a, err := pass("soc.run_cold", nil)
		if err != nil {
			return err
		}
		add(a, parent)

		before := cache.Stats()
		res, a, err := pass("soc.run", nil)
		if err != nil {
			return err
		}
		after := cache.Stats()
		a.attr("span_hits", float64(after.Hits-before.Hits))
		a.attr("span_misses", float64(after.Misses-before.Misses))
		add(a, parent)
		warm = res

		decide := make(map[string]*agg)
		timed, a, err := pass("soc.run_timed_policy", func(p soc.Policy) soc.Policy {
			f := family(p)
			if decide[f] == nil {
				decide[f] = tr.agg("policy.decide." + f)
			}
			return &timedPolicy{Policy: p, decide: decide[f]}
		})
		if err != nil {
			return err
		}
		add(a, parent)
		for _, d := range decide {
			add(d, parent)
		}

		r.SetSpanCache(nil)
		nospan, a, err := pass("soc.run_nospan", nil)
		if err != nil {
			return err
		}
		add(a, parent)

		for name, got := range map[string][]soc.Result{"cold span cache": cold, "timed policy": timed, "no span cache": nospan} {
			if !reflect.DeepEqual(got, warm) {
				failures = append(failures, fmt.Sprintf("probe: runs with a %s differ from warm runs", name))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("codec", func(parent int) error {
		enc, dec := tr.agg("soc.codec_encode"), tr.agg("soc.codec_decode")
		buf := make([]byte, 0, 2048)
		for i, res := range warm {
			enc.time(func() { buf = soc.AppendResult(buf[:0], res) })
			var got soc.Result
			var err error
			dec.time(func() { got, err = soc.DecodeResult(buf) })
			if err != nil || !reflect.DeepEqual(got, res) {
				failures = append(failures, fmt.Sprintf("probe: job %d does not survive the result codec (%v)", i, err))
			}
		}
		add(enc, parent)
		add(dec, parent)
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("diskcache", func(parent int) error {
		dir, err := os.MkdirTemp("", "probe-disk-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := diskcache.Open(dir)
		if err != nil {
			return err
		}
		put, get := tr.agg("diskcache.put"), tr.agg("diskcache.get")
		for i := range warm {
			put.time(func() { err = store.Put(keys[i], warm[i]) })
			if err != nil {
				return err
			}
		}
		for i := range warm {
			var got soc.Result
			var found bool
			get.time(func() { got, found, err = store.Get(keys[i]) })
			if err != nil || !found || !reflect.DeepEqual(got, warm[i]) {
				failures = append(failures, fmt.Sprintf("probe: job %d does not survive the disk tier (found %v, %v)", i, found, err))
			}
		}
		add(put, parent)
		add(get, parent)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if specPath {
		const perBody = 20
		for first := 0; first < len(cfgs); first += perBody {
			chunk := cfgs[first:min(first+perBody, len(cfgs))]
			specs := make([]spec.Job, len(chunk))
			for i, cfg := range chunk {
				if specs[i], err = spec.Encode(cfg); err != nil {
					return nil, err
				}
			}
			body, err := json.Marshal(specs)
			if err != nil {
				return nil, err
			}
			if _, err := requestPath(ctx, tr, op, true, body, nil, warm[first:first+len(chunk)]); err != nil {
				return nil, err
			}
		}
	}
	return failures, nil
}

// layerMetrics derives the per-layer metrics from the finalized spans,
// the measured phase's engine counters st and op latencies lat, and
// the traced pass. lat and the traced pass's latencies are at the
// reference host's speed; span times are converted to it with speed,
// the host speed during the traced pass (calibrate.go).
func layerMetrics(spans []span, st engine.Stats, lat []float64, tres *traced, speed float64) []metric {
	per := func(name string, unit time.Duration) float64 {
		d, _ := perCall(spans, name)
		return float64(d) / float64(unit) * speed
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ops := len(lat)

	// Engine calls are the op-path spans that carry a job count: the
	// replay's engine.run_batch, or an experiment call.
	var engBusy time.Duration
	var engJobs float64
	for _, s := range spans {
		if j, ok := s.Attrs["jobs"]; ok && !s.Probe {
			engBusy += s.duration()
			engJobs += j
		}
	}
	engineRun := 0.0
	if engJobs > 0 {
		engineRun = us(engBusy) / engJobs * speed
	}

	// The span cache's hit ratio on the op path; on workloads that
	// simulate nothing, the probe's warm pass over the same jobs.
	spanHit := ratio(st.SpanHits, st.SpanHits+st.SpanMisses)
	if st.SpanHits+st.SpanMisses == 0 {
		h := attrPerCall(spans, "soc.run", "span_hits")
		m := attrPerCall(spans, "soc.run", "span_misses")
		if h+m > 0 {
			spanHit = h / (h + m)
		}
	}

	out := []metric{
		{"spec.read_jobs_us", per("spec.read_jobs", time.Microsecond), "us"},
		{"spec.from_spec_us", per("engine.from_spec", time.Microsecond), "us"},
		{"spec.fingerprint_us", per("spec.fingerprint", time.Microsecond), "us"},
		{"spec.canonical_bytes", attrPerCall(spans, "spec.fingerprint", "bytes"), "bytes"},
		{"engine.run_us", engineRun, "us"},
		{"engine.hit_ratio", ratio(st.Hits, jobsOf(st)), "ratio"},
		{"engine.sims_per_op", ratio(st.Misses, ops), "count"},
		{"engine.evictions_per_op", ratio(st.Evictions, ops), "count"},
		{"diskcache.get_us", per("diskcache.get", time.Microsecond), "us"},
		{"diskcache.put_us", per("diskcache.put", time.Microsecond), "us"},
		{"diskcache.hit_ratio", ratio(st.DiskHits, jobsOf(st)), "ratio"},
		{"soc.codec_encode_ns", per("soc.codec_encode", time.Nanosecond), "ns"},
		{"soc.codec_decode_ns", per("soc.codec_decode", time.Nanosecond), "ns"},
		{"soc.run_us", per("soc.run", time.Microsecond), "us"},
		{"soc.run_nospan_us", per("soc.run_nospan", time.Microsecond), "us"},
		{"soc.span_hit_ratio", spanHit, "ratio"},
		{"soc.span_dropped_per_op", ratio(st.SpanDropped, ops), "count"},
		{"soc.reset_us", per("soc.reset", time.Microsecond), "us"},
		{"soc.assembly_us", per("soc.assembly", time.Microsecond), "us"},
	}
	decides := 0
	for _, f := range policyFamilies {
		_, n := perCall(spans, "policy.decide."+f)
		decides += n
		out = append(out, metric{"policy.decide_ns." + f, per("policy.decide."+f, time.Nanosecond), "ns"})
	}
	_, probeJobs := perCall(spans, "soc.run_timed_policy")
	out = append(out, metric{"policy.decides_per_job", ratio(decides, probeJobs), "count"})

	// Op p50s compare the same ops: the prefix both passes ran.
	p50 := func(lat []float64, n int) float64 { return nearestRank(sortedCopy(lat[:n]), 50) }
	k := min(len(tres.lat), len(lat))
	kb := min(len(tres.lat), len(tres.base))
	traced := p50(tres.lat, kb)
	out = append(out,
		metric{"sweepd.encode_us", per("sweepd.encode_line", time.Microsecond), "us"},
		metric{"sweepd.line_bytes", attrPerCall(spans, "sweepd.encode_line", "bytes"), "bytes"},
		metric{"sweepd.transport_ms", p50(lat, k) - p50(tres.lat, k), "ms"},
		metric{"gen.generate_us", per("gen.generate", time.Microsecond), "us"},
		metric{"trace.overhead_pct", 100 * (traced - p50(tres.base, kb)) / p50(tres.base, kb), "%"},
	)
	return out
}

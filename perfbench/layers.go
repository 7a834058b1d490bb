package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmt/internal/asm"
	"mmt/internal/core"
	"mmt/internal/obs/span"
	"mmt/internal/power"
	"mmt/internal/runner"
	"mmt/internal/sim"
)

// tracer keeps the traced run's spans and counts in memory. Spans are
// recorded by the benchmark around its calls into each layer's public
// functions and handlers; spans of one job share its trace id. A nil
// tracer records nothing.
type tracer struct {
	inject inject

	// paused stops recording while a workload sets up, so set-up traffic
	// does not mix with the timed phase.
	paused atomic.Bool

	mu    sync.Mutex
	spans []spanRec
	sums  map[string]float64
}

// spanRec is one recorded span.
type spanRec struct {
	name, trace string
	dur         time.Duration
}

func newTracer(in inject) *tracer {
	return &tracer{inject: in, sums: map[string]float64{}}
}

// pause stops (p true) or restarts recording.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// span records a span that started at start and ends now.
func (t *tracer) span(name, trace string, start time.Time) {
	if t == nil || t.paused.Load() {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, trace: trace, dur: d})
	t.mu.Unlock()
}

// add accumulates a count.
func (t *tracer) add(name string, v float64) {
	if t == nil || t.paused.Load() {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[name]
}

// durs returns the durations of every span with the given name, in ns.
func (t *tracer) durs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, float64(s.dur))
		}
	}
	return ds
}

// total sums the durations of every span with the given name, in ns.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durs(name) {
		sum += d
	}
	return sum
}

// phaseHook is the Task.Phase observer of a traced eval sweep scheduled at
// scheduled: it records the queue wait up to the build phase and a span
// per phase.
func (t *tracer) phaseHook(scheduled time.Time) func(string) func() {
	return func(name string) func() {
		start := time.Now()
		if name == "build" {
			t.span("runner.queue_wait", "", scheduled)
			start = time.Now()
			if t.inject.build > 0 {
				time.Sleep(t.inject.build)
			}
		}
		return func() { t.span("sim."+name, "", start) }
	}
}

// handler wraps h in a span named by route: requests of the /v1 job API
// are charged to prefix+".submit" (POST /v1/jobs) or prefix+".wait" (job
// status and stream GETs), anything else to prefix+".other". delay is
// added inside submit spans.
func (t *tracer) handler(prefix string, h http.Handler, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		name := prefix + ".other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			name = prefix + ".submit"
			if delay > 0 {
				time.Sleep(delay)
			}
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			name = prefix + ".wait"
		}
		h.ServeHTTP(w, r)
		t.span(name, span.Extract(r.Header).TraceID, start)
	})
}

// wrap records every request to h as one span named name.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.span(name, span.Extract(r.Header).TraceID, start)
	})
}

// timedRemote wraps the RemoteCache a node's pool is given.
type timedRemote struct {
	rc runner.RemoteCache
	tr *tracer
}

func (r timedRemote) Load(ctx context.Context, key string) ([]byte, bool, error) {
	start := time.Now()
	if d := r.tr.inject.remoteLoad; d > 0 {
		time.Sleep(d)
	}
	raw, ok, err := r.rc.Load(ctx, key)
	r.tr.span("runner.remote_load", "", start)
	return raw, ok, err
}

func (r timedRemote) Store(ctx context.Context, key string, raw []byte) error {
	start := time.Now()
	err := r.rc.Store(ctx, key, raw)
	r.tr.span("runner.remote_store", "", start)
	return err
}

// serialPass calls each layer's public functions directly, one task at a
// time, on the distinct simulations the workload delivered: the assembler,
// the functional model, core construction and its cycle loop (with
// allocation deltas), the power model, task keying and the outcome codec.
func serialPass(tr *tracer, ph *phase) error {
	for _, t := range ph.tasks {
		if t.Attribution {
			continue // the same simulation as its plain twin
		}
		if err := serialTask(tr, t); err != nil {
			return fmt.Errorf("serial pass: %s: %w", t.Name(), err)
		}
	}
	for _, out := range ph.outcomes {
		if out == nil {
			continue
		}
		for i := 0; i < 5; i++ {
			start := time.Now()
			raw, err := sim.MarshalOutcome(out)
			tr.span("sim.marshal", "", start)
			if err != nil {
				return err
			}
			start = time.Now()
			_, err = sim.UnmarshalOutcome(raw)
			tr.span("sim.unmarshal", "", start)
			if err != nil {
				return err
			}
			tr.add("sim.outcome_bytes", float64(len(raw)))
			tr.add("sim.outcomes", 1)
		}
	}
	return nil
}

func serialTask(tr *tracer, t sim.Task) error {
	start := time.Now()
	if _, err := asm.Assemble(t.App.Name, t.App.Source); err != nil {
		return err
	}
	tr.span("asm.assemble", "", start)
	start = time.Now()
	if _, err := t.Key(); err != nil {
		return err
	}
	tr.span("sim.key", "", start)
	cfg, err := t.ResolvedConfig()
	if err != nil {
		return err
	}
	ident := t.Preset.IdenticalInputs()

	fsys, err := t.App.Build(t.Threads, ident)
	if err != nil {
		return err
	}
	limit := uint64(math.MaxUint64)
	if cfg.MaxInsts > 0 {
		limit = cfg.MaxInsts
	}
	start = time.Now()
	err = fsys.RunFunctional(limit)
	tr.add("prog.step.ns", float64(time.Since(start)))
	if err != nil && cfg.MaxInsts == 0 {
		return err // a bounded task stops the oracle at its bound
	}
	for _, c := range fsys.Contexts {
		tr.add("prog.step.insts", float64(c.DynCount))
	}

	start = time.Now()
	sys, err := t.App.Build(t.Threads, ident)
	if err != nil {
		return err
	}
	tr.span("serial.build", "", start)
	start = time.Now()
	c, err := core.New(cfg, sys)
	if err != nil {
		return err
	}
	tr.span("core.new", "", start)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	st, err := c.Run()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	tr.add("serial.run.ns", float64(d))
	tr.add("serial.run.insts", float64(st.TotalCommitted()))
	tr.add("serial.run.cycles", float64(st.Cycles))
	tr.add("serial.run.allocs", float64(m1.Mallocs-m0.Mallocs))
	tr.add("serial.run.bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	tr.add("cache.l1d_misses", float64(c.Mem().L1D().Misses))

	model := power.NewModel()
	start = time.Now()
	model.Energy(st, c.MemEvents())
	model.EnergyPerJob(st, c.MemEvents())
	tr.span("power.energy", "", start)
	return nil
}

// routerSelf returns, per job trace, the router's span time minus the
// node spans it caused, in ns.
func (t *tracer) routerSelf() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	router, node := map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		if s.trace == "" {
			continue
		}
		switch s.name {
		case "cluster.router.submit", "cluster.router.wait":
			router[s.trace] += float64(s.dur)
		case "serve.submit", "serve.wait":
			node[s.trace] += float64(s.dur)
		}
	}
	var self []float64
	for id, d := range router {
		self = append(self, d-node[id])
	}
	return self
}

// perLayer is one per-layer metric: its unit and how it is derived from a
// traced run.
type perLayer struct {
	name, unit string
	value      func(tr *tracer, ph *phase) float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf returns the median duration of the named spans scaled by div
// (1e3 for µs, 1e6 for ms).
func medianOf(name string, div float64) func(*tracer, *phase) float64 {
	return func(tr *tracer, _ *phase) float64 { return median(tr.durs(name)) / div }
}

// statsRatio sums a statistic over the delivered outcomes and divides it
// by another, times scale.
func statsRatio(num, den func(*core.Stats) uint64, scale float64) func(*tracer, *phase) float64 {
	return func(_ *tracer, ph *phase) float64 {
		var n, d uint64
		for _, o := range ph.outcomes {
			if o == nil || o.Result == nil {
				continue
			}
			n += num(o.Result.Stats)
			d += den(o.Result.Stats)
		}
		return ratio(float64(n), float64(d)) * scale
	}
}

func retainedKBPerJob(ph *phase) float64 {
	return ratio(ph.retainedBytes/1024, float64(ph.jobs.done))
}

func committed(s *core.Stats) uint64 { return s.TotalCommitted() }

// runSpans returns the cycle-loop time and its committed instructions and
// cycles: from the Phase("run") spans where the workload's tasks ran with
// the benchmark's phase hook (eval), else from the serial pass.
func runSpans(tr *tracer) (ns, insts, cycles float64) {
	if d := tr.total("sim.run"); d > 0 {
		return d, tr.sum("core.run.insts"), tr.sum("core.run.cycles")
	}
	return tr.sum("serial.run.ns"), tr.sum("serial.run.insts"), tr.sum("serial.run.cycles")
}

// layerMetrics lists every per-layer metric. A metric whose layer the
// workload does not reach reads 0.
var layerMetrics = []perLayer{
	{"asm.assemble_us", "us", medianOf("asm.assemble", 1e3)},
	{"workloads.build_us", "us", func(tr *tracer, ph *phase) float64 {
		if ds := tr.durs("sim.build"); len(ds) > 0 {
			return median(ds) / 1e3
		}
		return median(tr.durs("serial.build")) / 1e3
	}},
	{"prog.step_ns", "ns", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.sum("prog.step.ns"), tr.sum("prog.step.insts"))
	}},
	{"core.new_us", "us", medianOf("core.new", 1e3)},
	{"core.run_ns_per_inst", "ns", func(tr *tracer, _ *phase) float64 {
		ns, insts, _ := runSpans(tr)
		return ratio(ns, insts)
	}},
	{"core.run_ns_per_cycle", "ns", func(tr *tracer, _ *phase) float64 {
		ns, _, cycles := runSpans(tr)
		return ratio(ns, cycles)
	}},
	{"core.allocs_per_cycle", "allocs/cycle", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.sum("serial.run.allocs"), tr.sum("serial.run.cycles"))
	}},
	{"core.bytes_per_inst", "B/inst", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.sum("serial.run.bytes"), tr.sum("serial.run.insts"))
	}},
	{"core.ipc", "insts/cycle", statsRatio(committed, func(s *core.Stats) uint64 { return s.Cycles }, 1)},
	{"core.fetch_accesses_per_inst", "1/inst", statsRatio(func(s *core.Stats) uint64 { return s.FetchAccesses }, committed, 1)},
	{"core.merged_share", "fraction", statsRatio(func(s *core.Stats) uint64 { return s.ExecIdentical }, committed, 1)},
	{"core.divergences_per_kinst", "1/kinst", statsRatio(func(s *core.Stats) uint64 { return s.Divergences }, committed, 1e3)},
	{"branch.mispredicts_per_kinst", "1/kinst", statsRatio(func(s *core.Stats) uint64 { return s.Mispredicts }, committed, 1e3)},
	{"tracecache.hits_per_fetch", "1/fetch", statsRatio(func(s *core.Stats) uint64 { return s.TraceCacheHits },
		func(s *core.Stats) uint64 { return s.FetchAccesses }, 1)},
	{"cache.l1d_misses_per_kinst", "1/kinst", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.sum("cache.l1d_misses"), tr.sum("serial.run.insts")) * 1e3
	}},
	{"power.energy_us", "us", medianOf("power.energy", 1e3)},
	{"sim.key_us", "us", medianOf("sim.key", 1e3)},
	{"sim.marshal_us", "us", medianOf("sim.marshal", 1e3)},
	{"sim.unmarshal_us", "us", medianOf("sim.unmarshal", 1e3)},
	{"sim.outcome_kb", "KB", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.sum("sim.outcome_bytes"), tr.sum("sim.outcomes")) / 1024
	}},
	{"runner.queue_wait_ms", "ms", medianOf("runner.queue_wait", 1e6)},
	{"runner.busy_share", "fraction", func(tr *tracer, _ *phase) float64 {
		return ratio(tr.total("sim.build")+tr.total("sim.run"), tr.sum("runner.capacity_ns"))
	}},
	{"runner.remote_load_us", "us", medianOf("runner.remote_load", 1e3)},
	{"runner.remote_store_us", "us", medianOf("runner.remote_store", 1e3)},
	{"cluster.cachesvc_us", "us", medianOf("cluster.cachesvc", 1e3)},
	{"serve.submit_ms", "ms", medianOf("serve.submit", 1e6)},
	{"serve.wait_ms", "ms", medianOf("serve.wait", 1e6)},
	{"serve.rejected_ratio", "fraction", func(_ *tracer, ph *phase) float64 {
		return ratio(float64(ph.jobs.rejected), float64(ph.jobs.submitted+ph.jobs.rejected))
	}},
	{"serve.dedup_share", "fraction", func(_ *tracer, ph *phase) float64 {
		return ratio(float64(ph.jobs.dedup), float64(ph.jobs.done))
	}},
	{"serve.source_share.simulated", "fraction", func(_ *tracer, ph *phase) float64 {
		return ratio(float64(ph.jobs.simulated), float64(ph.jobs.done))
	}},
	{"serve.source_share.cache", "fraction", func(_ *tracer, ph *phase) float64 {
		return ratio(float64(ph.jobs.cache), float64(ph.jobs.done))
	}},
	{"serve.retained_kb_per_job", "KB/job", func(_ *tracer, ph *phase) float64 { return retainedKBPerJob(ph) }},
	{"cluster.router_self_ms", "ms", func(tr *tracer, _ *phase) float64 { return median(tr.routerSelf()) / 1e6 }},
	{"client.decode_us", "us", medianOf("client.decode", 1e3)},
}

// traceOnce runs the workload traced, then the serial layer pass, and
// derives every per-layer metric but the tracing overhead.
func traceOnce(ctx context.Context, o options) (map[string]metric, *phase, *tracer, error) {
	tr := newTracer(o.inject)
	ph, err := workloadFuncs[o.workload](ctx, o, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := serialPass(tr, ph); err != nil {
		return nil, nil, nil, err
	}
	m := map[string]metric{}
	for _, l := range layerMetrics {
		m[l.name] = metric{l.value(tr, ph), l.unit}
	}
	return m, ph, tr, nil
}

// tracedRun runs the workload untraced and then traced, in one process,
// and reports the per-layer metrics with the tracing overhead: how much
// lower the traced run's job rate is than the untraced one's.
func tracedRun(ctx context.Context, o options) (*result, error) {
	o.setupReps, o.setupBudget = 1, 0 // set-up time is an end-to-end metric
	base, err := workloadFuncs[o.workload](ctx, o, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m, ph, tr, err := traceOnce(ctx, o)
	if err != nil {
		return nil, err
	}
	untraced, traced := endToEnd(base)["jobs_per_s"].Value, endToEnd(ph)["jobs_per_s"].Value
	m["trace.overhead_ratio"] = metric{ratio(untraced-traced, untraced), "fraction"}
	// Retention is taken from the untraced pass: the traced pass's heap
	// also holds the benchmark's own spans.
	m["serve.retained_kb_per_job"] = metric{retainedKBPerJob(base), "KB/job"}
	res := &result{
		Correct:   base.failed+ph.failed == 0,
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   m,
	}
	res.summary = map[string]float64{
		"failed_ratio": ratio(float64(res.Failed), float64(res.Attempted)),
		"spans":        float64(len(tr.spans)),
	}
	if execs := tr.sum("node.execs"); execs > 0 {
		// How a served job's time splits between simulating it (the nodes'
		// runner execution: build, core.New, the cycle loop) and serving
		// it (everything else the client waits for), per completed job.
		var lat float64
		for _, l := range ph.latMS {
			if l != failedLatencyMS {
				lat += l
			}
		}
		jobs := float64(ph.jobs.done)
		simMS := ratio(tr.sum("node.exec_ns")/1e6, jobs)
		res.summary["sim_ms_per_job"] = simMS
		res.summary["serving_ms_per_job"] = ratio(lat, jobs) - simMS
	}
	return res, nil
}

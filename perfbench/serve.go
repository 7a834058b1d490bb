package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// fleetNodes is the number of serve.Server nodes behind the router; each
// has one runner worker.
const fleetNodes = 2

// daemon is what cmd/mmtserved, cmd/mmtrouter and cmd/mmtcached give each
// process: a metrics registry, a span tracer and a flight recorder at their
// default capacities, with finished spans and log lines landing in the
// flight ring. The continuous profiler is off: its CPU window once a minute
// would fall inside some runs and not others. Log lines are formatted as
// the daemons format them and then discarded.
type daemon struct {
	reg    *obs.Registry
	spans  *span.Tracer
	flight *flight.Recorder
	log    *slog.Logger
}

func newDaemon(kind, addr string) daemon {
	service := kind + "@" + addr
	d := daemon{
		reg:    obs.NewRegistry(),
		spans:  span.NewTracer(service, span.DefaultCapacity),
		flight: flight.New(service, flight.DefaultCapacity),
	}
	d.flight.Mark("process start: " + service)
	fl := d.flight
	d.spans.SetObserver(func(r span.Record) { fl.SpanRef(r.Name, r.TraceID, r.StartUNS, r.DurNS) })
	text := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})
	d.log = slog.New(flight.NewLogHandler(text, fl)).With("service", kind)
	return d
}

// fleet is a router in front of two job-server nodes on loopback, plus a
// remote result cache for the cold workload, all in this process.
type fleet struct {
	routerURL string
	nodeURLs  []string
	// client is the HTTP client of the benchmark's callers. Every fleet
	// process gets its own transport, as separate processes would.
	client     *http.Client
	nodes      []*serve.Server
	router     *cluster.Router
	servers    []*http.Server
	transports []*http.Transport
	dir        string
}

func (f *fleet) newClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	f.transports = append(f.transports, t)
	return &http.Client{Transport: t}
}

// serve starts an HTTP server for h on ln and returns its base URL.
func (f *fleet) serve(ln net.Listener, h http.Handler) string {
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return "http://" + ln.Addr().String()
}

// bootFleet starts the fleet. With cold, each node gets its own cache
// directory under a fresh temporary directory and the cache server as its
// remote tier. With a tracer, the benchmark wraps each node's and the
// router's handler, the cache server's handler and each node's RemoteCache.
func bootFleet(cold bool, tr *tracer) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.client = f.newClient()
	var cacheURL string
	if cold {
		if f.dir, err = os.MkdirTemp("", "perfbench-"); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d := newDaemon("mmtcached", ln.Addr().String())
		cs, err := cluster.NewCacheServer(cluster.CacheServerOptions{
			Dir: filepath.Join(f.dir, "cached"), Metrics: d.reg, Tracer: d.spans, Flight: d.flight, Log: d.log,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		var h http.Handler = cs
		if tr != nil {
			h = tr.wrap("cluster.cachesvc", cs)
		}
		cacheURL = f.serve(ln, h)
	}
	for i := 0; i < fleetNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d := newDaemon("mmtserved", ln.Addr().String())
		opts := serve.Options{
			Runner:  runner.Options{Workers: 1, Trace: d.flight},
			Metrics: d.reg, Tracer: d.spans, Flight: d.flight, Log: d.log,
		}
		if tr != nil {
			opts.Runner.OnComplete = func(c runner.Completion) {
				if c.Dur > 0 {
					tr.add("node.exec_ns", float64(c.Dur))
					tr.add("node.execs", 1)
				}
			}
		}
		if cold {
			opts.Runner.CacheDir = filepath.Join(f.dir, fmt.Sprintf("node%d", i))
			var rc runner.RemoteCache = cluster.NewCacheClient(cacheURL, f.newClient())
			if tr != nil {
				rc = timedRemote{rc: rc, tr: tr}
			}
			opts.Runner.RemoteCache = rc
		}
		srv, err := serve.New(context.Background(), opts)
		if err != nil {
			ln.Close()
			return nil, err
		}
		f.nodes = append(f.nodes, srv)
		var h http.Handler = srv
		if tr != nil {
			h = tr.handler("serve", srv, tr.inject.node)
		}
		f.nodeURLs = append(f.nodeURLs, f.serve(ln, h))
	}
	nodes, err := cluster.ParseNodes(strings.Join(f.nodeURLs, ","))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := newDaemon("mmtrouter", ln.Addr().String())
	f.router, err = cluster.NewRouter(cluster.RouterOptions{
		Nodes: nodes, HTTPClient: f.newClient(),
		Metrics: d.reg, Tracer: d.spans, Flight: d.flight, Log: d.log,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	var h http.Handler = f.router
	if tr != nil {
		h = tr.handler("cluster.router", f.router, 0)
	}
	f.routerURL = f.serve(ln, h)
	return f, nil
}

// close stops every server, node and prober of the fleet and removes its
// directory.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	// The router's job proxies use the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// nodeStats sums the nodes' submitted and rejected counters.
func (f *fleet) nodeStats(ctx context.Context) (submitted, rejected uint64, err error) {
	for _, u := range f.nodeURLs {
		st, err := client.New(u, f.client).Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		submitted += st.Submitted
		rejected += st.Rejected
	}
	return submitted, rejected, nil
}

// submission is one job a closed-loop client sends.
type submission struct {
	spec sim.TaskSpec
	key  string // expected task key, "" when not known in advance
}

// loop drives closed-loop clients against the router: each client sends
// its next job only when the previous one has completed.
type loop struct {
	f       *fleet
	tr      *tracer
	clients int
	// next returns client c's next job; false ends that client early.
	next func(c int) (submission, bool)
	// limit, when positive, ends the run after that many submissions.
	limit int
	// done checks a completed job (err is the job's own error) and
	// returns the check's verdict.
	done  func(c int, s submission, out *sim.Outcome, st serve.JobStatus, err error) error
	fails *failures
}

// jobTimeout fails a job that hangs; jobs take milliseconds.
const jobTimeout = 30 * time.Second

// failedLatencyMS is the latency recorded for a failed job: it misses
// any limit.
const failedLatencyMS = math.MaxFloat64

// run drives the clients until deadline and adds what they measured to ph.
func (l *loop) run(ctx context.Context, deadline time.Time, ph *phase) {
	type tally struct {
		lat       []float64
		insts     uint64
		jobs      jobCounts
		attempted int
	}
	tallies := make([]tally, l.clients)
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			cl := client.New(l.f.routerURL, l.f.client)
			for time.Now().Before(deadline) {
				if l.limit > 0 && issued.Add(1) > int64(l.limit) {
					return
				}
				s, ok := l.next(c)
				if !ok {
					return
				}
				jctx, trace := ctx, ""
				if l.tr != nil {
					trace = span.NewTraceID()
					jctx = span.ContextWith(ctx, span.SpanContext{TraceID: trace, SpanID: trace[:16]})
				}
				jctx, cancel := context.WithTimeout(jctx, jobTimeout)
				t0 := time.Now()
				out, st, err := cl.Run(jctx, serve.SubmitRequest{Task: s.spec})
				lat := float64(time.Since(t0)) / 1e6
				cancel()
				t.attempted++
				if err := l.done(c, s, out, st, err); err != nil {
					l.fails.add("%s: %v", s.spec.Name(), err)
					t.lat = append(t.lat, failedLatencyMS)
					continue
				}
				t.lat = append(t.lat, lat)
				t.insts += out.Result.Stats.TotalCommitted()
				t.jobs.done++
				if st.Dedup {
					t.jobs.dedup++
				}
				switch st.Source {
				case "simulated":
					t.jobs.simulated++
				case "cache":
					t.jobs.cache++
				}
				if l.tr != nil {
					t0 = time.Now()
					st.DecodeOutcome() //nolint:errcheck // Run already decoded it once
					l.tr.span("client.decode", trace, t0)
				}
			}
		}(c)
	}
	wg.Wait()
	sw := sweep{wall: time.Since(start)}
	for _, t := range tallies {
		ph.latMS = append(ph.latMS, t.lat...)
		ph.attempted += t.attempted
		sw.insts += t.insts
		sw.jobs += t.jobs.done
		ph.jobs.done += t.jobs.done
		ph.jobs.dedup += t.jobs.dedup
		ph.jobs.simulated += t.jobs.simulated
		ph.jobs.cache += t.jobs.cache
	}
	ph.sweeps = append(ph.sweeps, sw)
}

// timedServe runs the loop's clients on a booted fleet until deadline:
// it settles the heap, samples it while the clients run, and adds the
// nodes' admission counters and the heap the jobs left behind to ph.
func timedServe(ctx context.Context, l *loop, deadline time.Time, ph *phase) error {
	sub0, rej0, err := l.f.nodeStats(ctx)
	if err != nil {
		return err
	}
	heap0 := heapAfterGC()
	hw := watchHeap()
	l.run(ctx, deadline, ph)
	ph.peakHeap = max(ph.peakHeap, hw.Stop())
	sub1, rej1, err := l.f.nodeStats(ctx)
	if err != nil {
		return err
	}
	ph.jobs.submitted += sub1 - sub0
	ph.jobs.rejected += rej1 - rej0
	ph.retainedBytes += float64(heapAfterGC()) - float64(heap0)
	ph.failed = l.fails.n
	return nil
}

// hitsSetup is a booted fleet that has simulated every serve-hits key once.
type hitsSetup struct {
	f     *fleet
	ref   reference
	subs  []submission
	tasks []sim.Task
	outs  []*sim.Outcome
}

func setupHits(ctx context.Context, o options, tr *tracer) (hitsSetup, error) {
	ref, err := loadReference()
	if err != nil {
		return hitsSetup{}, err
	}
	s := hitsSetup{ref: ref}
	for _, spec := range hitSpecs(o.apps) {
		t, err := spec.Task()
		if err != nil {
			return hitsSetup{}, err
		}
		key, err := t.Key()
		if err != nil {
			return hitsSetup{}, err
		}
		s.subs = append(s.subs, submission{spec: spec, key: key})
		s.tasks = append(s.tasks, t)
	}
	if s.f, err = bootFleet(false, tr); err != nil {
		return hitsSetup{}, err
	}
	s.outs = make([]*sim.Outcome, len(s.subs))
	err = warmUp(ctx, o, s.f, tr, s.subs, func(i int, out *sim.Outcome, st serve.JobStatus) error {
		if err := s.ref.check(s.subs[i].key, st.Outcome); err != nil {
			return err
		}
		s.outs[i] = out
		return nil
	})
	if err != nil {
		s.f.close()
		return hitsSetup{}, fmt.Errorf("serve-hits %w", err)
	}
	return s, nil
}

// warmUp has the clients run every submission once on f, checks each
// completed job with check (i indexes subs) and fails if any job fails.
func warmUp(ctx context.Context, o options, f *fleet, tr *tracer, subs []submission, check func(i int, out *sim.Outcome, st serve.JobStatus) error) error {
	var next atomic.Int64
	var fails failures
	idx := make([]int, o.workers) // the submission each client is running
	l := &loop{f: f, tr: tr, clients: o.workers, fails: &fails,
		next: func(c int) (submission, bool) {
			i := int(next.Add(1)) - 1
			if i >= len(subs) {
				return submission{}, false
			}
			idx[c] = i
			return subs[i], true
		},
		done: func(c int, _ submission, out *sim.Outcome, st serve.JobStatus, err error) error {
			if err != nil {
				return err
			}
			return check(idx[c], out, st)
		}}
	l.run(ctx, time.Now().Add(time.Hour), &phase{})
	if fails.n > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed", fails.n, len(subs))
	}
	return nil
}

// hitsJobsPerFleet bounds the jobs one serve-hits fleet serves before the
// next round boots and warms a fresh one. Nodes and the router keep every
// finished job, so on one fleet the heap, and peak_heap_mb with it, would
// grow with however many jobs the host gets through in the run.
const hitsJobsPerFleet = 20000

// runServeHits boots the fleet, warms every key, then has the clients
// request seeded draws of those keys: every job is answered without
// simulating. The timed phase runs in rounds of hitsJobsPerFleet jobs,
// each on a fresh, warmed fleet.
func runServeHits(ctx context.Context, o options, tr *tracer) (*phase, error) {
	tr.pause(true)
	s, setupDur, setupFirst, err := timeSetup(o,
		func() (hitsSetup, error) { return setupHits(ctx, o, tr) },
		func(s hitsSetup) { s.f.close() })
	tr.pause(false)
	if err != nil {
		return nil, err
	}
	ph := &phase{setup: setupDur, setupFirst: setupFirst, tasks: s.tasks, outcomes: s.outs}
	rngs := clientRands(o)
	// The closures keep the keys and the reference, not s: s.f, the first
	// fleet, must be collectable once its round is over.
	subs, ref := s.subs, s.ref
	l := &loop{tr: tr, clients: o.workers, fails: &failures{},
		next: func(c int) (submission, bool) { return subs[rngs[c].Intn(len(subs))], true },
		done: func(_ int, sub submission, _ *sim.Outcome, st serve.JobStatus, err error) error {
			if err != nil {
				return err
			}
			if st.Key != sub.key {
				return fmt.Errorf("job key %.12s, want %.12s", st.Key, sub.key)
			}
			return ref.check(sub.key, st.Outcome)
		}}
	next := func() (*fleet, error) {
		hs, err := setupHits(ctx, o, tr)
		return hs.f, err
	}
	if err := timedRounds(ctx, o, l, s.f, hitsJobsPerFleet, next, ph); err != nil {
		return nil, err
	}
	return ph, nil
}

// timedRounds runs the loop's timed phase in rounds of at most perFleet
// submissions, each on a fresh fleet, until o.seconds of timed work or
// until a round gets no job. f serves the first round; next sets up each
// later one, untimed and untraced.
func timedRounds(ctx context.Context, o options, l *loop, f *fleet, perFleet int, next func() (*fleet, error), ph *phase) error {
	var timed time.Duration
	for round := 0; round == 0 || timed < o.seconds; round++ {
		if round > 0 {
			l.tr.pause(true)
			var err error
			f, err = next()
			l.tr.pause(false)
			if err != nil {
				return err
			}
		}
		l.f, l.limit = f, perFleet
		n := len(ph.sweeps)
		deadline := time.Now().Add(o.seconds - timed)
		err := timedServe(ctx, l, deadline, ph)
		f.close()
		if err != nil {
			return err
		}
		if ph.sweeps[n].jobs == 0 {
			ph.sweeps = ph.sweeps[:n]
			break
		}
		timed += ph.sweeps[n].wall
		if !time.Now().Before(deadline) {
			break
		}
	}
	return nil
}

// clientRands gives each client its own seeded stream.
func clientRands(o options) []*rand.Rand {
	rs := make([]*rand.Rand, o.workers)
	for c := range rs {
		rs[c] = rand.New(rand.NewSource(o.seed*1_000_003 + int64(c) + 1))
	}
	return rs
}

// Cold jobs bound each thread to coldMinInsts + k committed instructions,
// k < coldInstSpan, with enough distinct keys that no run repeats one. The
// span is set from the traced run's sim_ms_per_job and serving_ms_per_job,
// so that a simulation costs about as much as serving it: on 2 vCPUs, a
// span of 512 gave 2.9 ms against 4.2 ms, and 2048 gives 6 to 7.6 ms
// against 5.3 to 7.2 ms.
const (
	coldMinInsts = 16
	coldInstSpan = 2048
	// coldJobsPerFleet bounds the submissions one fleet serves before the
	// next round boots a fresh one. A node's runner pool keeps every
	// outcome it produced, and each keeps its whole simulated core (about
	// 2 MB) reachable, so an unbounded run would grow the heap by gigabytes.
	coldJobsPerFleet = 128
	// coldJoinShare of submissions resubmit the other client's in-flight
	// job, to join its single flight.
	coldJoinShare = 0.125
	// coldCheckShare of jobs are re-simulated locally after the timed
	// phase, at most coldCheckMax per client.
	coldCheckShare = 1.0 / 16
	coldCheckMax   = 32
	// coldWarmJobs cold jobs warm each fresh fleet before it is timed, so
	// no round carries the fleet's first connections and simulations.
	// They take the last keys of the seeded order, which timed rounds
	// never reach.
	coldWarmJobs = 16
)

// coldSpec is the spec of cold key index i.
func coldSpec(o options, i int) sim.TaskSpec {
	n := len(o.apps)
	return sim.TaskSpec{
		App:     o.apps[i%n].Name,
		Threads: evalThreads[(i/n)%len(evalThreads)],
		Config:  &sim.ConfigOverride{MaxInsts: uint64(coldMinInsts + i/(n*len(evalThreads)))},
	}
}

// coldCheck is a completed cold job kept for re-simulation.
type coldCheck struct {
	spec sim.TaskSpec
	raw  []byte
	out  *sim.Outcome
}

// setupCold boots a cold fleet and warms it with the given keys.
func setupCold(ctx context.Context, o options, tr *tracer, warm []int) (*fleet, error) {
	f, err := bootFleet(true, tr)
	if err != nil {
		return nil, err
	}
	subs := make([]submission, len(warm))
	for i, k := range warm {
		subs[i] = submission{spec: coldSpec(o, k)}
	}
	if err := warmUp(ctx, o, f, tr, subs, func(int, *sim.Outcome, serve.JobStatus) error { return nil }); err != nil {
		f.close()
		return nil, fmt.Errorf("serve-cold %w", err)
	}
	return f, nil
}

// runServeCold sends every job as a new key to a fleet with disk and
// remote caches; a seeded share joins the other client's in-flight job.
// The timed phase runs in rounds of coldJobsPerFleet submissions, each on
// a fresh, warmed fleet; booting, warming and closing fleets between
// rounds is not timed.
func runServeCold(ctx context.Context, o options, tr *tracer) (*phase, error) {
	keys := rand.New(rand.NewSource(o.seed)).Perm(len(o.apps) * len(evalThreads) * coldInstSpan)
	warm := keys[len(keys)-coldWarmJobs:]
	keys = keys[:len(keys)-coldWarmJobs]
	tr.pause(true)
	f, setupDur, setupFirst, err := timeSetup(o, func() (*fleet, error) { return setupCold(ctx, o, tr, warm) }, (*fleet).close)
	tr.pause(false)
	if err != nil {
		return nil, err
	}
	ph := &phase{setup: setupDur, setupFirst: setupFirst}

	rngs := clientRands(o)
	nextKey := make([]int, o.workers) // position in the client's share of keys
	inflight := make([]atomic.Pointer[sim.TaskSpec], o.workers)
	checks := make([][]coldCheck, o.workers)
	l := &loop{tr: tr, clients: o.workers, fails: &failures{},
		next: func(c int) (submission, bool) {
			if rngs[c].Float64() < coldJoinShare {
				if other := inflight[(c+1)%o.workers].Load(); other != nil {
					return submission{spec: *other}, true
				}
			}
			i := c + nextKey[c]*o.workers
			if i >= len(keys) {
				return submission{}, false
			}
			nextKey[c]++
			spec := coldSpec(o, keys[i])
			inflight[c].Store(&spec)
			return submission{spec: spec}, true
		},
		done: func(c int, s submission, out *sim.Outcome, st serve.JobStatus, err error) error {
			inflight[c].Store(nil)
			if err != nil {
				return err
			}
			if rngs[c].Float64() < coldCheckShare && len(checks[c]) < coldCheckMax {
				checks[c] = append(checks[c], coldCheck{spec: s.spec, raw: st.Outcome, out: out})
			}
			return nil
		}}
	next := func() (*fleet, error) { return setupCold(ctx, o, tr, warm) }
	if err := timedRounds(ctx, o, l, f, coldJobsPerFleet, next, ph); err != nil {
		return nil, err
	}
	// Re-simulate the sample locally: the served outcome must be the
	// bytes a direct run encodes to.
	for _, cs := range checks {
		for _, ck := range cs {
			if err := recheck(ck); err != nil {
				l.fails.add("%s: %v", ck.spec.Name(), err)
				continue
			}
			t, _ := ck.spec.Task() // recheck resolved it already
			ph.tasks = append(ph.tasks, t)
			ph.outcomes = append(ph.outcomes, ck.out)
		}
	}
	ph.failed = l.fails.n
	return ph, nil
}

func recheck(ck coldCheck) error {
	t, err := ck.spec.Task()
	if err != nil {
		return err
	}
	out, err := t.Execute()
	if err != nil {
		return err
	}
	raw, err := sim.MarshalOutcome(out)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, ck.raw) {
		return fmt.Errorf("served outcome differs from a direct run")
	}
	return nil
}

// Command perfbench measures the host cost of the MMT simulator and of the
// serving fleet around it: how many simulated instructions per second a
// batch sweep turns into checked outcomes, and how fast the job server,
// router and remote cache answer clients. Every outcome is checked against
// a committed reference or a re-run, and the last line of standard output
// is one JSON object with the run's metrics.
//
//	perfbench --workload eval-mmt --seed 1 --seconds 10 --trace 0
//
// README.md lists the workloads, the metrics and the layer each one
// belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// processStart anchors set-up time, which counts from process start to
// the first timed operation (see timeSetup).
var processStart = time.Now()

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int
	// apps are the kernels the workload draws from (all sixteen unless a
	// test narrows them).
	apps []workloads.App
	// setupReps and setupBudget say how often the run sets up (see
	// timeSetup); setup_s is the median set-up time.
	setupReps   int
	setupBudget time.Duration
	// inject delays one layer through the benchmark's own seams.
	inject inject
}

// inject adds a fixed delay inside one layer's span, so a test can check
// that the traced run charges it to that layer and to no other.
type inject struct {
	build      time.Duration // inside the Task.Phase("build") hook
	node       time.Duration // inside the wrapper around each node's submit handler
	remoteLoad time.Duration // inside the wrapper around RemoteCache.Load
}

// workloadFunc sets up one workload, runs its timed phase and checks every
// outcome. tr is nil on untraced runs.
type workloadFunc func(ctx context.Context, o options, tr *tracer) (*phase, error)

var workloadFuncs = map[string]workloadFunc{
	"eval-mmt": func(ctx context.Context, o options, tr *tracer) (*phase, error) {
		return runEval(ctx, o, sim.PresetMMTFXR, tr)
	},
	"eval-base": func(ctx context.Context, o options, tr *tracer) (*phase, error) {
		return runEval(ctx, o, sim.PresetBase, tr)
	},
	"serve-hits": runServeHits,
	"serve-cold": runServeCold,
}

// phase is what one workload run measured.
type phase struct {
	setup      time.Duration // median set-up time
	setupFirst time.Duration // the first set-up, from process start
	attempted  int
	failed     int
	// sweeps are the timed units: one per eval sweep or serve-cold
	// round, a single one for serve-hits.
	sweeps   []sweep
	latMS    []float64 // per-job latency in milliseconds
	peakHeap uint64    // maximum HeapInuse sampled while timed
	// tasks and outcomes are the distinct simulations the workload
	// delivered, for the traced run's serial layer pass.
	tasks    []sim.Task
	outcomes []*sim.Outcome
	// jobs holds the serving workloads' client-side job records.
	jobs jobCounts
	// retainedBytes is the heap the serving workloads' jobs left behind
	// once collected.
	retainedBytes float64
}

// totals sums the timed sweeps: wall seconds, instructions and jobs.
func (ph *phase) totals() (wall float64, insts uint64, jobs int) {
	for _, s := range ph.sweeps {
		wall += s.wall.Seconds()
		insts += s.insts
		jobs += s.jobs
	}
	return wall, insts, jobs
}

// sweep is one timed unit of work.
type sweep struct {
	wall  time.Duration
	insts uint64 // committed simulated instructions in the delivered outcomes
	jobs  int
}

// jobCounts tallies what the serving workloads' JobStatus replies said.
type jobCounts struct {
	done, dedup, simulated, cache int
	rejected, submitted           uint64 // from the nodes' /v1/stats
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// summary is printed on its own line before the result: the sample
	// counts behind the metrics and the failed ratio.
	summary map[string]float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "eval-mmt, eval-base, serve-hits or serve-cold")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	writeRef := fs.String("write-reference", "", "simulate every reference point and write the reference to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeRef != "" {
		return writeReference(*writeRef)
	}
	if _, ok := workloadFuncs[*workload]; !ok {
		return fmt.Errorf("unknown --workload %q (eval-mmt, eval-base, serve-hits, serve-cold)", *workload)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	o := options{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		workers:   runtime.NumCPU(),
		apps:      workloads.All(),
		setupReps: 3,
		// Cheap set-ups repeat more often, so their median stays steady.
		setupBudget: time.Second,
	}
	ctx := context.Background()
	var res *result
	var err error
	if *traceFlag == 1 {
		res, err = tracedRun(ctx, o)
	} else {
		res, err = endToEndRun(ctx, o)
	}
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(hostHeader(o, *traceFlag == 1))
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	sum, err := json.Marshal(map[string]any{"summary": res.summary})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n%s\n", sum, hdr, line)
	return nil
}

// endToEndRun runs the workload untraced and reports the end-to-end
// metrics.
func endToEndRun(ctx context.Context, o options) (*result, error) {
	ph, err := workloadFuncs[o.workload](ctx, o, nil)
	if err != nil {
		return nil, err
	}
	wall, _, _ := ph.totals()
	return &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   endToEnd(ph),
		summary: map[string]float64{
			"failed_ratio":    ratio(float64(ph.failed), float64(ph.attempted)),
			"setup_first_s":   ph.setupFirst.Seconds(),
			"latency_samples": float64(len(ph.latMS)),
			"timed_units":     float64(len(ph.sweeps)),
			"timed_s":         wall,
		},
	}, nil
}

// endToEnd derives the end-to-end metrics of one workload run. Rates sum
// the work of every timed sweep over their summed wall time.
func endToEnd(ph *phase) map[string]metric {
	wall, insts, jobs := ph.totals()
	return map[string]metric{
		"setup_s":          {ph.setup.Seconds(), "s"},
		"sim_minsts_per_s": {ratio(float64(insts)/1e6, wall), "Minsts/s"},
		"jobs_per_s":       {ratio(float64(jobs), wall), "jobs/s"},
		"job_p50_ms":       {quantile(ph.latMS, 0.50), "ms"},
		"job_p99_ms":       {quantile(ph.latMS, 0.99), "ms"},
		"peak_heap_mb":     {float64(ph.peakHeap) / (1 << 20), "MB"},
	}
}

// maxSetupReps bounds how often a run sets up.
const maxSetupReps = 100

// timeSetup runs set-up at least o.setupReps times, and again while less
// than o.setupBudget has been spent, and returns the last set-up's product
// with the median and the first set-up time. Every sample counts from
// process start: the first is measured from it, and each later one is
// charged the time from process start to the first set-up on top of its
// own. Only the first sample carries the process's cold start (first
// page faults, heap growth), which the median leaves out. The product of
// each set-up but the last is released with discard before the next one.
func timeSetup[T any](o options, setup func() (T, error), discard func(T)) (last T, med, first time.Duration, err error) {
	var (
		times []float64
		spent time.Duration
		pre   = time.Since(processStart)
	)
	for i := 0; i < maxSetupReps && (i < max(o.setupReps, 1) || spent < o.setupBudget); i++ {
		if i > 0 {
			// Each repeat starts, like the first, with nothing of an
			// earlier set-up left.
			if discard != nil {
				discard(last)
			}
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		d := time.Since(start)
		last = v
		spent += d
		times = append(times, float64(pre+d))
	}
	return last, time.Duration(median(times)), time.Duration(times[0]), nil
}

// heapWatch samples HeapInuse while a timed phase runs.
type heapWatch struct {
	stop chan struct{}
	peak chan uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	return <-h.peak
}

// heapAfterGC returns HeapInuse after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// failures collects correctness failures; the first few are printed to
// standard error.
type failures struct {
	mu sync.Mutex
	n  int
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

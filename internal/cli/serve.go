package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/runner"
	"mmt/internal/serve"
)

// RunServe is the mmtserved command: the simulation-as-a-service daemon.
// It serves the /v1 job API until SIGINT/SIGTERM, then drains — stops
// admitting, finishes in-flight jobs (bounded by -drain-timeout) — and
// exits; a second signal aborts the drain.
func RunServe(args []string, stdout io.Writer) error {
	return runServe(args, stdout, os.Stderr, nil)
}

// runServe is RunServe with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runServe(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtserved", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		jobs     = fs.Int("j", runtime.NumCPU(), "parallel simulation workers")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory (empty = disabled)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "persistent cache byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
		remote   = fs.String("remote-cache", "", "mmtcached base URL the persistent cache tiers into, e.g. http://127.0.0.1:8380 (empty = disabled)")
		timeout  = fs.Duration("timeout", 0, "per-simulation wall-clock timeout (0 = none)")
		retries  = fs.Int("retries", 1, "extra attempts for a failed simulation")

		queue        = fs.Int("queue", 64, "admission queue capacity; beyond it submissions get 429 + Retry-After")
		precheck     = fs.Bool("precheck", false, "statically analyze submitted programs and reject error findings with 400 (see mmtcheck)")
		deadline     = fs.Duration("deadline", 0, "default queued-deadline for submissions that carry none (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long a signal-triggered drain waits for in-flight jobs")

		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runner's workers (open in Perfetto)")
		eventsOut   = fs.String("events-out", "", "write the runner's job timeline as JSONL events")
		sampleEvery = fs.Duration("sample-every", 250*time.Millisecond, "interval between worker-utilization samples on the trace")
	)
	return runDaemon(fs, args, progress, ready, daemon{
		addr: "127.0.0.1:8377", addrUsage: "listen address for the job API",
		check: func() error {
			if err := validateTimeout(*timeout); err != nil {
				return err
			}
			if err := validateRetries(*retries); err != nil {
				return err
			}
			if *traceOut != "" || *eventsOut != "" {
				return validateSampleEvery(*sampleEvery)
			}
			return nil
		},
		build: func(p *process) (*running, error) {
			opts := serve.Options{
				Runner: runner.Options{
					Workers:       *jobs,
					CacheDir:      *cacheDir,
					CacheMaxBytes: *cacheMax,
					Timeout:       *timeout,
					Retries:       *retries,
					Progress:      p.progress,
					// The flight ring also gets the runner's job timeline.
					Trace:         p.debug.Flight,
					FlightDumpDir: p.debug.DumpDir,
				},
				MaxQueue:        *queue,
				DefaultDeadline: *deadline,
				Precheck:        *precheck,
				Metrics:         p.metrics,
				Tracer:          p.tracer,
				Log:             p.log,
				Flight:          p.debug.Flight,
				Debug:           p.debug.Handler,
			}
			if *remote != "" {
				opts.Runner.RemoteCache = cluster.NewCacheClient(*remote, nil)
			}
			closeTrace := func() error { return nil }
			if *traceOut != "" || *eventsOut != "" {
				rec, closeSinks, err := openTraceSinks(*traceOut, *eventsOut, "mmtserved runner", "worker",
					map[string]string{"version": Version(), "workers": strconv.Itoa(*jobs)})
				if err != nil {
					return nil, err
				}
				opts.Runner.Trace = obs.Multi(rec, p.debug.Flight)
				opts.Runner.TraceSampleEvery = *sampleEvery
				closeTrace = closeSinks
			}
			// p.ctx is the pool's hard-abort context: canceled when the
			// drain deadline expires or a second signal arrives.
			srv, err := serve.New(p.ctx, opts)
			if err != nil {
				closeTrace()
				return nil, err
			}
			return &running{
				handler: srv,
				banner: fmt.Sprintf("serving on http://%s/v1 (%d workers, queue %d)",
					p.addr, srv.Pool().Summary().Workers, *queue),
				stop: func(why string, shutdown func()) error {
					fmt.Fprintf(p.progress, "mmtserved: %s, draining (timeout %s; signal again to abort)\n", why, *drainTimeout)
					dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
					derr := srv.Drain(dctx)
					dcancel()
					if derr != nil {
						fmt.Fprintf(p.progress, "mmtserved: %v; aborting\n", derr)
						p.abort()
					}
					shutdown()
					srv.Close()
					if cerr := closeTrace(); cerr != nil && derr == nil {
						derr = cerr
					}
					if s := srv.Pool().Summary(); s.Jobs > 0 {
						fmt.Fprint(p.progress, s.Format())
					}
					fmt.Fprintln(p.progress, "mmtserved: drained, bye")
					return derr
				},
			}, nil
		},
	})
}

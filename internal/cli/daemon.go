package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
)

// daemon is one fleet process's part in runDaemon. Its own flags are
// already registered on the flag set runDaemon receives.
type daemon struct {
	addr, addrUsage string // the -addr default and help text
	// check validates the daemon's own flags. It runs before the port is
	// bound.
	check func() error
	// build constructs the daemon on the bound port.
	build func(p *process) (*running, error)
}

// process is what runDaemon assembles before a daemon's build runs.
type process struct {
	// ctx is the hard-abort context: a second SIGINT/SIGTERM cancels it,
	// and so does abort.
	ctx      context.Context
	abort    context.CancelFunc
	addr     string // the bound address
	metrics  *obs.Registry
	tracer   *span.Tracer
	log      *slog.Logger // feeds the flight ring; stamped service=<name>
	debug    *debugStack
	progress io.Writer // never nil
}

// running is a built daemon.
type running struct {
	handler http.Handler
	banner  string // the startup line after "<name> <version> "
	// stop runs once: on the first SIGINT/SIGTERM (why is "received
	// <signal>") or when serving fails (why is the error). It calls
	// shutdown, which stops the HTTP server with a bounded wait.
	stop func(why string, shutdown func()) error
}

// runDaemon is the lifecycle the fleet daemons (mmtserved, mmtrouter,
// mmtcached) share. It registers the common flags (-addr, -metrics-addr,
// -version, -log-*, -flight-*, -profile-*, -history-every), parses and
// validates args, binds the port, assembles the registry, the tracer and
// the diagnostics stack, builds the daemon, prints its banner and serves
// until the first SIGINT/SIGTERM, which runs the daemon's stop. A second
// signal cancels the process's hard-abort context.
func runDaemon(fs *flag.FlagSet, args []string, progress io.Writer, ready func(addr string), d daemon) error {
	addr := fs.String("addr", d.addr, d.addrUsage)
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address")
	logf := addLogFlags(fs)
	dbg := addDebugFlags(fs)
	if done, err := parseFlags(fs, args); done {
		return err
	}
	if progress == nil {
		progress = io.Discard
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	if err := d.check(); err != nil {
		return err
	}

	// The registry always exists: /metrics rides the main port for
	// mmtdoctor, and -metrics-addr additionally serves it with expvar and
	// pprof on a side port.
	p := &process{metrics: obs.NewRegistry(), progress: progress}
	if *metricsAddr != "" {
		msrv, err := serveMetrics(*metricsAddr, p.metrics, progress)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}
	// Bind before building the daemon: the tracer's service label carries
	// the resolved address, so a stitched fleet waterfall names the
	// process each span ran on.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	name := fs.Name()
	p.addr = ln.Addr().String()
	service := name + "@" + p.addr // the process's label across the fleet
	p.tracer = span.NewTracer(service, span.DefaultCapacity)
	// The diagnostics stack: flight ring (fed the daemon's edges, finished
	// spans and log lines), continuous profiler, metrics history, SIGQUIT
	// dump.
	p.debug = dbg.build(service, fs, p.metrics, p.tracer, logger, progress)
	defer p.debug.Close()
	p.log = p.debug.Wrap(logger).With("service", name)
	p.ctx, p.abort = context.WithCancel(context.Background())
	defer p.abort()

	run, err := d.build(p)
	if err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(progress, "%s %s %s\n", name, Version(), run.banner)
	p.debug.announce(progress, p.addr)
	if ready != nil {
		ready(p.addr)
	}

	httpSrv := &http.Server{Handler: run.handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx) //nolint:errcheck // in-flight requests get a bounded wait
		cancel()
	}

	select {
	case err := <-serveErr:
		return errors.Join(err, run.stop(err.Error(), shutdown))
	case sig := <-sigc:
		go func() {
			select {
			case <-sigc:
				p.abort()
			case <-p.ctx.Done():
			}
		}()
		return run.stop("received "+sig.String(), shutdown)
	}
}

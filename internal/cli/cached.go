package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mmt/internal/cluster"
)

// RunCached is the mmtcached command: the content-addressed remote result
// cache the fleet's persistent caches tier into. It serves the /v1/cache
// API until SIGINT/SIGTERM, then exits; entries live on disk, so restarts
// are warm.
func RunCached(args []string, stdout io.Writer) error {
	return runCached(args, stdout, os.Stderr, nil)
}

// runCached is RunCached with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runCached(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtcached", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		dir      = fs.String("dir", "", "entry directory (required)")
		maxBytes = fs.Int64("max-bytes", 0, "byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
	)
	return runDaemon(fs, args, progress, ready, daemon{
		addr: "127.0.0.1:8380", addrUsage: "listen address for the cache API",
		check: func() error {
			if *dir == "" {
				return errors.New("-dir is required (entry directory)")
			}
			return nil
		},
		build: func(p *process) (*running, error) {
			srv, err := cluster.NewCacheServer(cluster.CacheServerOptions{
				Dir:      *dir,
				MaxBytes: *maxBytes,
				Metrics:  p.metrics,
				Tracer:   p.tracer,
				Log:      p.log,
				Flight:   p.debug.Flight,
				Debug:    p.debug.Handler,
			})
			if err != nil {
				return nil, err
			}
			st := srv.Store()
			return &running{
				handler: srv,
				banner:  fmt.Sprintf("serving on http://%s/v1/cache (%d entries, %d bytes)", p.addr, st.Len(), st.Bytes()),
				stop: func(why string, shutdown func()) error {
					fmt.Fprintf(p.progress, "mmtcached: %s, shutting down\n", why)
					shutdown()
					fmt.Fprintf(p.progress, "mmtcached: %d entries, %d bytes on disk; bye\n", st.Len(), st.Bytes())
					return nil
				},
			}, nil
		},
	})
}

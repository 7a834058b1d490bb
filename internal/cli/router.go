package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mmt/internal/cluster"
)

// RunRouter is the mmtrouter command: the fleet coordinator that
// consistent-hashes job submissions onto a ring of mmtserved backends so
// per-node single-flight dedup becomes fleet-wide dedup. It serves the
// same /v1 job API as mmtserved until SIGINT/SIGTERM, then exits.
func RunRouter(args []string, stdout io.Writer) error {
	return runRouter(args, stdout, os.Stderr, nil)
}

// runRouter is RunRouter with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runRouter(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtrouter", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		backends = fs.String("backends", "", "comma-separated mmtserved base URLs, each with an optional *weight suffix (e.g. http://10.0.0.1:8377*2,http://10.0.0.2:8377)")

		probeEvery   = fs.Duration("probe-every", time.Second, "health/queue-depth probe cadence")
		probeTimeout = fs.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		stealAt      = fs.Int("steal-threshold", 8, "queue depth at which an owner counts as hot and idle nodes pull its new keys")
		stealMax     = fs.Int("steal-max", 1, "maximum queue depth of a steal target")
		placementTTL = fs.Duration("placement-ttl", 5*time.Minute, "how long a key stays pinned to the node that received it")
	)
	var nodes []cluster.Node
	return runDaemon(fs, args, progress, ready, daemon{
		addr: "127.0.0.1:8378", addrUsage: "listen address for the fleet job API",
		check: func() (err error) {
			if *backends == "" {
				return errors.New("-backends is required (comma-separated mmtserved URLs)")
			}
			nodes, err = cluster.ParseNodes(*backends)
			return err
		},
		build: func(p *process) (*running, error) {
			rt, err := cluster.NewRouter(cluster.RouterOptions{
				Nodes:          nodes,
				ProbeEvery:     *probeEvery,
				ProbeTimeout:   *probeTimeout,
				StealThreshold: *stealAt,
				StealMax:       *stealMax,
				PlacementTTL:   *placementTTL,
				Metrics:        p.metrics,
				Tracer:         p.tracer,
				Log:            p.log,
				Flight:         p.debug.Flight,
				Debug:          p.debug.Handler,
			})
			if err != nil {
				return nil, err
			}
			return &running{
				handler: rt,
				banner:  fmt.Sprintf("routing on http://%s/v1 across %d backends", p.addr, len(nodes)),
				stop: func(why string, shutdown func()) error {
					fmt.Fprintf(p.progress, "mmtrouter: %s, shutting down\n", why)
					shutdown()
					rt.Close()
					fmt.Fprintln(p.progress, "mmtrouter: drained, bye")
					return nil
				},
			}, nil
		},
	})
}

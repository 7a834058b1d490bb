package cli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mmt/internal/obs"
	"mmt/internal/prof"
	"mmt/internal/serve/client"
)

// syncBuffer guards a bytes.Buffer: the daemon's progress stream is
// written from several goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAndLoadEndToEnd boots the daemon on an ephemeral port with a
// disk cache, drives it with the load generator, checks that /metrics and
// /v1/stats agree, drains it with SIGTERM, and restarts it on the same
// cache directory: the restarted daemon serves the same load from disk.
func TestServeAndLoadEndToEnd(t *testing.T) {
	cacheDir := t.TempDir()
	var progress syncBuffer
	serveArgs := []string{"-addr", "127.0.0.1:0", "-j", "2", "-queue", "8", "-cache-dir", cacheDir}
	addr, done := startDaemon(t, "mmtserved", runServe, serveArgs, &progress)

	var loadOut bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "6", "-c", "3",
		"-dup", "0.5", "-seed", "2"}, &loadOut, io.Discard); err != nil {
		t.Fatalf("mmtload: %v\n%s", err, loadOut.String())
	}
	out := loadOut.String()
	for _, want := range []string{"jobs/s", "latency: p50", "server:  simulated=", "0 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("load report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "simulated=0 ") {
		t.Errorf("load run simulated nothing:\n%s", out)
	}
	// /metrics on the main port reads the same instruments as /v1/stats.
	stats, err := client.New("http://"+addr, nil).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := scrapeCounter(t, "http://"+addr+"/metrics", "mmt_serve_jobs_completed_total"); got != stats.Completed || got == 0 {
		t.Errorf("mmt_serve_jobs_completed_total = %d, /v1/stats completed = %d", got, stats.Completed)
	}

	// A second identical run is served without new simulations: every
	// spec is now in the pool's memo. Its -events-out timeline records a
	// span per job and a cache-hit marker for each served outcome.
	events := filepath.Join(t.TempDir(), "load.jsonl")
	var warm bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "6", "-c", "3",
		"-dup", "0.5", "-seed", "2", "-events-out", events}, &warm, io.Discard); err != nil {
		t.Fatalf("warm mmtload: %v", err)
	}
	if !strings.Contains(warm.String(), "simulated=0 ") {
		t.Errorf("warm run re-simulated:\n%s", warm.String())
	}
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := obs.DecodeJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	jobsSeen, hits := 0, 0
	traces := map[string]int{}
	counters := map[string]uint64{}
	for _, l := range lines {
		if l.Event == nil {
			continue
		}
		switch l.Event.Kind {
		case obs.EvJob:
			jobsSeen++
			traces[l.Event.Trace]++
		case obs.EvCacheHit:
			hits++
		case obs.EvCounter:
			counters[l.Event.Name] = l.Event.Arg
		}
	}
	if jobsSeen != 6 || hits != 6 {
		t.Errorf("events = %d job spans, %d cache hits; want 6 and 6", jobsSeen, hits)
	}
	// Deterministic per-job correlation ids: seed 2, positions 0..5, each
	// on exactly one span.
	for i := 0; i < 6; i++ {
		if id := fmt.Sprintf("load-2-%d", i); traces[id] != 1 {
			t.Errorf("trace id %s on %d spans, want 1 (%v)", id, traces[id], traces)
		}
	}
	if counters["load-served-cache"] != 6 || counters["load-served-simulated"] != 0 {
		t.Errorf("final counters wrong on a warm run: %v", counters)
	}

	// An attributed run uses distinct task keys (attribution is in the
	// key), so the server simulates afresh, embeds a profile in each
	// outcome, and the client merges them into one file.
	pfile := filepath.Join(t.TempDir(), "load-profile.json")
	var attr bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "4", "-c", "2",
		"-dup", "0", "-seed", "3", "-attribution", "-profile-out", pfile}, &attr, io.Discard); err != nil {
		t.Fatalf("attributed mmtload: %v\n%s", err, attr.String())
	}
	if !strings.Contains(attr.String(), "attribution: ") {
		t.Errorf("attributed run printed no CPI summary:\n%s", attr.String())
	}
	pb, err := os.ReadFile(pfile)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := prof.ParseProfile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cycles == 0 {
		t.Error("merged load profile is empty")
	}

	drain(t, done)
	if got := progress.String(); !strings.Contains(got, "drained, bye") {
		t.Errorf("progress missing drain farewell:\n%s", got)
	}

	// A fresh process on the same cache directory has an empty memo, so
	// the first load's specs can only come from disk.
	addr, done = startDaemon(t, "mmtserved restarted", runServe, serveArgs, &progress)
	var restarted bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "6", "-c", "3",
		"-dup", "0.5", "-seed", "2"}, &restarted, io.Discard); err != nil {
		t.Fatalf("mmtload after restart: %v\n%s", err, restarted.String())
	}
	if m := regexp.MustCompile(`server:  simulated=0 cache=([1-9][0-9]*) `).FindStringSubmatch(restarted.String()); m == nil {
		t.Errorf("restarted daemon did not serve the load from its disk cache:\n%s", restarted.String())
	}
	drain(t, done)
}

// drain sends SIGTERM to the test process and waits for the daemon whose
// exit channel is done to finish draining.
func drain(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// scrapeCounter reads one unlabeled counter's value from a Prometheus
// text endpoint.
func scrapeCounter(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s not exported at %s:\n%s", name, url, body)
	return 0
}

// versionCase runs one command with the given arguments, writing stdout to w.
type versionCase struct {
	name string
	run  func([]string, io.Writer) error
}

// checkVersionFlag runs each command with -version: each prints
// "<command> <version> <go version>" on stdout and runs nothing else.
func checkVersionFlag(t *testing.T, cases []versionCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := c.run([]string{"-version"}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), c.name+" ") || !strings.Contains(out.String(), " go1") {
				t.Errorf("version output = %q", out.String())
			}
		})
	}
}

func versionTool(run func([]string, io.Writer, io.Writer) error) func([]string, io.Writer) error {
	return func(a []string, w io.Writer) error { return run(a, w, io.Discard) }
}

// TestVersionFlags covers -version on the offline tools.
func TestVersionFlags(t *testing.T) {
	checkVersionFlag(t, []versionCase{
		{"mmtsim", RunSim},
		{"mmtpipe", RunPipe},
		{"mmtprofile", RunProfile},
		{"mmtcheck", RunCheck},
		{"mmtvet", RunVet},
		{"mmtbench", func(a []string, w io.Writer) error { _, err := runBench(a, w, io.Discard); return err }},
		{"mmtdse", versionTool(runDSE)},
	})
}

// TestServeVersionFlag covers -version on the daemons and the commands
// that talk to them.
func TestServeVersionFlag(t *testing.T) {
	daemon := func(run func([]string, io.Writer, io.Writer, func(string)) error) func([]string, io.Writer) error {
		return func(a []string, w io.Writer) error { return run(a, w, io.Discard, nil) }
	}
	checkVersionFlag(t, []versionCase{
		{"mmtload", versionTool(runLoad)},
		{"mmttrace", versionTool(runTrace)},
		{"mmtdoctor", versionTool(runDoctor)},
		{"mmtserved", daemon(runServe)},
		{"mmtrouter", daemon(runRouter)},
		{"mmtcached", daemon(runCached)},
	})
}

func TestLoadRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runLoad([]string{"-n", "0"}, &out, io.Discard); err == nil {
		t.Error("-n 0 accepted")
	}
	if err := runLoad([]string{"-dup", "1.5"}, &out, io.Discard); err == nil {
		t.Error("-dup 1.5 accepted")
	}
}

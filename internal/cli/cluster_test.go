package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches one CLI daemon (runServe/runRouter/runCached) and
// returns its bound address and exit channel.
func startDaemon(t *testing.T, name string, run func(args []string, stdout, progress io.Writer, ready func(string)) error,
	args []string, progress io.Writer) (addr string, done chan error) {
	t.Helper()
	addrc := make(chan string, 1)
	done = make(chan error, 1)
	var stdout syncBuffer
	go func() {
		done <- run(args, &stdout, progress, func(a string) { addrc <- a })
	}()
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("%s exited before listening: %v (stdout: %s)", name, err, stdout.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never became ready", name)
	}
	return addr, done
}

// TestClusterEndToEnd boots the whole fleet in-process — mmtcached, two
// mmtserved nodes tiering into it, mmtrouter across them — drives it with
// mmtload -cluster, and then proves the acceptance scenario: a cold node
// restart (fresh cache dir, same remote cache) serves previously
// simulated results without re-simulating. One SIGTERM to the test
// process drains every daemon.
func TestClusterEndToEnd(t *testing.T) {
	var progress syncBuffer

	cacheDir := t.TempDir()
	cachedAddr, cachedDone := startDaemon(t, "mmtcached", runCached,
		[]string{"-addr", "127.0.0.1:0", "-dir", cacheDir}, &progress)

	dirA, dirB := t.TempDir(), t.TempDir()
	addrA, doneA := startDaemon(t, "mmtserved A", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", dirA,
			"-remote-cache", "http://" + cachedAddr}, &progress)
	addrB, doneB := startDaemon(t, "mmtserved B", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", dirB,
			"-remote-cache", "http://" + cachedAddr}, &progress)

	routerAddr, routerDone := startDaemon(t, "mmtrouter", runRouter,
		[]string{"-addr", "127.0.0.1:0", "-probe-every", "100ms",
			"-backends", "http://" + addrA + ",http://" + addrB}, &progress)

	// A duplicate-heavy load through the router: the fleet must collapse
	// the stream into very few simulations.
	var loadOut bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + routerAddr, "-cluster",
		"-n", "10", "-c", "5", "-dup", "0.8", "-seed", "4"}, &loadOut, io.Discard); err != nil {
		t.Fatalf("mmtload -cluster: %v\n%s", err, loadOut.String())
	}
	out := loadOut.String()
	for _, want := range []string{"0 failed", "cluster: fleet dedup ratio", "node", "jobs/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster load report missing %q:\n%s", want, out)
		}
	}

	// mmttrace stitches one submission's trace across the router, the
	// owning node and the cache daemon — chasing the dedup link when job
	// 0 happened to join another flight — and exports a Chrome timeline.
	var traceOut bytes.Buffer
	chromePath := filepath.Join(t.TempDir(), "fleet-trace.json")
	if err := runTrace([]string{"-server", "http://" + routerAddr,
		"-sources", "http://" + cachedAddr, "-trace", "load-4-0",
		"-chrome", chromePath}, &traceOut, io.Discard); err != nil {
		t.Fatalf("mmttrace: %v\n%s", err, traceOut.String())
	}
	wf := traceOut.String()
	if !strings.Contains(wf, "from 3 processes") {
		t.Errorf("waterfall not stitched from 3 processes:\n%s", wf)
	}
	for _, want := range []string{"router.submit", "serve.", "mmtserved@", "mmtcached@"} {
		if !strings.Contains(wf, want) {
			t.Errorf("waterfall missing %q:\n%s", want, wf)
		}
	}
	if raw, err := os.ReadFile(chromePath); err != nil || !bytes.Contains(raw, []byte("traceEvents")) {
		t.Errorf("chrome trace not written: %v", err)
	} else if !json.Valid(raw) {
		t.Errorf("chrome trace is not valid JSON:\n%s", raw)
	}

	// The fleet-wide listing ranks recent traces by duration.
	traceOut.Reset()
	if err := runTrace([]string{"-server", "http://" + routerAddr, "-slowest", "5"},
		&traceOut, io.Discard); err != nil {
		t.Fatalf("mmttrace -slowest: %v", err)
	}
	if !strings.Contains(traceOut.String(), "load-4-") {
		t.Errorf("slowest listing missing load traces:\n%s", traceOut.String())
	}

	// Cold restart: node A goes away, its local cache is wiped, and a
	// fresh node with the same remote tier replays the workload without a
	// single new simulation.
	restartLoad := func(server string, expectSimulated string) {
		t.Helper()
		var buf bytes.Buffer
		if err := runLoad([]string{"-server", server, "-n", "10", "-c", "5",
			"-dup", "0.8", "-seed", "4"}, &buf, io.Discard); err != nil {
			t.Fatalf("mmtload against %s: %v\n%s", server, err, buf.String())
		}
		if !strings.Contains(buf.String(), expectSimulated) {
			t.Errorf("load against %s: want %q in report:\n%s", server, expectSimulated, buf.String())
		}
	}
	coldDir := t.TempDir()
	coldAddr, coldDone := startDaemon(t, "mmtserved cold", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", coldDir,
			"-remote-cache", "http://" + cachedAddr}, &progress)
	restartLoad("http://"+coldAddr, "simulated=0 ")

	// And without the remote tier the same cold start would have to
	// simulate — proving the hits above came from mmtcached, not memo.
	coldestAddr, coldestDone := startDaemon(t, "mmtserved coldest", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", t.TempDir()}, &progress)
	restartLoad("http://"+coldestAddr, "dedup_joins=")

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{
		"mmtcached": cachedDone, "mmtserved A": doneA, "mmtserved B": doneB,
		"mmtrouter": routerDone, "mmtserved cold": coldDone, "mmtserved coldest": coldestDone,
	} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s exit: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", name)
		}
	}
	got := progress.String()
	// The daemons' structured logs stamp routing decisions with the
	// trace id (default text format, written to the progress stream).
	for _, want := range []string{"mmtrouter: drained, bye", "mmtcached:", "entries",
		`msg="job routed"`, "trace=load-4-"} {
		if !strings.Contains(got, want) {
			t.Errorf("progress missing %q:\n%s", want, got)
		}
	}
}

func TestRouterCachedVersionAndFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := runRouter([]string{"-version"}, &out, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mmtrouter") {
		t.Errorf("version output = %q", out.String())
	}
	out.Reset()
	if err := runCached([]string{"-version"}, &out, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mmtcached") {
		t.Errorf("version output = %q", out.String())
	}
	if err := runRouter(nil, io.Discard, io.Discard, nil); err == nil {
		t.Error("mmtrouter without -backends accepted")
	}
	if err := runCached(nil, io.Discard, io.Discard, nil); err == nil {
		t.Error("mmtcached without -dir accepted")
	}
	if err := runRouter([]string{"-backends", "not-a-url"}, io.Discard, io.Discard, nil); err == nil {
		t.Error("mmtrouter accepted a malformed backend list")
	}
}

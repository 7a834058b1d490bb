package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmt/internal/obs"
	"mmt/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the cycle-identity golden file")

// goldenSampleEvery is the trace sampling period of the observed points.
const goldenSampleEvery = 500

// TestCycleIdentityGolden pins simulated time: every kernel under Base and
// MMT-FXR at 2 and 4 threads must reproduce the recorded cycle count and
// per-thread committed instructions exactly. The MMT-FXR 2T points also
// run traced and attributed, and pin the SHA-256 of their JSONL event
// stream (events and samples) and of their attribution profile JSON, so
// event order, arguments and profile bytes cannot move either. Host-side
// optimisations of the core must leave this file untouched; a deliberate
// timing-model change regenerates it with -update and says so.
func TestCycleIdentityGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, app := range workloads.All() {
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			for _, n := range []int{2, 4} {
				if p == PresetMMTFXR && n == 2 {
					buf.WriteString(observedGoldenLine(t, app, p, n))
					continue
				}
				r, err := Run(app, p, n, nil)
				if err != nil {
					t.Fatalf("%s %s %dT: %v", app.Name, p, n, err)
				}
				fmt.Fprintf(&buf, "%s %s %dT cycles=%d committed=%v\n",
					app.Name, p, n, r.Stats.Cycles, r.Stats.Committed[:n])
			}
		}
	}
	path := filepath.Join("testdata", "cycles.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("simulated cycles drifted from %s\n--- got ---\n%s--- want ---\n%s", path, buf.Bytes(), want)
	}
}

// observedGoldenLine runs one point with a JSONL trace and attribution
// attached and renders its golden line with both digests.
func observedGoldenLine(t *testing.T, app workloads.App, p Preset, n int) string {
	t.Helper()
	var events bytes.Buffer
	sink := obs.NewJSONL(&events, map[string]string{"app": app.Name, "preset": string(p)})
	o, err := Task{App: app, Preset: p, Threads: n, Trace: sink, SampleEvery: goldenSampleEvery, Attribution: true}.Execute()
	if err != nil {
		t.Fatalf("%s %s %dT: %v", app.Name, p, n, err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	profile, err := o.Attribution.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st := o.Result.Stats
	return fmt.Sprintf("%s %s %dT cycles=%d committed=%v events=%x profile=%x\n",
		app.Name, p, n, st.Cycles, st.Committed[:n], sha256.Sum256(events.Bytes()), sha256.Sum256(profile))
}

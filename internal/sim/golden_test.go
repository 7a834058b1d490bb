package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmt/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the cycle-identity golden file")

// TestCycleIdentityGolden pins simulated time: every kernel under Base and
// MMT-FXR at 2 and 4 threads must reproduce the recorded cycle count and
// per-thread committed instructions exactly. Host-side optimisations of
// the core must leave this file untouched; a deliberate timing-model
// change regenerates it with -update and says so.
func TestCycleIdentityGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, app := range workloads.All() {
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			for _, n := range []int{2, 4} {
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

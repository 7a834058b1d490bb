package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// testOptions is a short run over the two cheapest kernels.
func testOptions(t *testing.T, workload string) options {
	t.Helper()
	var apps []workloads.App
	for _, name := range []string{"swaptions", "libsvm"} {
		a, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no kernel %s", name)
		}
		apps = append(apps, a)
	}
	return options{workload: workload, seed: 7, seconds: 400 * time.Millisecond, workers: 2, apps: apps, setupReps: 1}
}

// TestAttribution injects a fixed delay into one layer at a time through
// the benchmark's own seams and checks that the traced run charges it to
// that layer's row and not to its neighbours' rows.
func TestAttribution(t *testing.T) {
	const delay = 25 * time.Millisecond
	type row struct {
		name  string
		perMS float64 // metric units per millisecond
	}
	cases := []struct {
		name       string
		workload   string
		inject     inject
		charged    row
		neighbours []row
	}{
		{
			name: "build hook", workload: "eval-mmt", inject: inject{build: delay},
			charged:    row{"workloads.build_us", 1e3},
			neighbours: []row{{"sim.run_ms", 1}, {"core.new_us", 1e3}, {"asm.assemble_us", 1e3}},
		},
		{
			name: "node handler", workload: "serve-hits", inject: inject{node: delay},
			charged:    row{"serve.submit_ms", 1},
			neighbours: []row{{"cluster.router_self_ms", 1}, {"serve.wait_ms", 1}, {"client.decode_us", 1e3}},
		},
		{
			name: "remote cache", workload: "serve-cold", inject: inject{remoteLoad: delay},
			charged:    row{"runner.remote_load_us", 1e3},
			neighbours: []row{{"cluster.cachesvc_us", 1e3}, {"runner.remote_store_us", 1e3}, {"serve.submit_ms", 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions(t, tc.workload)
			base := traceRows(t, o)
			o.inject = tc.inject
			injected := traceRows(t, o)
			ms := float64(delay) / 1e6
			rise := (injected[tc.charged.name] - base[tc.charged.name]) / tc.charged.perMS
			t.Logf("%s: %.4g -> %.4g (%+.3f ms)", tc.charged.name, base[tc.charged.name], injected[tc.charged.name], rise)
			if rise < 0.8*ms {
				t.Errorf("%s rose by %.3f ms, want at least %.3f ms", tc.charged.name, rise, 0.8*ms)
			}
			for _, n := range tc.neighbours {
				rise := (injected[n.name] - base[n.name]) / n.perMS
				t.Logf("  neighbour %s: %.4g -> %.4g (%+.3f ms)", n.name, base[n.name], injected[n.name], rise)
				if rise > 0.2*ms {
					t.Errorf("neighbour %s rose by %.3f ms (delay %.0f ms charged to the wrong layer)", n.name, rise, ms)
				}
			}
		})
	}
}

// traceRows runs one traced workload and returns its per-layer rows, plus
// the median cycle-loop span in milliseconds as "sim.run_ms".
func traceRows(t *testing.T, o options) map[string]float64 {
	t.Helper()
	m, ph, tr, err := traceOnce(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 {
		t.Fatalf("%d of %d operations failed", ph.failed, ph.attempted)
	}
	rows := map[string]float64{"sim.run_ms": median(tr.durs("sim.run")) / 1e6}
	for k, v := range m {
		rows[k] = v.Value
	}
	return rows
}

// TestAlteredReferenceFails checks the correctness gate: a reference entry
// that no longer matches the simulator makes its point fail.
func TestAlteredReferenceFails(t *testing.T) {
	o := testOptions(t, "eval-mmt")
	o.apps = o.apps[:1]
	key, err := sim.Task{App: o.apps[0], Preset: sim.PresetMMTFXR, Threads: 2}.Key()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	want := ref[key].Outcome
	if want == "" {
		t.Fatalf("no reference entry for %s", key)
	}
	saved := referenceJSON
	defer func() { referenceJSON = saved }()
	altered := "0" + want[1:]
	if altered == want {
		altered = "1" + want[1:]
	}
	referenceJSON = bytes.Replace(saved, []byte(want), []byte(altered), 1)

	ph, err := runEval(context.Background(), o, sim.PresetMMTFXR, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := len(ph.sweeps)
	if ph.failed != sweeps {
		t.Errorf("%d of %d operations failed over %d sweeps, want one per sweep", ph.failed, ph.attempted, sweeps)
	}
}

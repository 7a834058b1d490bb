package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"

	"mmt/internal/runner"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// referenceJSON holds the simulated results every run is checked against:
// the 64 eval points and the 16 attributed serve-hits keys, written by
// --write-reference at the commit the benchmark was defined on. A
// simulator-speed change must leave every entry matching.
//
//go:embed reference.json
var referenceJSON []byte

// refPoint is one reference outcome.
type refPoint struct {
	Name      string   `json:"name"`
	Key       string   `json:"key"`
	Cycles    uint64   `json:"cycles"`
	Committed []uint64 `json:"committed"`
	// Outcome is the SHA-256 of the canonical outcome encoding
	// (sim.MarshalOutcome), which covers every statistic.
	Outcome string `json:"outcome_sha256"`
}

type referenceFile struct {
	Points []refPoint `json:"points"`
}

// reference maps task keys to their reference outcomes.
type reference map[string]refPoint

func loadReference() (reference, error) {
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	ref := make(reference, len(f.Points))
	for _, p := range f.Points {
		ref[p.Key] = p
	}
	return ref, nil
}

// evalThreads are the thread counts of the eval sweeps.
var evalThreads = []int{2, 4}

// evalTasks are one eval sweep's points: every kernel at 2 and 4 threads.
func evalTasks(apps []workloads.App, p sim.Preset) []sim.Task {
	var ts []sim.Task
	for _, a := range apps {
		for _, n := range evalThreads {
			ts = append(ts, sim.Task{App: a, Preset: p, Threads: n})
		}
	}
	return ts
}

// hitSpecs are the serve-hits keys: every kernel at 2 threads under the
// default preset, plain and with an attribution profile.
func hitSpecs(apps []workloads.App) []sim.TaskSpec {
	var specs []sim.TaskSpec
	for _, a := range apps {
		for _, attr := range []bool{false, true} {
			specs = append(specs, sim.TaskSpec{App: a.Name, Threads: 2, Attribution: attr})
		}
	}
	return specs
}

// check compares an outcome's canonical encoding with the reference.
func (r reference) check(key string, raw []byte) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("no reference for key %.12s", key)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want.Outcome {
		return fmt.Errorf("%s: outcome differs from the reference (sha256 %.12s, want %.12s)", want.Name, got, want.Outcome)
	}
	return nil
}

// checkOutcome is check for a decoded outcome; it also names the first
// differing headline count, which the hash alone cannot.
func (r reference) checkOutcome(key string, out *sim.Outcome) error {
	raw, err := sim.MarshalOutcome(out)
	if err != nil {
		return err
	}
	if want, ok := r[key]; ok {
		st := out.Result.Stats
		if st.Cycles != want.Cycles || !slices.Equal(st.Committed[:len(want.Committed)], want.Committed) {
			return fmt.Errorf("%s: cycles %d committed %v, reference %d %v",
				want.Name, st.Cycles, st.Committed[:len(want.Committed)], want.Cycles, want.Committed)
		}
	}
	return r.check(key, raw)
}

// writeReference simulates every reference point and writes the file.
func writeReference(path string) error {
	apps := workloads.All()
	tasks := append(evalTasks(apps, sim.PresetBase), evalTasks(apps, sim.PresetMMTFXR)...)
	for _, s := range hitSpecs(apps) {
		if !s.Attribution {
			continue // the plain keys are MMT-FXR eval points
		}
		t, err := s.Task()
		if err != nil {
			return err
		}
		tasks = append(tasks, t)
	}
	pool, err := runner.New(context.Background(), runner.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	defer pool.Close()
	pool.Schedule(tasks...) //nolint:errcheck // Do reports the same errors per task
	var f referenceFile
	for _, t := range tasks {
		out, err := pool.Do(t)
		if err != nil {
			return err
		}
		key, err := t.Key()
		if err != nil {
			return err
		}
		raw, err := sim.MarshalOutcome(out)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(raw)
		st := out.Result.Stats
		name := t.Name()
		if t.Attribution {
			name += "/attribution"
		}
		f.Points = append(f.Points, refPoint{
			Name:      name,
			Key:       key,
			Cycles:    st.Cycles,
			Committed: append([]uint64(nil), st.Committed[:t.Threads]...),
			Outcome:   hex.EncodeToString(sum[:]),
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

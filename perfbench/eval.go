package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"mmt/internal/runner"
	"mmt/internal/sim"
)

// evalSetup is what an eval run prepares before timing: the reference,
// the sweep's points, and the functional oracle's instruction counts.
type evalSetup struct {
	ref    reference
	tasks  []sim.Task
	keys   []string
	oracle [][]uint64 // per point, per context
}

func setupEval(o options, p sim.Preset) (evalSetup, error) {
	ref, err := loadReference()
	if err != nil {
		return evalSetup{}, err
	}
	s := evalSetup{ref: ref, tasks: evalTasks(o.apps, p)}
	for _, t := range s.tasks {
		key, err := t.Key()
		if err != nil {
			return evalSetup{}, err
		}
		counts, err := oracleCounts(t)
		if err != nil {
			return evalSetup{}, err
		}
		s.keys = append(s.keys, key)
		s.oracle = append(s.oracle, counts)
	}
	return s, nil
}

// oracleCounts runs the point's program on the functional model alone and
// returns each context's dynamic instruction count, which the timing
// model's per-thread committed count must equal.
func oracleCounts(t sim.Task) ([]uint64, error) {
	sys, err := t.App.Build(t.Threads, t.Preset.IdenticalInputs())
	if err != nil {
		return nil, err
	}
	if err := sys.RunFunctional(math.MaxUint64); err != nil {
		return nil, fmt.Errorf("oracle for %s: %w", t.Name(), err)
	}
	counts := make([]uint64, len(sys.Contexts))
	for i, c := range sys.Contexts {
		counts[i] = c.DynCount
	}
	return counts, nil
}

// runEval sweeps every kernel at 2 and 4 threads under preset p through a
// fresh runner.Pool per sweep, in a seeded order, until the timed phase
// ends, and checks every point against the reference and the oracle.
func runEval(ctx context.Context, o options, p sim.Preset, tr *tracer) (*phase, error) {
	s, setupDur, setupFirst, err := timeSetup(o, func() (evalSetup, error) { return setupEval(o, p) }, nil)
	if err != nil {
		return nil, err
	}
	ph := &phase{setup: setupDur, setupFirst: setupFirst, tasks: s.tasks, outcomes: make([]*sim.Outcome, len(s.tasks))}
	rng := rand.New(rand.NewSource(o.seed))
	var fails failures
	hw := watchHeap()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < o.seconds; n++ {
		order := rng.Perm(len(s.tasks))
		sw, outs, errs, durs, err := evalSweep(ctx, o, s.tasks, order, tr)
		if err != nil {
			hw.Stop()
			return nil, err
		}
		for i, j := range order {
			ph.attempted++
			if err := checkPoint(s, j, outs[i], errs[i]); err != nil {
				fails.add("%v", err)
				ph.latMS = append(ph.latMS, failedLatencyMS)
				continue
			}
			st := outs[i].Result.Stats
			sw.insts += st.TotalCommitted()
			ph.outcomes[j] = outs[i]
			ph.latMS = append(ph.latMS, durs[s.keys[j]])
			tr.add("core.run.insts", float64(st.TotalCommitted()))
			tr.add("core.run.cycles", float64(st.Cycles))
		}
		ph.sweeps = append(ph.sweeps, sw)
	}
	ph.peakHeap = hw.Stop()
	ph.failed = fails.n
	wall, _, _ := ph.totals()
	tr.add("runner.capacity_ns", wall*1e9*float64(o.workers))
	return ph, nil
}

// checkPoint checks point j's outcome against the reference and the
// functional oracle.
func checkPoint(s evalSetup, j int, out *sim.Outcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", s.tasks[j].Name(), err)
	}
	if err := s.ref.checkOutcome(s.keys[j], out); err != nil {
		return err
	}
	if got := out.Result.Stats.Committed[:s.tasks[j].Threads]; !slices.Equal(got, s.oracle[j]) {
		return fmt.Errorf("%s: committed %v, functional oracle %v", s.tasks[j].Name(), got, s.oracle[j])
	}
	return nil
}

// evalSweep runs one sweep: a fresh pool, every point scheduled in order,
// every outcome collected. durs are the pool's simulation times in
// milliseconds, by task key.
func evalSweep(ctx context.Context, o options, tasks []sim.Task, order []int, tr *tracer) (sw sweep, outs []*sim.Outcome, errs []error, durs map[string]float64, err error) {
	var mu sync.Mutex
	durs = map[string]float64{}
	opts := runner.Options{Workers: o.workers, OnComplete: func(c runner.Completion) {
		mu.Lock()
		durs[c.Key] = float64(c.Dur) / 1e6
		mu.Unlock()
	}}
	ordered := make([]sim.Task, len(order))
	start := time.Now()
	for i, j := range order {
		ordered[i] = tasks[j]
		if tr != nil {
			ordered[i].Phase = tr.phaseHook(start)
		}
	}
	pool, err := runner.New(ctx, opts)
	if err != nil {
		return sw, nil, nil, nil, err
	}
	pool.Schedule(ordered...) //nolint:errcheck // Do reports the same errors per task
	outs = make([]*sim.Outcome, len(ordered))
	errs = make([]error, len(ordered))
	for i, t := range ordered {
		outs[i], errs[i] = pool.Do(t)
	}
	sw.wall = time.Since(start)
	sw.jobs = len(ordered)
	pool.Close()
	return sw, outs, errs, durs, nil
}

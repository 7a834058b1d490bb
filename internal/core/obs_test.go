package core

import (
	"reflect"
	"strings"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/obs"
	"mmt/internal/prog"
)

// TestObsEventsMatchStats runs the divergence workload with a Collector
// attached and cross-checks the discrete event stream against the final
// statistics: every counted divergence, remerge, catchup episode and
// rollback must appear as exactly one event.
func TestObsEventsMatchStats(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	sys := buildSys(t, divergeSrc, prog.ModeME, 2, init)
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	c.Attach(NewEventStream(col, 50))
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	counts := map[obs.EventKind]uint64{}
	var lastTS uint64
	for _, e := range col.Events {
		counts[e.Kind]++
		if e.TS < lastTS {
			t.Fatalf("events out of order: %d after %d", e.TS, lastTS)
		}
		lastTS = e.TS
	}
	for _, chk := range []struct {
		kind obs.EventKind
		want uint64
	}{
		{obs.EvDiverge, st.Divergences},
		{obs.EvRemerge, st.Remerges},
		{obs.EvCatchupStart, st.CatchupsStarted},
		{obs.EvCatchupAbort, st.CatchupsAborted},
		{obs.EvRollback, st.LVIPRollbacks},
		{obs.EvMispredict, st.Mispredicts},
	} {
		if counts[chk.kind] != chk.want {
			t.Errorf("%s events: %d, stats say %d", chk.kind, counts[chk.kind], chk.want)
		}
	}
	if st.Divergences == 0 {
		t.Fatal("workload produced no divergences; test exercises nothing")
	}

	// Periodic samples: one every 50 cycles, monotone, final occupancies
	// drained.
	if want := st.Cycles / 50; uint64(len(col.Samples)) != want {
		t.Errorf("%d samples over %d cycles (want %d)", len(col.Samples), st.Cycles, want)
	}
	for i := 1; i < len(col.Samples); i++ {
		if col.Samples[i].TS <= col.Samples[i-1].TS || col.Samples[i].Committed < col.Samples[i-1].Committed {
			t.Fatalf("samples not monotone at %d: %+v %+v", i, col.Samples[i-1], col.Samples[i])
		}
	}
}

// TestAttachDoesNotChangeSimulation: attaching the event stream must
// observe, never perturb — identical final statistics with and without it.
func TestAttachDoesNotChangeSimulation(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	plain := runDivergeLoop(t, init)
	traced := runDivergeLoop(t, init, NewEventStream(obs.NewCollector(), 10))
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("event stream changed the simulation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestCycleZeroAllocs pins the steady-state cost of the cycle loop: once
// the queues, rings and free lists have reached their high-water marks,
// simulating a cycle allocates nothing, on a merged loop and on one whose
// threads diverge and remerge every iteration (two fetch groups a cycle
// keep both paths moving there).
func TestCycleZeroAllocs(t *testing.T) {
	alternating := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	for _, tc := range []struct {
		name        string
		src         string
		init        prog.InitFunc
		fetchGroups int
	}{
		{"merged", wideLoopSrc, nil, 1},
		{"diverging", strings.Replace(divergeSrc, "li    r7, 20", "li    r7, 2000", 1), alternating, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.MaxFetchGroups = tc.fetchGroups
			c, err := New(cfg, buildSys(t, tc.src, prog.ModeME, 2, tc.init))
			if err != nil {
				t.Fatal(err)
			}
			// The first few hundred cycles fill the caches and then the
			// window.
			for c.now < 600 {
				c.Cycle()
			}
			// One run of 200 cycles: AllocsPerRun truncates the mean, so
			// a rare allocation would vanish among single-cycle runs.
			divergences := c.stats.Divergences
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 200; i++ {
					c.Cycle()
				}
			}); allocs != 0 {
				t.Errorf("200 cycles allocate %v times", allocs)
			}
			if c.allDone() {
				t.Fatalf("the program finished by cycle %d: the measured cycles were idle", c.now)
			}
			if tc.init != nil && c.stats.Divergences == divergences {
				t.Error("no divergence in the measured cycles")
			}
		})
	}
}

// BenchmarkCycleNilRecorder measures a full pipeline cycle with no recorder
// attached — the baseline the instrumentation must not regress. Run with
// -benchmem: the report asserts the allocation story the package doc
// promises.
func BenchmarkCycleNilRecorder(b *testing.B) {
	benchmarkCycle(b, false)
}

// BenchmarkCycleCollector is the same loop with a Collector attached, for
// comparing the enabled-path overhead.
func BenchmarkCycleCollector(b *testing.B) {
	benchmarkCycle(b, true)
}

func benchmarkCycle(b *testing.B, attach bool) {
	p, err := asm.Assemble("bench", wideLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	newCore := func() *Core {
		sys, err := prog.NewSystem(p, prog.ModeME, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(DefaultConfig(2), sys)
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			c.Attach(NewEventStream(obs.NewCollector(), 0))
		}
		return c
	}
	c := newCore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.allDone() {
			b.StopTimer()
			c = newCore()
			b.StartTimer()
		}
		c.Cycle()
	}
}

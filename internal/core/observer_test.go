package core

import (
	"reflect"
	"strings"
	"testing"

	"mmt/internal/prog"
)

// countingObserver counts every fact, for checking the seam fires.
type countingObserver struct {
	commits, diverges, remerges, catchupStarts, catchupAborts int
	mispredicts, hits, rollbacks, catchupCycles               int
	cycles                                                    [NumCycleComponents]uint64
}

func (o *countingObserver) Commit(now, pc uint64, class CommitClass, threads int) { o.commits++ }
func (o *countingObserver) Diverge(now uint64, thread int, pc uint64, parts int)  { o.diverges++ }
func (o *countingObserver) Remerge(now uint64, thread int, divergePC, remergePC uint64, members int, dist uint64) {
	o.remerges++
}
func (o *countingObserver) CatchupStart(now uint64, thread int, target uint64, ahead int) {
	o.catchupStarts++
}
func (o *countingObserver) CatchupAbort(now uint64, thread int, target, fetched uint64) {
	o.catchupAborts++
}
func (o *countingObserver) Mispredict(now uint64, thread int, pc uint64) { o.mispredicts++ }
func (o *countingObserver) LVIPHit(now, pc uint64)                       { o.hits++ }
func (o *countingObserver) Rollback(now uint64, thread int, pc uint64, threads int, penalty, squashed uint64) {
	o.rollbacks++
}
func (o *countingObserver) EndCycle(e CycleEnd) {
	o.cycles[e.Comp]++
	o.catchupCycles += len(e.Catchup)
}

// assertObservedCyclesZeroAllocs runs a loop whose threads diverge and
// remerge every iteration with the given observers attached and checks
// that, once warm, 200 cycles allocate nothing in the core.
func assertObservedCyclesZeroAllocs(t *testing.T, observers ...Observer) {
	t.Helper()
	src := strings.Replace(divergeSrc, "li    r7, 20", "li    r7, 2000", 1)
	alternating := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfg := DefaultConfig(2)
	cfg.MaxFetchGroups = 2
	c, err := New(cfg, buildSys(t, src, prog.ModeME, 2, alternating))
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(observers...)
	for c.now < 600 {
		c.Cycle()
	}
	divergences := c.stats.Divergences
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			c.Cycle()
		}
	}); allocs != 0 {
		t.Errorf("200 observed cycles allocate %v times", allocs)
	}
	if c.stats.Divergences == divergences {
		t.Error("no divergence in the measured cycles; test exercises nothing")
	}
}

// TestNilProbeZeroAllocs: with no observer attached every observer site
// is one length check, so an unobserved core allocates nothing.
func TestNilProbeZeroAllocs(t *testing.T) {
	assertObservedCyclesZeroAllocs(t)
}

// TestNilRecorderZeroAllocs: reporting facts to an observer that keeps
// no data allocates nothing in the core either.
func TestNilRecorderZeroAllocs(t *testing.T) {
	counts := &countingObserver{}
	assertObservedCyclesZeroAllocs(t, counts)
	if counts.diverges == 0 {
		t.Error("no divergence observed in the measured cycles")
	}
}

// TestProbeDoesNotChangeStats: an attached observer must observe, never
// perturb — identical final statistics with and without it — and its
// facts must add up: one cycle summary per cycle, one fact per counted
// divergence.
func TestProbeDoesNotChangeStats(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	counts := &countingObserver{}
	plain := runDivergeLoop(t, init)
	observed := runDivergeLoop(t, init, counts)
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observer changed the simulation:\nplain:    %+v\nobserved: %+v", plain, observed)
	}

	var total uint64
	for _, n := range counts.cycles {
		total += n
	}
	if total != observed.Cycles {
		t.Errorf("%d cycle summaries, run took %d cycles", total, observed.Cycles)
	}
	if counts.commits == 0 {
		t.Error("no commits observed")
	}
	if counts.remerges == 0 || uint64(counts.diverges) != observed.Divergences {
		t.Errorf("observed %d diverges, %d remerges; stats say %d divergences",
			counts.diverges, counts.remerges, observed.Divergences)
	}
}

// runDivergeLoop runs divergeSrc on two threads to completion with the
// given observers attached and returns its statistics.
func runDivergeLoop(t *testing.T, init prog.InitFunc, observers ...Observer) *Stats {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	c, err := New(cfg, buildSys(t, divergeSrc, prog.ModeME, 2, init))
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(observers...)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

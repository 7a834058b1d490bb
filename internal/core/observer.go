package core

import "mmt/internal/obs"

// This file is the core's one observer seam. The core reports typed facts
// — how each uop committed, divergences, remerges, catchup episodes,
// mispredicts, LVIP outcomes, rollbacks and one summary per cycle — and
// decides nothing about how they are recorded: an EventStream turns them
// into obs events and samples, prof.Profiler into per-PC attribution.
// Every site ranges over the attached observers, so a core with none pays
// one length check per site and allocates nothing.

// CommitClass classifies one committed uop for per-PC attribution
// (the per-uop view of the Fig. 5b per-instruction classes).
type CommitClass uint8

const (
	// CommitMerged: executed once for several threads (execute-identical).
	CommitMerged CommitClass = iota
	// CommitSplit: fetched merged but executed per-thread.
	CommitSplit
	// CommitSolo: fetched and executed for a single thread.
	CommitSolo
)

// CycleComponent is the CPI-stack bucket one core cycle is charged to.
// Every cycle lands in exactly one component, so over a run the
// component counts sum to Stats.Cycles. Classification priority:
// base (something committed) > rollback (inside an LVIP rollback
// redirect window) > catchup (a behind group is chasing an ahead group)
// > drain (some thread's stream is exhausted while others still run)
// > fetch-stall (no commit and none of the above — front-end or
// backpressure limited, the catch-all for memory/queue stalls).
type CycleComponent uint8

const (
	// CycBase: at least one uop committed this cycle.
	CycBase CycleComponent = iota
	// CycFetchStall: nothing committed; no more specific cause applies.
	CycFetchStall
	// CycCatchup: nothing committed while a CATCHUP episode was active.
	CycCatchup
	// CycRollback: nothing committed inside an LVIP rollback penalty
	// window.
	CycRollback
	// CycDrain: nothing committed and at least one thread has drained
	// (exhausted its stream) while the machine finishes the rest.
	CycDrain

	NumCycleComponents
)

// CycleEnd summarises one finished cycle.
type CycleEnd struct {
	// Comp is the CPI-stack component the cycle is charged to.
	Comp CycleComponent
	// Stall is the cycle's dominant backpressure cause (the first
	// structure that refused work), StallNone when nothing backed up.
	Stall obs.StallCause
	// Catchup lists the divergence site of every live group that spent
	// the cycle in CATCHUP mode. The core reuses it: it is valid only
	// during the EndCycle call.
	Catchup []uint64
	// Sample snapshots the machine after the cycle; its TS is the number
	// of cycles simulated so far, its group counts are the fetch-mode mix.
	obs.Sample
}

// Observer receives the core's facts. The core is single-threaded, so
// implementations need no locking. now is the cycle the fact happened in;
// thread is the lowest thread of the group or uop concerned; PCs are 0
// when the site is unknown (e.g. a remerge of the initial groups).
// Observing never changes simulated behaviour, only reports it.
type Observer interface {
	// Commit: one uop at pc committed with class for threads threads.
	Commit(now, pc uint64, class CommitClass, threads int)
	// Diverge: the group fetching control instruction pc split into
	// parts subgroups.
	Diverge(now uint64, thread int, pc uint64, parts int)
	// Remerge: two groups unified into one of members threads at
	// remergePC, the common PC both fetch next. The episode began at
	// divergence site divergePC and spanned dist taken branches; the
	// (divergePC, remergePC) pair is the dynamically observed
	// reconvergence edge internal/static cross-validates against its
	// post-dominator prediction.
	Remerge(now uint64, thread int, divergePC, remergePC uint64, members int, dist uint64)
	// CatchupStart: DETECT found target in the history of the group led
	// by thread ahead; the behind group starts catching up.
	CatchupStart(now uint64, thread int, target uint64, ahead int)
	// CatchupAbort: a CATCHUP episode was abandoned (target is the
	// unmatched branch target, 0 on a budget overrun) after fetching
	// fetched instructions.
	CatchupAbort(now uint64, thread int, target, fetched uint64)
	// Mispredict: a group left the front end's followed path at pc.
	Mispredict(now uint64, thread int, pc uint64)
	// LVIPHit: a merged load at pc verified value-identical.
	LVIPHit(now, pc uint64)
	// Rollback: a merged load at pc failed value verification and rolled
	// threads threads back, costing penalty redirect cycles and squashing
	// squashed uops.
	Rollback(now uint64, thread int, pc uint64, threads int, penalty, squashed uint64)
	// EndCycle closes every cycle.
	EndCycle(e CycleEnd)
}

// Attach sets the core's observers, replacing any attached before. Call it
// before Run (or between Cycle calls); with none attached the core runs
// unobserved, the zero-cost default.
func (c *Core) Attach(observers ...Observer) { c.observers = observers }

// noteStall records this cycle's dominant backpressure cause: the first
// site to report wins.
func (c *Core) noteStall(cause obs.StallCause) {
	if c.cycleStall == obs.StallNone {
		c.cycleStall = cause
	}
}

// commitClass classifies u for Observer.Commit.
func (u *uop) commitClass() CommitClass {
	switch {
	case u.execIdentical():
		return CommitMerged
	case u.fetchIdenticalOnly():
		return CommitSplit
	}
	return CommitSolo
}

// endCycle reports the cycle that just executed (index now, which began
// with committedBefore uops committed) to the observers.
func (c *Core) endCycle(now, committedBefore uint64) {
	var mix [3]int
	catchup := c.catchupSites[:0]
	for _, g := range c.groups {
		if !g.dead {
			mix[g.fetchMode()]++
			if g.ahead != nil {
				catchup = append(catchup, g.divergePC)
			}
		}
	}
	e := CycleEnd{Comp: CycFetchStall, Stall: c.cycleStall, Catchup: catchup, Sample: obs.Sample{
		TS:             c.now,
		Committed:      c.stats.TotalCommitted(),
		FetchQ:         c.fetchQ.len(),
		ROB:            c.robOcc,
		IQ:             c.iqOcc,
		LSQ:            c.lsqOcc,
		GroupsMerge:    mix[FetchMerge],
		GroupsDetect:   mix[FetchDetect],
		GroupsCatchup:  mix[FetchCatchup],
		FetchedMerge:   c.stats.FetchedByMode[FetchMerge],
		FetchedDetect:  c.stats.FetchedByMode[FetchDetect],
		FetchedCatchup: c.stats.FetchedByMode[FetchCatchup],
	}}
	switch {
	case c.stats.CommittedUops > committedBefore:
		e.Comp = CycBase
	case now < c.rollbackUntil:
		e.Comp = CycRollback
	case len(e.Catchup) > 0:
		e.Comp = CycCatchup
	case c.anyDrained():
		e.Comp = CycDrain
	}
	for _, o := range c.observers {
		o.EndCycle(e)
	}
}

// anyDrained reports whether any thread's stream is exhausted (halted or
// instruction-capped) while the machine still runs.
func (c *Core) anyDrained() bool {
	for _, s := range c.streams {
		if _, ok := s.nextPC(); !ok {
			return true
		}
	}
	return false
}

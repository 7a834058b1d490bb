package core

import "mmt/internal/isa"

// uopState tracks a micro-op through the window.
type uopState uint8

const (
	uopWaiting   uopState = iota // in IQ, operands outstanding
	uopReady                     // operands available, not yet issued
	uopIssued                    // executing
	uopDone                      // result available
	uopCommitted                 // retired
	uopSquashed                  // rolled back (LVIP mispredict)
	uopFree                      // on the core's free list (see freeUop)
)

// FetchMode is the instruction-fetch synchronization mode (paper Fig. 3a).
type FetchMode uint8

const (
	// FetchMerge: thread group fetching one shared instruction stream.
	FetchMerge FetchMode = iota
	// FetchDetect: threads on divergent paths, recording taken-branch
	// targets and searching for a remerge point.
	FetchDetect
	// FetchCatchup: a remerge point was found; the behind thread fetches
	// with boosted priority to re-join the ahead thread.
	FetchCatchup
)

func (m FetchMode) String() string {
	switch m {
	case FetchMerge:
		return "MERGE"
	case FetchDetect:
		return "DETECT"
	case FetchCatchup:
		return "CATCHUP"
	}
	return "?"
}

// destUndo records the rename-time RST state a uop overwrote, so an LVIP
// rollback can restore the speculative mapping table.
type destUndo struct {
	oldVer     uint64
	oldByMerge bool
	valid      bool
}

// uop is one micro-op in the machine. A uop fetched for several threads
// carries their ITID; after the split stage its itid reflects the threads
// it executes for (execute-identical), while fetchITID remembers the fetch
// grouping.
type uop struct {
	seq   uint64 // global age
	pc    uint64
	inst  isa.Inst
	class isa.Class

	itid      ITID // threads this uop executes/commits for
	fetchITID ITID // threads it was fetched for
	mode      FetchMode

	// Per-thread oracle results, indexed by thread id (valid for members
	// of fetchITID).
	effs [MaxThreads]isa.Effect
	// dynIdx is each member thread's dynamic-instruction index, for
	// stream rewind on rollback.
	dynIdx [MaxThreads]uint64

	state     uopState
	ndeps     int
	consumers []*uop
	doneAt    uint64

	// Split bookkeeping.
	splitOff         bool // produced by splitting a fetch-identical uop
	forcedSplit      bool // merged ME load demoted by an LVIP mispredict
	regMergeAssisted bool // execute-identical thanks to register merging

	// Memory behaviour.
	isLoad  bool
	isStore bool
	// memPerThread: the LSQ performs one access per member thread
	// (multi-execution workloads; paper Table 2).
	memPerThread bool
	lsqSlots     int

	// LVIP: merged private-memory load predicted value-identical.
	lvipPredIdent bool
	// sharedVerify: merged shared-memory load whose same-value assumption
	// is verified at completion (an intervening racy write rolls back).
	sharedVerify bool

	// Rename undo state per member thread.
	destUndo [MaxThreads]destUndo
	destVer  [MaxThreads]uint64 // version installed for each member

	// Control handling: groups whose fetch stalls until this (mis-
	// predicted) control uop resolves.
	stalledGroups []*group

	halt bool
}

// newUop takes a uop from the free list, allocating only while the
// machine has not yet reached its high-water mark of uops in flight.
func (c *Core) newUop() *uop {
	n := len(c.freeUops)
	if n == 0 {
		return &uop{}
	}
	u := c.freeUops[n-1]
	c.freeUops = c.freeUops[:n-1]
	u.state = uopWaiting
	return u
}

// freeUop zeroes u and returns it to the free list. The caller must be
// the uop's last holder: see DESIGN.md, "Uop ownership". The consumers
// and stalledGroups slices keep their capacity for the next incarnation.
func (c *Core) freeUop(u *uop) {
	consumers, stalled := u.consumers[:0], u.stalledGroups[:0]
	*u = uop{}
	u.state, u.consumers, u.stalledGroups = uopFree, consumers, stalled
	c.freeUops = append(c.freeUops, u)
}

// cloneUop returns a recycled copy of u for another split piece, with its
// own consumers and stalledGroups storage.
func (c *Core) cloneUop(u *uop) *uop {
	p := c.newUop()
	consumers, stalled := p.consumers, p.stalledGroups
	*p = *u
	p.consumers, p.stalledGroups = consumers, stalled
	p.splitOff = true
	return p
}

// wake resolves one of a waiting consumer's operands.
func wake(cons *uop) {
	switch cons.state {
	case uopWaiting:
		cons.ndeps--
		if cons.ndeps == 0 {
			cons.state = uopReady
		}
	case uopFree:
		panic("core: wake-up reached a recycled uop")
	}
}

// isMem reports whether the uop uses the LSQ.
func (u *uop) isMem() bool { return u.isLoad || u.isStore }

// execIdentical reports whether this uop executes once for several threads.
func (u *uop) execIdentical() bool { return u.itid.Count() >= 2 && !u.forcedSplit }

// fetchIdenticalOnly reports a uop fetched for several threads but split
// for execution.
func (u *uop) fetchIdenticalOnly() bool {
	return u.fetchITID.Count() >= 2 && !u.execIdentical()
}

// leader returns the representative thread id.
func (u *uop) leader() int { return u.itid.First() }

package core

import "mmt/internal/obs"

// EventStream is the Observer that renders the core's facts as an obs
// event stream: one typed event per divergence, remerge, catchup episode
// edge, mispredict, rollback and squash, edges of the stall cause and of
// the fetch-mode mix, and — when sampleEvery is non-zero — one
// occupancy/throughput sample every sampleEvery cycles.
type EventStream struct {
	rec         obs.Recorder
	sampleEvery uint64
	lastStall   obs.StallCause
	lastModeMix uint64
}

// NewEventStream returns an observer feeding rec.
func NewEventStream(rec obs.Recorder, sampleEvery uint64) *EventStream {
	return &EventStream{rec: rec, sampleEvery: sampleEvery}
}

func (s *EventStream) event(now uint64, kind obs.EventKind, track int32, pc, arg uint64) {
	s.rec.Event(obs.Event{TS: now, Kind: kind, Track: track, PC: pc, Arg: arg})
}

// Commit and LVIPHit have no event kind: the stream skips them.
func (s *EventStream) Commit(now, pc uint64, class CommitClass, threads int) {}

func (s *EventStream) Diverge(now uint64, thread int, pc uint64, parts int) {
	s.event(now, obs.EvDiverge, int32(thread), pc, uint64(parts))
}

func (s *EventStream) Remerge(now uint64, thread int, divergePC, remergePC uint64, members int, dist uint64) {
	s.event(now, obs.EvRemerge, int32(thread), remergePC, uint64(members))
}

func (s *EventStream) CatchupStart(now uint64, thread int, target uint64, ahead int) {
	s.event(now, obs.EvCatchupStart, int32(thread), target, uint64(ahead))
}

func (s *EventStream) CatchupAbort(now uint64, thread int, target, fetched uint64) {
	s.event(now, obs.EvCatchupAbort, int32(thread), target, fetched)
}

func (s *EventStream) Mispredict(now uint64, thread int, pc uint64) {
	s.event(now, obs.EvMispredict, int32(thread), pc, 0)
}

func (s *EventStream) LVIPHit(now, pc uint64) {}

func (s *EventStream) Rollback(now uint64, thread int, pc uint64, threads int, penalty, squashed uint64) {
	s.event(now, obs.EvRollback, int32(thread), pc, uint64(threads))
	if squashed > 0 {
		s.event(now, obs.EvSquash, int32(thread), pc, squashed)
	}
}

// EndCycle emits the stall-cause and fetch-mode-mix edges and the periodic
// sample, stamped with the cycle count after the cycle.
func (s *EventStream) EndCycle(e CycleEnd) {
	if e.Stall != s.lastStall {
		s.event(e.TS, obs.EvStall, obs.TrackMachine, 0, uint64(e.Stall))
		s.lastStall = e.Stall
	}
	if mix := obs.PackModeMix(e.GroupsMerge, e.GroupsDetect, e.GroupsCatchup); mix != s.lastModeMix {
		s.event(e.TS, obs.EvFetchMode, obs.TrackMachine, 0, mix)
		s.lastModeMix = mix
	}
	if s.sampleEvery > 0 && e.TS%s.sampleEvery == 0 {
		s.rec.Sample(e.Sample)
	}
}

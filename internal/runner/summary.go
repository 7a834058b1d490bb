package runner

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// JobTiming is one executed job's wall-clock duration.
type JobTiming struct {
	Name     string
	Duration time.Duration
}

// Summary is the pool's post-run report.
type Summary struct {
	Jobs        int // distinct jobs scheduled
	Executed    int // simulations actually run
	CacheHits   int // served from the persistent cache
	Failed      int
	Retries     int
	Invalidated int // corrupt/mismatched cache entries deleted
	Workers     int
	Wall        time.Duration // pool lifetime (New to Close)
	SimTime     time.Duration // aggregate simulation time across workers
	Slowest     []JobTiming   // top executed jobs by duration
}

// maxSlowest bounds how many slow jobs the summary names.
const maxSlowest = 5

// Summary snapshots the pool's counters. Call it after Close for a final
// wall-clock figure.
func (p *Pool) Summary() Summary {
	simTime, _ := p.met.runTime.Total()
	s := Summary{
		Executed:    int(p.met.executed.Value()),
		CacheHits:   int(p.met.cacheHits.Value()),
		Failed:      int(p.met.failed.Value()),
		Retries:     int(p.met.retries.Value()),
		Invalidated: int(p.met.invalidated.Value()),
		Workers:     p.opts.Workers,
		SimTime:     simTime,
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s.Jobs = len(p.jobs)
	s.Wall = p.wall
	if s.Wall == 0 {
		s.Wall = time.Since(p.start)
	}
	s.Slowest = append([]JobTiming(nil), p.slowest...)
	return s
}

// noteSlowLocked keeps jt if it is among the maxSlowest longest executed
// jobs so far; ties keep finish order (caller holds mu).
func (p *Pool) noteSlowLocked(jt JobTiming) {
	s := p.slowest
	i := sort.Search(len(s), func(i int) bool { return s[i].Duration < jt.Duration })
	if i == maxSlowest {
		return
	}
	if len(s) < maxSlowest {
		s = append(s, JobTiming{})
	}
	copy(s[i+1:], s[i:])
	s[i] = jt
	p.slowest = s
}

// Format renders the summary as the multi-line block mmtbench prints to
// stderr.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d jobs — %d simulated, %d cached, %d failed",
		s.Jobs, s.Executed, s.CacheHits, s.Failed)
	if s.Retries > 0 {
		fmt.Fprintf(&b, " (%d retries)", s.Retries)
	}
	if s.Invalidated > 0 {
		fmt.Fprintf(&b, " (%d cache entries invalidated)", s.Invalidated)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "runner: wall %s, simulation time %s across %d workers",
		s.Wall.Round(time.Millisecond), s.SimTime.Round(time.Millisecond), s.Workers)
	if s.Wall > 0 && s.SimTime > 0 {
		fmt.Fprintf(&b, " (%.1fx)", float64(s.SimTime)/float64(s.Wall))
	}
	b.WriteByte('\n')
	if len(s.Slowest) > 0 {
		b.WriteString("runner: slowest jobs:")
		for _, jt := range s.Slowest {
			fmt.Fprintf(&b, " %s %s;", jt.Name, jt.Duration.Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

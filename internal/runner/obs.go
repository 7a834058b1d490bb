package runner

import (
	"time"

	"mmt/internal/obs"
)

// poolMetrics holds the registry handles the pool counts with; Summary
// and the progress line read them back.
type poolMetrics struct {
	scheduled    *obs.Counter
	executed     *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	failed       *obs.Counter
	retries      *obs.Counter
	invalidated  *obs.Counter
	evictions    *obs.Counter
	remoteHits   *obs.Counter
	remoteMisses *obs.Counter
	remoteStores *obs.Counter
	busy         *obs.Gauge
	queued       *obs.Gauge
	queueTime    *obs.Timer
	runTime      *obs.Timer
}

func newPoolMetrics(r *obs.Registry) *poolMetrics {
	return &poolMetrics{
		scheduled:    r.Counter("mmt_runner_jobs_scheduled_total", "Distinct jobs scheduled on the pool."),
		executed:     r.Counter("mmt_runner_jobs_executed_total", "Simulations run to completion."),
		cacheHits:    r.Counter("mmt_runner_cache_hits_total", "Jobs served from the persistent result cache."),
		cacheMisses:  r.Counter("mmt_runner_cache_misses_total", "Persistent-cache lookups that missed."),
		failed:       r.Counter("mmt_runner_jobs_failed_total", "Jobs that finished with an error."),
		retries:      r.Counter("mmt_runner_retries_total", "Extra attempts consumed by failed jobs."),
		invalidated:  r.Counter("mmt_runner_cache_invalidated_total", "Corrupt or mismatched cache entries deleted."),
		evictions:    r.Counter("mmt_cache_evictions_total", "Entries evicted from the persistent cache by its byte budget."),
		remoteHits:   r.Counter("mmt_runner_remote_cache_hits_total", "Jobs served from the remote shared cache tier."),
		remoteMisses: r.Counter("mmt_runner_remote_cache_misses_total", "Remote cache lookups that missed or failed."),
		remoteStores: r.Counter("mmt_runner_remote_cache_stores_total", "Outcomes written through to the remote cache tier."),
		busy:         r.Gauge("mmt_runner_workers_busy", "Workers currently executing a job."),
		queued:       r.Gauge("mmt_runner_queue_depth", "Jobs waiting for a worker."),
		queueTime:    r.Timer("mmt_runner_queue", "Time jobs spent queued before a worker picked them up."),
		runTime:      r.Timer("mmt_runner_run", "Wall-clock time of executed simulations."),
	}
}

// sinceStart converts a pool-relative instant into the trace time domain
// (microseconds since pool start).
func (p *Pool) sinceStart(t time.Time) uint64 {
	d := t.Sub(p.start)
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// traceEvent emits one event on the pool's trace recorder, if any.
func (p *Pool) traceEvent(e obs.Event) {
	if p.opts.Trace != nil {
		p.opts.Trace.Event(e)
	}
}

// utilLoop periodically emits worker-utilization and queue-depth counter
// samples onto the trace while it is attached.
func (p *Pool) utilLoop() {
	ticker := time.NewTicker(p.opts.TraceSampleEvery)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopUtil:
			return
		case <-ticker.C:
			busy := p.met.busy.Value()
			p.mu.Lock()
			queued := len(p.queue)
			p.mu.Unlock()
			ts := p.sinceStart(time.Now())
			p.traceEvent(obs.Event{TS: ts, Kind: obs.EvCounter, Track: obs.TrackMachine,
				Name: "workers busy", Arg: uint64(busy)})
			p.traceEvent(obs.Event{TS: ts, Kind: obs.EvCounter, Track: obs.TrackMachine,
				Name: "queue depth", Arg: uint64(queued)})
		}
	}
}

// Package history samples a metrics Registry on a fixed cadence into a
// bounded ring, giving every process a short Prometheus-free time series
// of its own metrics — enough for mmtdoctor to compute rates and call out
// which counters moved during the last incident window. It lives outside
// package obs because sampling is wall-clock driven and obs sits on the
// simulator's deterministic import path.
package history

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"mmt/internal/obs"
)

// Sample is one periodic snapshot of every registered metric, flattened
// to float64 (counters and gauges as their value, timers and histograms
// as their _sum/_count pairs).
type Sample struct {
	UNS    int64              `json:"uns"`
	Values map[string]float64 `json:"values"`
}

// Response is the GET /v1/debug/metrics body: the in-process metrics
// time series, oldest first.
type Response struct {
	Service string   `json:"service,omitempty"`
	EveryMS int64    `json:"every_ms"`
	Samples []Sample `json:"samples"`
}

// DefaultCapacity bounds the in-process metrics time series: at the
// default 5s cadence it covers the last ~20 minutes.
const DefaultCapacity = 240

// Sampler drives the ring. Close stops it; a nil *Sampler is inert.
type Sampler struct {
	reg     *obs.Registry
	service string
	every   time.Duration

	mu   sync.Mutex
	ring *obs.Ring[Sample]

	stop     chan struct{}
	stopOnce sync.Once
}

// New starts sampling reg every `every` (default 5s) keeping the most
// recent `capacity` samples (<= 0 selects DefaultCapacity). The first
// sample is taken synchronously so a scrape right after boot is never
// empty.
func New(service string, reg *obs.Registry, every time.Duration, capacity int) *Sampler {
	if every <= 0 {
		every = 5 * time.Second
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	h := &Sampler{
		reg:     reg,
		service: service,
		every:   every,
		ring:    obs.NewRing[Sample](capacity),
		stop:    make(chan struct{}),
	}
	h.sample()
	go h.loop()
	return h
}

func (h *Sampler) loop() {
	t := time.NewTicker(h.every)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.sample()
		}
	}
}

// sample flattens the registry snapshot and appends it to the ring.
func (h *Sampler) sample() {
	snap := h.reg.Snapshot()
	vals := make(map[string]float64, len(snap))
	for k, v := range snap { // mmtvet:ok — builds a map, order-insensitive
		switch x := v.(type) {
		case uint64:
			vals[k] = float64(x)
		case int64:
			vals[k] = float64(x)
		case float64:
			vals[k] = x
		case int:
			vals[k] = float64(x)
		}
	}
	s := Sample{UNS: time.Now().UnixNano(), Values: vals}
	h.mu.Lock()
	h.ring.Push(s)
	h.mu.Unlock()
}

// Samples returns the ring's contents oldest first.
func (h *Sampler) Samples() []Sample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring.Snapshot()
}

// Close stops the sampler. Idempotent; the collected samples stay
// readable.
func (h *Sampler) Close() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
}

// ServeHTTP serves the time series (GET /v1/debug/metrics).
func (h *Sampler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.sample() // the freshest point rides along, so scrape deltas never lag
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(Response{ //nolint:errcheck // client went away
		Service: h.service,
		EveryMS: h.every.Milliseconds(),
		Samples: h.Samples(),
	})
}

package span

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// maxSpansBody bounds one /v1/spans response on the wire.
const maxSpansBody = 16 << 20

// SpansResponse is the GET /v1/spans?trace=... body: one process's spans
// for one trace.
type SpansResponse struct {
	Service string   `json:"service"`
	Dropped uint64   `json:"dropped,omitempty"`
	Spans   []Record `json:"spans"`
}

// TraceSummary is one trace as summarized by a single process's ring.
type TraceSummary struct {
	TraceID  string  `json:"trace_id"`
	Root     string  `json:"root"` // name of the locally rootmost span
	Spans    int     `json:"spans"`
	StartUNS int64   `json:"start_uns"`
	DurMS    float64 `json:"dur_ms"` // earliest start to latest end, locally
}

// TracesResponse is the GET /v1/spans body without a trace filter: recent
// trace summaries, newest first.
type TracesResponse struct {
	Service string         `json:"service"`
	Dropped uint64         `json:"dropped,omitempty"`
	Traces  []TraceSummary `json:"traces"`
}

// Traces summarizes the ring's traces, newest first, at most limit
// (<= 0 means 20).
func (t *Tracer) Traces(limit int) []TraceSummary {
	if limit <= 0 {
		limit = 20
	}
	byTrace := make(map[string][]Record)
	for _, r := range t.Records("") {
		byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, recs := range byTrace { // mmtvet:ok — sorted below
		out = append(out, summarize(id, recs))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUNS != out[j].StartUNS {
			return out[i].StartUNS > out[j].StartUNS
		}
		return out[i].TraceID < out[j].TraceID
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// summarize folds one trace's local records into a summary: the span
// whose parent is absent from the set (earliest such on ties) names the
// trace; the window runs earliest start to latest end.
func summarize(id string, recs []Record) TraceSummary {
	present := make(map[string]bool, len(recs))
	for _, r := range recs {
		present[r.SpanID] = true
	}
	s := TraceSummary{TraceID: id, Spans: len(recs)}
	var end int64
	for _, r := range recs {
		if s.StartUNS == 0 || r.StartUNS < s.StartUNS {
			s.StartUNS = r.StartUNS
		}
		if e := r.EndUNS(); e > end {
			end = e
		}
		if r.ParentID == "" || !present[r.ParentID] {
			if s.Root == "" || r.StartUNS <= s.StartUNS {
				s.Root = r.Name
			}
		}
	}
	if s.Root == "" && len(recs) > 0 {
		s.Root = recs[0].Name
	}
	s.DurMS = float64(end-s.StartUNS) / 1e6
	return s
}

// ServeHTTP serves the span ring: with ?trace=<id> the matching spans,
// without it recent trace summaries (?limit=N, default 20).
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if trace := r.URL.Query().Get("trace"); trace != "" {
		enc.Encode(SpansResponse{ //nolint:errcheck // client went away; nothing to do
			Service: t.Service(),
			Dropped: t.Dropped(),
			Spans:   t.Records(trace),
		})
		return
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	enc.Encode(TracesResponse{ //nolint:errcheck
		Service: t.Service(),
		Dropped: t.Dropped(),
		Traces:  t.Traces(limit),
	})
}

// FleetTrace is one trace's recent-trace summaries merged across the
// processes that hold its spans.
type FleetTrace struct {
	TraceID string
	// Root names the root span seen by the process that saw the trace
	// first (e.g. router.submit rather than a node's serve.submit).
	Root     string
	Spans    int   // spans across every process
	Procs    int   // processes holding some of its spans
	StartUNS int64 // earliest start across processes
	EndUNS   int64 // latest end across processes

	rootStart int64
}

// MergeTraces fetches each endpoint's recent trace summaries and merges
// them per trace id: newest first, or slowest first (by the fleet-wide
// wall-clock window) when bySlowest is set. reached counts the endpoints
// that answered.
func MergeTraces(ctx context.Context, hc *http.Client, eps []string, bySlowest bool) (list []FleetTrace, reached int) {
	merged := make(map[string]*FleetTrace)
	for _, ep := range eps {
		tr, err := FetchTraces(ctx, hc, ep, 100)
		if err != nil {
			continue
		}
		reached++
		for _, s := range tr.Traces {
			m := merged[s.TraceID]
			if m == nil {
				m = &FleetTrace{TraceID: s.TraceID, StartUNS: s.StartUNS}
				merged[s.TraceID] = m
			}
			m.Spans += s.Spans
			m.Procs++
			if s.StartUNS < m.StartUNS {
				m.StartUNS = s.StartUNS
			}
			if end := s.StartUNS + int64(s.DurMS*1e6); end > m.EndUNS {
				m.EndUNS = end
			}
			if m.Root == "" || s.StartUNS < m.rootStart {
				m.Root, m.rootStart = s.Root, s.StartUNS
			}
		}
	}
	list = make([]FleetTrace, 0, len(merged))
	for _, m := range merged { // mmtvet:ok — sorted below
		list = append(list, *m)
	}
	sort.Slice(list, func(i, j int) bool {
		if bySlowest {
			if di, dj := list[i].EndUNS-list[i].StartUNS, list[j].EndUNS-list[j].StartUNS; di != dj {
				return di > dj
			}
		} else if list[i].StartUNS != list[j].StartUNS {
			return list[i].StartUNS > list[j].StartUNS
		}
		return list[i].TraceID < list[j].TraceID
	})
	return list, reached
}

// FetchSpans GETs one process's spans for a trace from its /v1/spans
// endpoint. base is the process base URL (e.g. "http://127.0.0.1:8391").
func FetchSpans(ctx context.Context, hc *http.Client, base, traceID string) (SpansResponse, error) {
	var sr SpansResponse
	err := fetchJSON(ctx, hc, strings.TrimRight(base, "/")+"/v1/spans?trace="+url.QueryEscape(traceID), &sr)
	return sr, err
}

// FetchTraces GETs one process's recent trace summaries.
func FetchTraces(ctx context.Context, hc *http.Client, base string, limit int) (TracesResponse, error) {
	var tr TracesResponse
	url := strings.TrimRight(base, "/") + "/v1/spans"
	if limit > 0 {
		url += "?limit=" + strconv.Itoa(limit)
	}
	err := fetchJSON(ctx, hc, url, &tr)
	return tr, err
}

func fetchJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("span: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxSpansBody)).Decode(out)
}

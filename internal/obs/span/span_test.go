package span

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	cases := []SpanContext{
		{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"},
		{TraceID: "t-j000001-1700000000000000000", SpanID: "00f067aa0ba902b7"},
		{TraceID: "load-5-0", SpanID: "abcdef0123456789"},
		{TraceID: "x", SpanID: "0000000000000000"},
	}
	for _, sc := range cases {
		h := sc.Traceparent()
		got := Parse(h)
		if got.TraceID != sc.TraceID || got.SpanID != sc.SpanID {
			t.Errorf("Parse(%q) = %+v, want trace=%q span=%q", h, got, sc.TraceID, sc.SpanID)
		}
	}
}

func TestTraceparentHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "load-5-0", SpanID: "00f067aa0ba902b7"}
	h := make(http.Header)
	Inject(h, sc)
	if got := h.Get(Header); got != "00-load-5-0-00f067aa0ba902b7-01" {
		t.Fatalf("injected header = %q", got)
	}
	got := Extract(h)
	if got.TraceID != sc.TraceID || got.SpanID != sc.SpanID {
		t.Fatalf("Extract = %+v, want %+v", got, sc)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"01-abc-00f067aa0ba902b7-01",       // wrong version
		"00-abc-00f067aa0ba902b7-zz",       // bad flags
		"00-abc-00f067aa0ba902b-01",        // span id too short
		"00-abc-00F067AA0BA902B7-01",       // uppercase span id
		"00--00f067aa0ba902b7-01",          // empty trace id
		"00-has space-00f067aa0ba902b7-01", // space in trace id
		"00-" + strings.Repeat("x", 129) + "-00f067aa0ba902b7-01", // trace id too long
	}
	for _, h := range bad {
		if sc := Parse(h); sc.Valid() {
			t.Errorf("Parse(%q) = %+v, want invalid", h, sc)
		}
	}
}

func TestInjectSkipsInvalid(t *testing.T) {
	h := make(http.Header)
	Inject(h, SpanContext{TraceID: "only-trace"})
	if got := h.Get(Header); got != "" {
		t.Fatalf("Inject of invalid context set header %q", got)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(SpanContext{}, "x")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	// All nil-span methods must not panic.
	sp.SetAttr("k", "v")
	sp.Link(SpanContext{TraceID: "a", SpanID: "0000000000000000"})
	sp.End()
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span should have zero identity")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records("") != nil || tr.Service() != "" {
		t.Fatal("nil tracer accessors should be zero")
	}
}

func TestSpanParentage(t *testing.T) {
	tr := NewTracer("svc", 16)
	root := tr.Start(SpanContext{}, "root")
	if root.TraceID() == "" {
		t.Fatal("root should mint a trace id")
	}
	child := tr.Start(root.Context(), "child")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child should inherit trace id")
	}
	if child.Context().ParentID != root.Context().SpanID {
		t.Fatal("child parent should be root span id")
	}
	// Trace-only parent (job correlation id, no upstream span).
	sub := tr.Start(SpanContext{TraceID: "load-5-0"}, "sub")
	if sub.TraceID() != "load-5-0" || sub.Context().ParentID != "" {
		t.Fatalf("trace-only parent: got %+v", sub.Context())
	}
	child.End()
	root.End()
	sub.End()
	if tr.Len() != 3 {
		t.Fatalf("ring holds %d spans, want 3", tr.Len())
	}
	recs := tr.Records(root.TraceID())
	if len(recs) != 2 {
		t.Fatalf("Records(trace) = %d, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Service != "svc" {
			t.Fatalf("record service = %q", r.Service)
		}
	}
}

func TestSpanEndIdempotentAndAttrsFrozen(t *testing.T) {
	tr := NewTracer("svc", 16)
	sp := tr.Start(SpanContext{}, "x")
	sp.SetAttr("a", "1")
	sp.End()
	sp.SetAttr("b", "2") // after End: dropped
	sp.End()             // idempotent
	if tr.Len() != 1 {
		t.Fatalf("ring holds %d spans, want 1", tr.Len())
	}
	r := tr.Records("")[0]
	if r.Attrs["a"] != "1" {
		t.Fatalf("attrs = %v", r.Attrs)
	}
	if _, ok := r.Attrs["b"]; ok {
		t.Fatal("attr set after End should be dropped")
	}
}

func TestRingEvictionUnderOverflow(t *testing.T) {
	const capacity = 8
	tr := NewTracer("svc", capacity)
	for i := 0; i < capacity+5; i++ {
		sp := tr.Start(SpanContext{TraceID: "t"}, "s"+string(rune('a'+i)))
		sp.End()
	}
	if tr.Len() != capacity {
		t.Fatalf("ring holds %d, want %d", tr.Len(), capacity)
	}
	if tr.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", tr.Dropped())
	}
	// The newest spans survive, oldest first.
	for i, r := range tr.Records("") {
		if want := "s" + string(rune('a'+5+i)); r.Name != want {
			t.Fatalf("record %d is %q, want %q", i, r.Name, want)
		}
	}
}

func TestServeHTTPSpansAndSummaries(t *testing.T) {
	tr := NewTracer("mmtserved@x", 16)
	root := tr.Start(SpanContext{TraceID: "job-1"}, "serve.submit")
	child := tr.Start(root.Context(), "serve.exec")
	child.End()
	root.End()
	other := tr.Start(SpanContext{TraceID: "job-2"}, "serve.submit")
	other.End()

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spans?trace=job-1", nil))
	var sr SpansResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.Service != "mmtserved@x" || len(sr.Spans) != 2 {
		t.Fatalf("spans response: service=%q n=%d", sr.Service, len(sr.Spans))
	}

	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spans", nil))
	var tl TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(tl.Traces) != 2 {
		t.Fatalf("trace summaries = %d, want 2", len(tl.Traces))
	}
	for _, s := range tl.Traces {
		if s.Root != "serve.submit" {
			t.Fatalf("summary root = %q", s.Root)
		}
	}
}

func TestStitchTreeAndLinks(t *testing.T) {
	base := time.Now().UnixNano()
	recs := []Record{
		{TraceID: "t1", SpanID: "s1", Name: "router.submit", Service: "mmtrouter@r", StartUNS: base, DurNS: 10e6},
		{TraceID: "t1", SpanID: "s2", ParentID: "s1", Name: "router.forward", Service: "mmtrouter@r", StartUNS: base + 1e6, DurNS: 8e6},
		{TraceID: "t1", SpanID: "s3", ParentID: "s2", Name: "serve.submit", Service: "mmtserved@a", StartUNS: base + 2e6, DurNS: 6e6},
		{TraceID: "t1", SpanID: "s4", ParentID: "s3", Name: "serve.exec", Service: "mmtserved@a", StartUNS: base + 3e6, DurNS: 4e6},
		// Same record fetched twice (two polls of the same ring): deduped.
		{TraceID: "t1", SpanID: "s4", ParentID: "s3", Name: "serve.exec", Service: "mmtserved@a", StartUNS: base + 3e6, DurNS: 4e6},
		// A joiner in another trace linking into t1.
		{TraceID: "t2", SpanID: "j1", Name: "serve.join", Service: "mmtserved@a", StartUNS: base + 5e6, DurNS: 1e6, LinkTrace: "t1", LinkSpan: "s4"},
	}
	tree := Stitch(recs)
	if tree.Count != 5 {
		t.Fatalf("count = %d, want 5 after dedup", tree.Count)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(tree.Roots))
	}
	if got := strings.Join(tree.Services, ","); got != "mmtrouter@r,mmtserved@a" {
		t.Fatalf("services = %q", got)
	}
	// Child nesting: s1 -> s2 -> s3 -> s4.
	n := tree.Roots[0]
	for _, want := range []string{"router.submit", "router.forward", "serve.submit", "serve.exec"} {
		if n.Name != want {
			t.Fatalf("chain node = %q, want %q", n.Name, want)
		}
		if len(n.Children) > 0 {
			n = n.Children[0]
		}
	}
	// t1 is present in the tree, so the join link resolves internally.
	if links := tree.Links(); len(links) != 0 {
		t.Fatalf("links = %v, want none (target trace present)", links)
	}
	// Stitch only the joiner: its link now points outside.
	lone := Stitch(recs[5:])
	links := lone.Links()
	if len(links) != 1 || links[0].TraceID != "t1" || links[0].SpanID != "s4" {
		t.Fatalf("lone links = %+v", links)
	}
}

func TestStitchOrphanBecomesRoot(t *testing.T) {
	// Parent evicted from the ring: child must surface as a root, not vanish.
	tree := Stitch([]Record{
		{TraceID: "t1", SpanID: "s9", ParentID: "gone", Name: "runner.exec", StartUNS: 100, DurNS: 5},
	})
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "runner.exec" {
		t.Fatalf("orphan not rooted: %+v", tree.Roots)
	}
}

func TestWriteWaterfall(t *testing.T) {
	base := int64(1_700_000_000_000_000_000)
	tree := Stitch([]Record{
		{TraceID: "t1", SpanID: "s1", Name: "router.submit", Service: "mmtrouter@r", StartUNS: base, DurNS: 10e6, Attrs: map[string]string{"node": "n1"}},
		{TraceID: "t1", SpanID: "s2", ParentID: "s1", Name: "serve.exec", Service: "mmtserved@a", StartUNS: base + 2e6, DurNS: 6e6, LinkTrace: "t0", LinkSpan: "s0"},
	})
	var sb strings.Builder
	tree.WriteWaterfall(&sb)
	out := sb.String()
	for _, want := range []string{
		"2 spans from 2 processes",
		"router.submit node=n1",
		"· serve.exec",
		"link=s0@t0",
		"+10.000ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	Stitch(nil).WriteWaterfall(&empty)
	if !strings.Contains(empty.String(), "no spans") {
		t.Fatalf("empty waterfall = %q", empty.String())
	}
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{TraceID: "t", SpanID: "0123456789abcdef"}
	ctx := ContextWith(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v ok=%v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context should carry no span")
	}
}

func TestObserverSeesFinishedSpans(t *testing.T) {
	tr := NewTracer("svc", 4)
	var got []Record
	tr.SetObserver(func(r Record) { got = append(got, r) })
	sp := tr.Start(SpanContext{TraceID: "t-obs"}, "work")
	sp.SetAttr("k", "v")
	sp.End()
	sp.End() // idempotent: observer fires once
	if len(got) != 1 {
		t.Fatalf("observer called %d times, want 1", len(got))
	}
	if got[0].Name != "work" || got[0].TraceID != "t-obs" || got[0].Service != "svc" {
		t.Errorf("observed record = %+v", got[0])
	}
	tr.SetObserver(nil)
	tr.Start(SpanContext{}, "more").End()
	if len(got) != 1 {
		t.Error("unregistered observer still called")
	}
	var nilTracer *Tracer
	nilTracer.SetObserver(func(Record) {}) // must not panic
}

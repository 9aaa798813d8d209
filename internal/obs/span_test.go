package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanParentChildLinkage(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartRoot("proc", "incarnation", "proc", "p0")
	if root == nil {
		t.Fatal("root span not sampled at rate 1")
	}
	rsc := root.Context()
	if !rsc.Valid() {
		t.Fatal("root context invalid")
	}
	child := tr.StartChild(rsc, "txn", "txn")
	csc := child.Context()
	if csc.Trace != rsc.Trace {
		t.Fatalf("child trace %v != root trace %v", csc.Trace, rsc.Trace)
	}
	if csc.Span == rsc.Span {
		t.Fatal("child reused parent span ID")
	}
	child.SetName("commit")
	child.Annotate("outs", 3)
	child.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	ce, re := evs[0], evs[1]
	if ce.Kind != "txn" || ce.Name != "commit" {
		t.Fatalf("child event %s/%s, want txn/commit", ce.Kind, ce.Name)
	}
	if ce.Trace != rsc.Trace || ce.Parent != rsc.Span {
		t.Fatalf("child event trace/parent = %v/%v, want %v/%v", ce.Trace, ce.Parent, rsc.Trace, rsc.Span)
	}
	if got := ce.Attrs["outs"]; got != 3 {
		t.Fatalf("child attr outs = %v, want 3", got)
	}
	if re.Parent != 0 {
		t.Fatalf("root event parent = %v, want 0", re.Parent)
	}
}

func TestSpanRebaseJoinsOtherTrace(t *testing.T) {
	tr := NewTracer(64)
	producer := tr.StartRoot("txn", "txn")
	sp := tr.StartRoot("txn", "txn")
	own := sp.Context().Span
	sp.Rebase(producer.Context())
	if got := sp.Context(); got.Trace != producer.Context().Trace {
		t.Fatalf("rebased trace %v, want producer's %v", got.Trace, producer.Context().Trace)
	}
	if sp.Context().Span != own {
		t.Fatal("rebase must keep the span's own ID")
	}
	sp.End()
	evs := tr.Events()
	if evs[0].Parent != producer.Context().Span {
		t.Fatalf("rebased parent %v, want %v", evs[0].Parent, producer.Context().Span)
	}
	// Rebasing onto an invalid context is a no-op.
	sp2 := tr.StartRoot("txn", "txn")
	before := sp2.Context()
	sp2.Rebase(SpanContext{})
	if sp2.Context() != before {
		t.Fatal("rebase onto zero context changed the span")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartRoot("net", "op")
	ctx := ContextWith(context.Background(), root.Context())
	if got := FromContext(ctx); got != root.Context() {
		t.Fatalf("FromContext = %v, want %v", got, root.Context())
	}
	if FromContext(context.Background()).Valid() {
		t.Fatal("a context without a span carries a valid span context")
	}
}

func TestSamplingGatesRootsOnly(t *testing.T) {
	tr := NewTracer(16)
	tr.SetSampleRate(0)
	if sp := tr.StartRoot("proc", "incarnation"); sp != nil {
		t.Fatal("root sampled at rate 0")
	}
	if id := tr.NewTrace(); id != 0 {
		t.Fatal("NewTrace sampled at rate 0")
	}
	// A child of an already-sampled parent is traced regardless of rate.
	parent := SpanContext{Trace: newID(), Span: newID()}
	if sp := tr.StartChild(parent, "tuple", "in"); sp == nil {
		t.Fatal("child of sampled parent dropped at rate 0")
	}
	// StartChild of an unsampled (zero) parent never traces.
	tr.SetSampleRate(1)
	if sp := tr.StartChild(SpanContext{}, "tuple", "in"); sp != nil {
		t.Fatal("child of zero parent traced")
	}
}

func TestNilSpanAndNilTracerAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("a", "b")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// All methods must be callable on the nil span.
	sp.Annotate("k", "v")
	sp.SetName("x")
	sp.Rebase(SpanContext{Trace: 1, Span: 1})
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	sp.End()
	tr.SetSampleRate(0.5)
	if tr.NewTrace() != 0 {
		t.Fatal("nil tracer allocated a trace")
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	id := ID(0xdeadbeef12345678)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef12345678"` {
		t.Fatalf("marshal = %s", b)
	}
	var back ID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %v != %v", back, id)
	}
}

func TestTracerDropped(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Kind: "k", Name: "n"})
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("dropped = %d before wrap, want 0", d)
	}
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: "k", Name: "n"})
	}
	if d := tr.Dropped(); d != 4 {
		t.Fatalf("dropped = %d after wrap, want 4", d)
	}
	if tot := tr.Total(); tot != 8 {
		t.Fatalf("total = %d, want 8", tot)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second})
	// 90 observations in (0,10ms], 9 in (10ms,100ms], 1 in (100ms,1s].
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)

	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// p50 interpolates inside the first bucket: 50/90 of 10ms.
	frac50 := 50.0 / 90.0
	if got, want := s.Quantile(0.50), int64(frac50*float64(10*time.Millisecond)); got != want {
		t.Fatalf("p50 = %d, want %d", got, want)
	}
	// p95 lands in the second bucket (ranks 91..99): 10ms + 5/9 of 90ms.
	want95 := int64(10*time.Millisecond) + int64(5.0/9.0*float64(90*time.Millisecond))
	if got := s.Quantile(0.95); got != want95 {
		t.Fatalf("p95 = %d, want %d", got, want95)
	}
	// p100 is the last bucket; still a finite bound.
	if got := s.Quantile(1); got <= want95 || got > int64(time.Second) {
		t.Fatalf("p100 = %d out of range", got)
	}
	if s.Quantile(0) != 0 || s.Quantile(1.5) != 0 {
		t.Fatal("out-of-range q must return 0")
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}

	// Overflow ranks return the observed max.
	h2 := newHistogram([]time.Duration{time.Millisecond})
	h2.Observe(5 * time.Second)
	if got := h2.snapshot().Quantile(0.99); got != int64(5*time.Second) {
		t.Fatalf("overflow quantile = %d, want max", got)
	}
}

func TestSnapshotCarriesQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("plinda.txn")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	hs := r.Snapshot().Histograms["plinda.txn"]
	if hs.P50Nanos == 0 || hs.P95Nanos == 0 || hs.P99Nanos == 0 {
		t.Fatalf("snapshot quantiles not populated: %+v", hs)
	}
	if !(hs.P50Nanos <= hs.P95Nanos && hs.P95Nanos <= hs.P99Nanos) {
		t.Fatalf("quantiles not ordered: %+v", hs)
	}
}

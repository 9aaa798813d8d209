package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/core"
)

// Span is one recorded interval at a layer boundary. Spans of one run
// share its Rep; Parent is the span that caused this one (0 for the run
// span itself). Times are nanoseconds since the run started.
type Span struct {
	Rep    int    `json:"rep"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`          // run, txn, store.<op>, mining.<call>
	Tag    string `json:"tag,omitempty"` // leading tag of a store op's template
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Outs   int    `json:"outs,omitempty"` // tuples published by a store.commit
	Err    bool   `json:"err,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// runSpanID is the ID of a rep's root span; store ops outside any
// transaction and all mining calls hang directly under it.
const runSpanID = 1

// tracer keeps the spans of one rep in memory. Every per-layer number
// that is a time or a count at a boundary is derived from them after the
// rep ends (layers.go), so recording costs two clock reads and one
// append. The procs record concurrently, so the spans are striped over a
// few locks by span ID; one lock was a third of the tracing overhead on
// the 1 us-task workloads.
type tracer struct {
	rep     int
	base    time.Time
	next    atomic.Uint32
	stripes [8]struct {
		mu    sync.Mutex
		spans []Span
	}
}

// newTracer sizes the span slices up front: growing them while a run is
// being timed costs several times the recording itself.
func newTracer(rep, spanHint int) *tracer {
	t := &tracer{rep: rep, base: time.Now()}
	for i := range t.stripes {
		t.stripes[i].spans = make([]Span, 0, spanHint/len(t.stripes))
	}
	t.next.Store(runSpanID) // IDs above the run span's
	return t
}

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() uint32 { return t.next.Add(1) }

func (t *tracer) record(s Span) {
	s.Rep = t.rep
	st := &t.stripes[int(s.ID)%len(t.stripes)]
	st.mu.Lock()
	st.spans = append(st.spans, s)
	st.mu.Unlock()
}

// all returns the recorded spans, in no particular order; call it once
// the run has ended.
func (t *tracer) all() []Span {
	var out []Span
	for i := range t.stripes {
		out = append(out, t.stripes[i].spans...)
	}
	return out
}

// leaf records a childless span that started at start and ends now.
func (t *tracer) leaf(parent uint32, name, tag string, start int64, err error) {
	t.record(Span{ID: t.newID(), Parent: parent, Name: name, Tag: tag, Start: start, End: t.now(), Err: err != nil})
}

// WriteSpans writes one workload's spans in start order as JSON lines,
// after a header line naming the workload.
func WriteSpans(w io.Writer, workload string, spans []Span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "spans": len(spans)}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// meteredProblem is the mining boundary: a core.Problem + core.Decoder
// decorator that counts Goodness evaluations (the run's task count, in
// both passes) and, when a tracer is attached, records a span around
// every call into the mining layer. Good is a comparison and is passed
// through untimed.
type meteredProblem struct {
	core.Problem
	dec   core.Decoder
	evals atomic.Int64
	tr    *tracer // nil in the untraced pass
}

func newMeteredProblem(pr core.Problem, tr *tracer) *meteredProblem {
	return &meteredProblem{Problem: pr, dec: pr.(core.Decoder), tr: tr}
}

func (m *meteredProblem) Goodness(p core.Pattern) float64 {
	m.evals.Add(1)
	if m.tr == nil {
		return m.Problem.Goodness(p)
	}
	start := m.tr.now()
	g := m.Problem.Goodness(p)
	m.tr.leaf(runSpanID, "mining.goodness", "", start, nil)
	return g
}

func (m *meteredProblem) Children(p core.Pattern) []core.Pattern {
	if m.tr == nil {
		return m.Problem.Children(p)
	}
	start := m.tr.now()
	c := m.Problem.Children(p)
	m.tr.leaf(runSpanID, "mining.children", "", start, nil)
	return c
}

func (m *meteredProblem) Subpatterns(p core.Pattern) []core.Pattern {
	if m.tr == nil {
		return m.Problem.Subpatterns(p)
	}
	start := m.tr.now()
	s := m.Problem.Subpatterns(p)
	m.tr.leaf(runSpanID, "mining.subpatterns", "", start, nil)
	return s
}

func (m *meteredProblem) Decode(key string) (core.Pattern, error) {
	if m.tr == nil {
		return m.dec.Decode(key)
	}
	start := m.tr.now()
	p, err := m.dec.Decode(key)
	m.tr.leaf(runSpanID, "mining.decode", "", start, err)
	return p, err
}

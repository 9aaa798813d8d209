package obs

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// ID is a 64-bit trace or span identifier. It marshals as a 16-digit
// hex string so exported traces survive JSON tooling that loses
// integer precision above 2^53. The zero ID means "absent".
type ID uint64

// String renders the ID as 16 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a quoted hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the quoted hex form produced by MarshalJSON.
func (id *ID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return err
	}
	*id = ID(v)
	return nil
}

// newID returns a nonzero random identifier.
func newID() ID {
	for {
		if v := rand.Uint64(); v != 0 {
			return ID(v)
		}
	}
}

// SpanContext identifies one span within one trace. It is the unit of
// cross-process propagation: the wire protocol carries it as two
// uint64s in the request header, and the tuple space stamps stored
// tuples with the producer's span context so consumers can join the
// producer's trace. The zero value means "not traced".
type SpanContext struct {
	Trace ID
	Span  ID
}

// Valid reports whether the context identifies a sampled trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

type spanCtxKey struct{}

// ContextWith returns a context carrying sc, for propagation through
// ctx-taking call chains (InCtx, wire handlers, ...).
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// FromContext extracts the span context placed by ContextWith, or the
// zero SpanContext.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// Span is one in-flight timed operation within a trace. It is created
// by a Tracer's Start* methods and emitted into the ring buffer as an
// Event (carrying its trace, span, and parent IDs) by End. A nil *Span
// is a valid no-op receiver, so unsampled paths cost one branch.
//
// A Span is used by a single goroutine.
type Span struct {
	t      *Tracer
	sc     SpanContext
	parent ID
	kind   string
	name   string
	start  time.Time
	attrs  []any
}

// StartRoot begins a new trace with this span at its root, subject to
// the tracer's sample rate. Returns nil (no-op span) when the tracer is
// nil or the trace is not sampled.
func (t *Tracer) StartRoot(kind, name string, attrs ...any) *Span {
	if t == nil || !t.sampled() {
		return nil
	}
	return t.StartRootTrace(newID(), kind, name, attrs...)
}

// NewTrace allocates a trace ID subject to the sample rate (zero when
// not sampled). Logical processes allocate their trace once at spawn
// and root every incarnation in it via StartRootTrace, so spans from
// before a crash and after recovery share one trace.
func (t *Tracer) NewTrace() ID {
	if t == nil || !t.sampled() {
		return 0
	}
	return newID()
}

// StartRootTrace begins a root span (no parent) inside an existing
// trace. Returns nil when the tracer is nil or trace is zero.
func (t *Tracer) StartRootTrace(trace ID, kind, name string, attrs ...any) *Span {
	if t == nil || trace == 0 {
		return nil
	}
	return &Span{
		t:     t,
		sc:    SpanContext{Trace: trace, Span: newID()},
		kind:  kind,
		name:  name,
		start: time.Now(),
		attrs: attrs,
	}
}

// StartChild begins a span under parent, in parent's trace. Returns
// nil when the tracer is nil or the parent is not a sampled context,
// so propagation (not per-op sampling) decides what gets traced.
func (t *Tracer) StartChild(parent SpanContext, kind, name string, attrs ...any) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return &Span{
		t:      t,
		sc:     SpanContext{Trace: parent.Trace, Span: newID()},
		parent: parent.Span,
		kind:   kind,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// Context returns the span's identity for propagation (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Rebase re-parents the span onto a different span context, moving it
// into that context's trace. PLinda workers use it to join a
// transaction span to the trace of the task tuple it took, so a
// master's trace follows the task across processes. The span keeps its
// own span ID; only trace and parent change. No-op on nil or when the
// new parent is invalid.
func (s *Span) Rebase(parent SpanContext) {
	if s == nil || !parent.Valid() {
		return
	}
	s.sc.Trace = parent.Trace
	s.parent = parent.Span
}

// SetName replaces the span's name (decided at end for spans whose
// outcome names them, e.g. commit vs abort). No-op on nil.
func (s *Span) SetName(name string) {
	if s != nil {
		s.name = name
	}
}

// Annotate appends one attribute key/value pair. No-op on nil.
func (s *Span) Annotate(key string, value any) {
	if s != nil {
		s.attrs = append(s.attrs, key, value)
	}
}

// End closes the span and emits it as an Event into the tracer's
// ring. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	e := Event{
		Time:   s.start,
		Kind:   s.kind,
		Name:   s.name,
		Dur:    time.Since(s.start),
		Trace:  s.sc.Trace,
		Span:   s.sc.Span,
		Parent: s.parent,
	}
	if len(s.attrs) >= 2 {
		e.Attrs = make(map[string]any, len(s.attrs)/2)
		for i := 0; i+1 < len(s.attrs); i += 2 {
			k, ok := s.attrs[i].(string)
			if !ok {
				continue
			}
			e.Attrs[k] = s.attrs[i+1]
		}
	}
	s.t.Emit(e)
}

// SetSampleRate sets the fraction of new traces that are sampled
// (clamped to [0,1]; the default is 1). Child spans follow their
// parent's decision, so the rate only gates roots.
func (t *Tracer) SetSampleRate(rate float64) {
	if t == nil {
		return
	}
	t.sampleBits.Store(math.Float64bits(math.Min(1, math.Max(0, rate))))
}

func (t *Tracer) sampled() bool {
	rate := math.Float64frombits(t.sampleBits.Load())
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return rand.Float64() < rate
}

package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record: an ended Span, or one of the
// NOW simulator's virtual-time events. Kind groups events by subsystem
// ("tuple", "txn", "proc", "net", "wal", "now"); Name is the specific
// operation or outcome ("in", "commit", "incarnation", "busy", ...);
// Dur is the measured duration (a span's lifetime, a simulated task's
// execution).
//
// A span's event carries its identity: Trace groups every span of one
// distributed operation (possibly across processes), Span is this
// event's own ID, and Parent links to the enclosing span (zero for a
// root). The simulator's events leave all three zero.
type Event struct {
	Time   time.Time      `json:"time"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Dur    time.Duration  `json:"dur_ns"`
	Trace  ID             `json:"trace,omitempty"`
	Span   ID             `json:"span,omitempty"`
	Parent ID             `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Tracer is a bounded ring buffer of Events. When full, new events
// overwrite the oldest; Total reports how many were ever recorded so
// readers can detect loss. A nil *Tracer drops everything, and starts
// only nil spans. The tracer also owns the root sample rate
// (SetSampleRate).
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	total uint64

	sampleBits atomic.Uint64 // math.Float64bits of the root sample rate
}

// NewTracer returns a tracer keeping the last capacity events
// (minimum 1). New traces are sampled at rate 1 until SetSampleRate.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{buf: make([]Event, 0, capacity)}
	t.SetSampleRate(1)
	return t
}

// Emit appends a fully built event, stamping Time if unset. No-op on a
// nil receiver. Span.End is its caller for runtime operations; only the
// NOW simulator, whose events carry virtual time, emits directly.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.total%uint64(cap(t.buf))] = e
	}
	t.total++
	t.mu.Unlock()
}

// Events returns the buffered events oldest-first. Safe on nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	start := int(t.total % uint64(cap(t.buf)))
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Total reports how many events were ever recorded, including those
// already overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}

// Dropped reports how many events have been overwritten before being
// read: zero until the ring wraps, then Total - Cap. A nonzero value
// means /debug/trace no longer shows the full history.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(cap(t.buf)) {
		return 0
	}
	return t.total - uint64(cap(t.buf))
}

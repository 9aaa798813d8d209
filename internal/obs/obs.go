// Package obs is the stdlib-only observability layer of the Free
// Parallel Data Mining runtime. The dissertation argues its strategy
// choices (optimistic vs. load-balanced vs. adaptive-master, chapter 4)
// from measured task-cost distributions, idle/busy timelines, and
// tuple-space communication counts; this package provides the
// measurement substrate for the reproduction:
//
//   - Registry: named atomic Counters and Gauges plus fixed-bucket
//     latency Histograms. The hot path is lock-free (one atomic add),
//     and every instrument is nil-receiver safe, so an unobserved
//     component pays a single nil-check branch per operation.
//   - Tracer (trace.go): a bounded ring buffer of ended spans (span.go)
//     covering tuple ops, wire requests, transactions and process
//     incarnations, each under its caller's sampled trace.
//   - ServeDebug (debug.go): a live HTTP endpoint exposing
//     /debug/metrics, /debug/trace, and net/http/pprof.
//   - Default (slog.go): the process-wide log/slog logger, silent until
//     a command installs a handler.
//
// Components opt in via their Observe methods (tuplespace.Space,
// plinda.Server), struct fields (now.Cluster), or core.SetObserver
// (metrics only).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil *Counter is a valid no-op receiver, which is how
// unobserved components keep instrumentation at one branch per op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (e.g. stored tuples, live
// processes). Nil-receiver safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram upper bounds: exponential-ish
// from 1µs to 30s, sized for tuple-op and transaction latencies.
var DefBuckets = []time.Duration{
	1 * time.Microsecond,
	5 * time.Microsecond,
	25 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	2500 * time.Microsecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	250 * time.Millisecond,
	1 * time.Second,
	5 * time.Second,
	30 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// lock-free: one atomic add per bucket plus count/sum/max updates.
// Bucket i counts observations d with d <= bounds[i] (and greater than
// the previous bound); the final implicit bucket counts overflows.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	// Linear scan: bucket counts are small (≤ ~16) and the slice is
	// sorted, so this beats sort.Search's function-call overhead.
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one histogram bucket in a snapshot. UpperNanos < 0 marks
// the overflow (+Inf) bucket.
type Bucket struct {
	UpperNanos int64 `json:"le_ns"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting (individual fields are read atomically). P50/P95/P99 are
// approximate quantiles interpolated from the buckets at snapshot
// time; see Quantile for the estimation rules.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	SumNanos int64    `json:"sum_ns"`
	MaxNanos int64    `json:"max_ns"`
	P50Nanos int64    `json:"p50_ns"`
	P95Nanos int64    `json:"p95_ns"`
	P99Nanos int64    `json:"p99_ns"`
	Buckets  []Bucket `json:"buckets,omitempty"`
}

// MeanNanos returns the average observation in nanoseconds.
func (s HistogramSnapshot) MeanNanos() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNanos / s.Count
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by
// linear interpolation inside the bucket containing the target rank,
// the same scheme Prometheus's histogram_quantile uses. Ranks landing
// in the overflow (+Inf) bucket return MaxNanos — the least-wrong
// finite answer a bounded histogram can give. Returns 0 for an empty
// histogram or q out of range.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 || q > 1 {
		return 0
	}
	target := q * float64(s.Count)
	var cum int64
	var lower int64
	for _, b := range s.Buckets {
		if b.UpperNanos < 0 {
			return s.MaxNanos
		}
		prev := cum
		cum += b.Count
		if float64(cum) >= target {
			frac := (target - float64(prev)) / float64(b.Count)
			return lower + int64(frac*float64(b.UpperNanos-lower))
		}
		lower = b.UpperNanos
	}
	return s.MaxNanos
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(-1)
		if i < len(h.bounds) {
			upper = int64(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, Bucket{UpperNanos: upper, Count: n})
	}
	s.P50Nanos = s.Quantile(0.50)
	s.P95Nanos = s.Quantile(0.95)
	s.P99Nanos = s.Quantile(0.99)
	return s
}

// Registry is a namespace of metrics. Instruments are created on first
// use and shared by name thereafter; lookup takes a mutex, so callers
// on hot paths should look their instruments up once and hold the
// pointers. All methods are safe on a nil *Registry and return nil
// instruments, whose methods are in turn no-ops — attaching no
// registry costs one branch per recorded value.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (DefBuckets when none are given) if needed.
// Bounds are fixed at creation; later calls ignore them.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// shaped for JSON reporting.
type Snapshot struct {
	Time       time.Time                    `json:"time"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every instrument. Values are
// read atomically per instrument; the set of instruments is consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Time:       time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter=%d want 5", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge=%d want 7", g.Value())
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(time.Second)
	tr.StartRoot("k", "n", "a", 1).End()
	tr.Emit(Event{Kind: "k"})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Total() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if len(tr.Events()) != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", time.Millisecond, 10*time.Millisecond)
	// Boundary values land in the bucket they equal (le semantics);
	// values beyond the last bound land in the +Inf bucket.
	h.Observe(time.Millisecond)                   // le 1ms
	h.Observe(time.Millisecond + time.Nanosecond) // le 10ms
	h.Observe(10 * time.Millisecond)              // le 10ms
	h.Observe(time.Hour)                          // +Inf
	h.Observe(-time.Second)                       // clamped to 0, le 1ms
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count=%d want 5", s.Count)
	}
	if s.MaxNanos != int64(time.Hour) {
		t.Fatalf("max=%d want %d", s.MaxNanos, int64(time.Hour))
	}
	got := map[int64]int64{}
	for _, b := range s.Buckets {
		got[b.UpperNanos] = b.Count
	}
	if got[int64(time.Millisecond)] != 2 {
		t.Fatalf("le=1ms count=%d want 2 (buckets %+v)", got[int64(time.Millisecond)], s.Buckets)
	}
	if got[int64(10*time.Millisecond)] != 2 {
		t.Fatalf("le=10ms count=%d want 2 (buckets %+v)", got[int64(10*time.Millisecond)], s.Buckets)
	}
	if got[-1] != 1 {
		t.Fatalf("+Inf count=%d want 1 (buckets %+v)", got[-1], s.Buckets)
	}
	if s.MeanNanos() <= 0 {
		t.Fatalf("mean=%d want > 0", s.MeanNanos())
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	h.Observe(3 * time.Microsecond)
	s := h.snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].UpperNanos != int64(5*time.Microsecond) {
		t.Fatalf("buckets %+v, want one le=5µs", s.Buckets)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: "k", Name: fmt.Sprint(i)})
	}
	if tr.Total() != 10 {
		t.Fatalf("total=%d want 10", tr.Total())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len=%d want 4", len(ev))
	}
	// Oldest-first: the last 4 of 10 records are 6..9.
	for i, e := range ev {
		if want := fmt.Sprint(6 + i); e.Name != want {
			t.Fatalf("event %d = %q want %q", i, e.Name, want)
		}
	}
}

func TestTracerAttrs(t *testing.T) {
	tr := NewTracer(8)
	tr.StartRoot("tuple", "out", "arity", 3, "tag", "task").End()
	tr.StartRoot("tuple", "in", "dangling").End() // trailing key dropped
	tr.Emit(Event{Kind: "now", Name: "idle", Dur: 2 * time.Second})
	ev := tr.Events()
	if ev[0].Attrs["arity"] != 3 || ev[0].Attrs["tag"] != "task" {
		t.Fatalf("attrs %+v", ev[0].Attrs)
	}
	if ev[1].Attrs != nil {
		t.Fatalf("dangling attr produced %+v", ev[1].Attrs)
	}
	if ev[2].Dur != 2*time.Second {
		t.Fatalf("dur %v", ev[2].Dur)
	}
	if ev[0].Time.IsZero() || ev[2].Time.IsZero() {
		t.Fatal("time not stamped")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(128)
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("ops")
			h := r.Histogram("lat", time.Microsecond, time.Millisecond)
			ga := r.Gauge("inflight")
			for i := 0; i < per; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(time.Duration(i) * time.Nanosecond)
				tr.StartRoot("k", "n", "g", g).End()
				ga.Add(-1)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != goroutines*per {
		t.Fatalf("ops=%d want %d", got, goroutines*per)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("inflight=%d want 0", got)
	}
	if got := r.Histogram("lat").Count(); got != goroutines*per {
		t.Fatalf("hist count=%d want %d", got, goroutines*per)
	}
	if tr.Total() != goroutines*per {
		t.Fatalf("trace total=%d want %d", tr.Total(), goroutines*per)
	}
	if len(tr.Events()) != tr.Cap() {
		t.Fatalf("ring holds %d events, want full %d", len(tr.Events()), tr.Cap())
	}
	// Bucket counts must sum to the observation count.
	s := r.Histogram("lat").snapshot()
	var sum int64
	for _, b := range s.Buckets {
		sum += b.Count
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ts.out").Add(7)
	r.Gauge("ts.tuples").Set(3)
	r.Histogram("ts.wait").Observe(42 * time.Millisecond)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["ts.out"] != 7 || back.Gauges["ts.tuples"] != 3 {
		t.Fatalf("round trip lost values: %+v", back)
	}
	if back.Histograms["ts.wait"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(16)
	r.Counter("demo.ops").Add(5)
	tr.StartRoot("demo", "started").End()
	tr.StartRoot("demo", "finished").End()
	ds, err := ServeDebug("127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["demo.ops"] != 5 {
		t.Fatalf("metrics endpoint returned %+v", snap.Counters)
	}

	resp, err = http.Get("http://" + ds.Addr() + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var tail struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tail.Total != 2 || len(tail.Events) != 1 || tail.Events[0].Name != "finished" {
		t.Fatalf("trace endpoint returned %+v", tail)
	}

	resp, err = http.Get("http://" + ds.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp.StatusCode)
	}
}

// TestDefaultLoggerSilentUntilSet pins the logging contract: the
// process-wide logger formats nothing until a handler is installed, and
// once one is, each call writes one JSON object with its level, message
// and attrs.
func TestDefaultLoggerSilentUntilSet(t *testing.T) {
	defer SetDefault(nil)
	if Default().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("the unset logger is enabled")
	}
	var buf bytes.Buffer
	SetDefault(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})))
	Default().Debug("hidden")
	Default().Info("wal recovered", "records", 412)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if rec["level"] != "INFO" || rec["msg"] != "wal recovered" || rec["records"] != float64(412) {
		t.Fatalf("unexpected record: %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
		t.Fatalf("bad timestamp: %v", err)
	}
	buf.Reset()
	SetDefault(nil)
	Default().Error("dropped")
	if buf.Len() != 0 {
		t.Fatalf("the restored silent logger wrote %q", buf.String())
	}
}

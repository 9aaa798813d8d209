package core

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"freepdm/internal/durable"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// TestTraceE2ECrossProcessPLET is the distributed-tracing acceptance
// test: a PLET run where every process is a remote session against a
// WAL-backed server over TCP must produce at least one complete
// cross-process trace — the master's incarnation root span linking
// down through its transaction span, the client-side wire span, the
// server-side op span, the shard match span, and the WAL append span,
// with a worker's transaction span rebased into the same trace by the
// task tuple it took. The trace is read back the way an operator
// would: as JSON from a live /debug/trace endpoint. The same run's
// /debug/metrics snapshot must carry per-shard gauges, wire-op
// histogram buckets and the WAL append counter.
func TestTraceE2ECrossProcessPLET(t *testing.T) {
	base := newToyProblem(6, 120, 0.15, 77)
	seqRes, _ := SolveSequential(base)

	// One registry and one ring for both sides of the wire: in a real
	// deployment each process scrapes its own /debug/trace and a
	// collector joins on trace ID; sharing the ring here lets the test
	// assert the whole join from one endpoint.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 16)

	dir := t.TempDir()
	ws, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	ws.Observe(reg, tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go tuplespace.Serve(ln, ws) //nolint:errcheck

	dial := func() (tuplespace.TxnStore, error) {
		c, err := tuplespace.DialOpts(ln.Addr().String(), tuplespace.DialOptions{
			DialTimeout: time.Second,
			OpTimeout:   5 * time.Second,
			Lease:       5 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	srv := plinda.NewServerRemote(dial)
	defer srv.Close()
	srv.Observe(reg, tracer)

	dbg, err := obs.ServeDebug("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	res, err := RunPLET(srv, base, 2)
	if err != nil {
		t.Fatalf("PLET run failed: %v", err)
	}
	sameResults(t, seqRes, res, "sequential", "PLET-traced")

	// Read the trace back over HTTP, as /debug/trace serves it.
	resp, err := http.Get("http://" + dbg.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var td struct {
		Total   uint64      `json:"total"`
		Dropped uint64      `json:"dropped"`
		Events  []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	if td.Dropped != 0 {
		t.Fatalf("ring dropped %d events; the chain check needs the full history", td.Dropped)
	}
	if td.Total == 0 || len(td.Events) == 0 {
		t.Fatal("no events in /debug/trace")
	}

	// Find the master's incarnation root span and walk its trace.
	var root obs.Event
	for _, e := range td.Events {
		if e.Kind == "proc" && e.Name == "incarnation" && e.Parent == 0 &&
			e.Attrs["proc"] == "plet-master" {
			root = e
		}
	}
	if root.Span == 0 {
		t.Fatal("no root incarnation span for plet-master")
	}
	trace := root.Trace

	spans := map[obs.ID]obs.Event{}
	children := map[obs.ID][]obs.ID{}
	for _, e := range td.Events {
		if e.Trace != trace || e.Span == 0 {
			continue
		}
		spans[e.Span] = e
		children[e.Parent] = append(children[e.Parent], e.Span)
	}

	// BFS the parent links from the root: every link in the advertised
	// chain must be reachable, not merely present in the same trace.
	reachable := map[obs.ID]bool{root.Span: true}
	queue := []obs.ID{root.Span}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range children[id] {
			if !reachable[c] {
				reachable[c] = true
				queue = append(queue, c)
			}
		}
	}

	found := map[string]bool{}
	for id := range reachable {
		e := spans[id]
		proc, _ := e.Attrs["proc"].(string)
		switch {
		case e.Kind == "txn" && proc == "plet-master":
			found["master-txn"] = true
		case e.Kind == "txn" && strings.HasPrefix(proc, "plet-worker"):
			found["worker-txn"] = true
		case e.Kind == "net" && strings.HasPrefix(e.Name, "cli."):
			found["wire-client"] = true
		case e.Kind == "net" && e.Name != "lease-expired":
			found["wire-server"] = true
		case e.Kind == "tuple":
			found["tuple-match"] = true
		case e.Kind == "wal" && e.Name == "append":
			found["wal-append"] = true
		}
	}
	for _, want := range []string{
		"master-txn", "worker-txn", "wire-client", "wire-server", "tuple-match", "wal-append",
	} {
		if !found[want] {
			t.Errorf("trace %s has no reachable %s span (%d spans reachable)", trace, want, len(reachable))
		}
	}
	if t.Failed() {
		for id := range reachable {
			e := spans[id]
			t.Logf("reachable: %s/%s span=%s parent=%s attrs=%v", e.Kind, e.Name, e.Span, e.Parent, e.Attrs)
		}
	}

	// The same run's /debug/metrics snapshot must carry per-shard
	// gauges, wire-op histogram buckets and the WAL append counter.
	mresp, err := http.Get("http://" + dbg.Addr() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /debug/metrics: %v", err)
	}
	shardGauge, opBuckets := false, false
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "ts.shard.") && strings.HasSuffix(name, ".tuples") {
			shardGauge = true
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "net.op.") && len(h.Buckets) > 0 {
			opBuckets = true
		}
	}
	if !shardGauge {
		t.Errorf("/debug/metrics has no ts.shard.<i>.tuples gauge: %v", snap.Gauges)
	}
	if !opBuckets {
		t.Errorf("/debug/metrics has no net.op.<op> histogram with buckets")
	}
	if _, ok := snap.Counters["wal.appends"]; !ok {
		t.Errorf("/debug/metrics has no wal.appends counter: %v", snap.Counters)
	}
}

package core

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// TestObservedPLETOverTCPTraceCoherence runs the PLET program on a
// PLinda server whose tuple space is simultaneously served over TCP,
// kills a worker mid-run, and checks that the recorded metrics and
// trace tell a coherent story: every spawn has a matching exit, every
// transaction ended in exactly one commit or abort, every trace event is
// a span, and the wire-level instruments saw the remote client's
// traffic.
func TestObservedPLETOverTCPTraceCoherence(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)

	space := tuplespace.New()
	srv := plinda.NewServerOnStore(space)
	defer srv.Close()
	srv.Observe(reg, tracer)
	SetObserver(reg)
	defer SetObserver(nil)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go tuplespace.Serve(l, space)

	// A remote client works against the same space the PLET program
	// uses, so wire metrics and tuple metrics land in one registry.
	cl, err := tuplespace.DialOpts(l.Addr().String(), tuplespace.DialOptions{DialTimeout: time.Second, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Out(context.Background(), "remote-marker", 1); err != nil {
		t.Fatal(err)
	}

	// Kill a worker once the run is underway to exercise the respawn
	// and abort paths in the trace. The worker is suspended first and
	// killed only while it is parked at the gate of its next tuple
	// operation: there it has provably not returned, so the kill must
	// cause a respawn. (A worker that reads Running may already have
	// returned, and a kill then counts with no respawn to follow.) The
	// program may win the race and finish before the worker reaches a
	// gate, so the kill outcome is reported, not assumed.
	const victim = "plet-worker-0"
	killed := make(chan bool, 1)
	go func() {
		defer srv.Resume(victim) //nolint:errcheck — releases a worker parked after the window closed
		suspended := false
		for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
			for _, p := range srv.Processes() {
				switch {
				case p.Name != victim:
				case !suspended && p.Status != plinda.Done && p.Status != plinda.Failed:
					suspended = srv.Suspend(victim) == nil
				case p.Status == plinda.Suspended:
					killed <- srv.Kill(victim) == nil
					return
				}
			}
			runtime.Gosched() // poll tightly: a whole run can take under a millisecond
		}
		killed <- false
	}()

	pr := newToyProblem(6, 60, 0.25, 7)
	got, err := RunPLET(srv, pr, 3)
	if err != nil {
		t.Fatalf("RunPLET: %v", err)
	}
	didKill := <-killed
	want, _ := SolveSequential(pr)
	if len(got) != len(want) {
		t.Fatalf("PLET under observation returned %d results, sequential %d", len(got), len(want))
	}

	if _, ok, err := cl.Inp(context.Background(), "remote-marker", tuplespace.FormalInt); err != nil || !ok {
		t.Fatalf("remote marker withdraw: ok=%v err=%v", ok, err)
	}

	s := reg.Snapshot()

	// Process ledger: all spawned incarnations have exited.
	if s.Counters["plinda.spawns"] == 0 {
		t.Fatal("no spawns recorded")
	}
	if s.Counters["plinda.spawns"] != s.Counters["plinda.exits"] {
		t.Fatalf("spawns=%d exits=%d", s.Counters["plinda.spawns"], s.Counters["plinda.exits"])
	}
	if s.Gauges["plinda.live_procs"] != 0 {
		t.Fatalf("live_procs=%d after WaitAll", s.Gauges["plinda.live_procs"])
	}

	// Transaction ledger: every Xstart resolved to a commit or abort.
	xs, cm, ab := s.Counters["plinda.xstarts"], s.Counters["plinda.commits"], s.Counters["plinda.aborts"]
	if xs == 0 {
		t.Fatal("no transactions recorded")
	}
	if cm+ab != xs {
		t.Fatalf("commits(%d)+aborts(%d) != xstarts(%d)", cm, ab, xs)
	}
	if didKill {
		if s.Counters["plinda.kills"] != 1 || s.Counters["plinda.respawns"] == 0 {
			t.Fatalf("kills=%d respawns=%d, want 1 and >0",
				s.Counters["plinda.kills"], s.Counters["plinda.respawns"])
		}
	} else {
		t.Log("program finished before the kill landed; skipping respawn assertions")
	}

	// Tuple and wire instruments saw traffic.
	if s.Counters["ts.out"] == 0 || s.Counters["ts.in"] == 0 {
		t.Fatalf("tuple op counters empty: out=%d in=%d", s.Counters["ts.out"], s.Counters["ts.in"])
	}
	if s.Counters["net.conns"] != 1 {
		t.Fatalf("net.conns=%d want 1", s.Counters["net.conns"])
	}
	if s.Counters["net.rx_bytes"] == 0 || s.Counters["net.tx_bytes"] == 0 {
		t.Fatalf("wire byte counters empty: rx=%d tx=%d",
			s.Counters["net.rx_bytes"], s.Counters["net.tx_bytes"])
	}
	if h, ok := s.Histograms["net.op.out"]; !ok || h.Count == 0 {
		t.Fatal("no net.op.out latency observations")
	}
	if s.Counters["core.tasks"] == 0 || s.Counters["core.evaluated"] == 0 {
		t.Fatalf("core counters empty: tasks=%d evaluated=%d",
			s.Counters["core.tasks"], s.Counters["core.evaluated"])
	}

	// The trace itself balances over spans: one incarnation span per
	// spawn and respawn, one ended txn span per Xstart, and exactly one
	// master transaction carries the poison (ring must not have wrapped
	// for this to hold).
	if tracer.Total() > uint64(tracer.Cap()) {
		t.Fatalf("trace ring wrapped (%d > %d); enlarge the buffer", tracer.Total(), tracer.Cap())
	}
	var incarnations, txns, poisons int64
	for _, e := range tracer.Events() {
		if e.Trace == 0 || e.Span == 0 {
			t.Fatalf("trace event %s/%s is not a span: %+v", e.Kind, e.Name, e)
		}
		switch {
		case e.Kind == "proc" && e.Name == "incarnation":
			incarnations++
		case e.Kind == "txn":
			txns++
			if _, ok := e.Attrs["poison"]; ok && e.Attrs["proc"] == "plet-master" {
				poisons++
			}
		}
	}
	if want := s.Counters["plinda.spawns"] + s.Counters["plinda.respawns"]; incarnations != want {
		t.Fatalf("trace: %d incarnation spans, want spawns+respawns=%d", incarnations, want)
	}
	if txns != xs {
		t.Fatalf("trace: %d txn spans, want xstarts=%d", txns, xs)
	}
	if poisons != 1 {
		t.Fatalf("trace: %d master txn spans carry the poison, want 1", poisons)
	}
}

// TestObservedPLETUnsampledLeavesNoTrace runs PLET on an observed
// Space, with a TCP client's traffic beside it, at sample rate 0: no
// trace was sampled, so the ring stays empty. A trace is complete or
// absent; there is no flat fallback for unsampled operations.
func TestObservedPLETUnsampledLeavesNoTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)
	tracer.SetSampleRate(0)
	space := tuplespace.New()
	srv := plinda.NewServerOnStore(space)
	defer srv.Close()
	srv.Observe(reg, tracer)
	SetObserver(reg)
	defer SetObserver(nil)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go tuplespace.Serve(l, space)
	cl, err := tuplespace.DialOpts(l.Addr().String(), tuplespace.DialOptions{DialTimeout: time.Second, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Out(context.Background(), "remote-marker", 1); err != nil {
		t.Fatal(err)
	}

	pr := newToyProblem(6, 60, 0.25, 7)
	if _, err := RunPLET(srv, pr, 3); err != nil {
		t.Fatalf("RunPLET: %v", err)
	}
	if _, ok, err := cl.Inp(context.Background(), "remote-marker", tuplespace.FormalInt); err != nil || !ok {
		t.Fatalf("remote marker withdraw: ok=%v err=%v", ok, err)
	}
	c := reg.Snapshot().Counters
	if c["plinda.xstarts"] == 0 || c["net.conns"] != 1 {
		t.Fatalf("run unobserved: xstarts=%d net.conns=%d", c["plinda.xstarts"], c["net.conns"])
	}
	if n := tracer.Total(); n != 0 {
		t.Fatalf("unsampled run recorded %d trace events, want 0: %+v", n, tracer.Events())
	}
}

// TestObservedPLEDLevelEvents runs PLED under the observer and checks
// that the master's transaction spans and the core.* counters tell the
// level protocol as it ran: one level transaction per depth, depths
// 1, 2, … in order, whose chunks add up to core.tasks (task tuples: one
// per chunk, the level-0 seed among them, the poison not) and whose good
// add up to core.good (keys: only good patterns travel) and to the
// result list; core.evaluated
// is the workers' Goodness calls, exactly SolveSequential's; one poison
// attribute ends it.
func TestObservedPLEDLevelEvents(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)
	SetObserver(reg)
	defer SetObserver(nil)

	pr := newToyProblem(10, 200, 0.04, 82)
	want, st := SolveSequential(pr)
	const workers = 2
	levels, chunks := PLEDChunks(want, workers)
	srv := plinda.NewServer()
	defer srv.Close()
	srv.Observe(reg, tracer)
	got, err := RunPLED(srv, pr, workers)
	if err != nil {
		t.Fatalf("RunPLED: %v", err)
	}
	sameResults(t, want, got, "sequential", "PLED under observation")

	if tracer.Total() > uint64(tracer.Cap()) {
		t.Fatalf("trace ring wrapped (%d > %d); enlarge the buffer", tracer.Total(), tracer.Cap())
	}
	var depth, sumChunks, sumGood, poison int
	for _, e := range tracer.Events() {
		if e.Kind != "txn" || e.Name == "abort" || e.Attrs["proc"] != "pled-master" || e.Attrs["depth"] == nil {
			continue
		}
		if depth++; e.Attrs["depth"] != depth {
			t.Errorf("level transaction %d has depth %v", depth, e.Attrs["depth"])
		}
		sumChunks += e.Attrs["chunks"].(int)
		sumGood += e.Attrs["good"].(int)
		if _, ok := e.Attrs["poison"]; ok {
			poison++
		}
	}
	if depth != levels || sumChunks != chunks || sumGood != st.Good || poison != 1 {
		t.Errorf("trace: %d level transactions with %d chunks and %d good, %d poison; want %d levels, %d chunks, %d good, 1 poison",
			depth, sumChunks, sumGood, poison, levels, chunks, st.Good)
	}
	c := reg.Snapshot().Counters
	if c["core.tasks"] != int64(chunks) || c["core.good"] != int64(st.Good) || c["core.evaluated"] != int64(st.Evaluated) {
		t.Errorf("core.tasks %d, core.good %d, core.evaluated %d; want %d task tuples, %d good keys, %d evaluations",
			c["core.tasks"], c["core.good"], c["core.evaluated"], chunks, st.Good, st.Evaluated)
	}
}

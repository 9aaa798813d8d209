package core

import (
	"context"
	"net"
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
// transaction ended in exactly one commit or abort, and the wire-level
// instruments saw the remote client's traffic.
func TestObservedPLETOverTCPTraceCoherence(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)

	space := tuplespace.New()
	srv := plinda.NewServerOn(space)
	defer srv.Close()
	srv.Observe(reg, tracer)
	SetObserver(reg, tracer)
	defer SetObserver(nil, nil)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go tuplespace.ServeTCP(l, space)

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
	// and abort paths in the trace. The program may win the race and
	// finish first, so the kill outcome is reported, not assumed.
	killed := make(chan bool, 1)
	go func() {
		for i := 0; i < 400; i++ {
			for _, p := range srv.Processes() {
				if p.Name == "plet-worker-0" &&
					(p.Status == plinda.Running || p.Status == plinda.Blocked) {
					if srv.Kill("plet-worker-0") == nil {
						killed <- true
						return
					}
				}
			}
			time.Sleep(time.Millisecond)
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

	// The trace itself balances: spawn/respawn events match exits, and
	// begin events match commit+abort events (ring must not have
	// wrapped for this to hold).
	if tracer.Total() > uint64(tracer.Cap()) {
		t.Fatalf("trace ring wrapped (%d > %d); enlarge the buffer", tracer.Total(), tracer.Cap())
	}
	counts := map[[2]string]int{}
	for _, e := range tracer.Events() {
		counts[[2]string{e.Kind, e.Name}]++
	}
	// "spawn" and "exit" are process-level (an exit ends the process no
	// matter how many incarnations it took); "respawn" marks the extra
	// incarnations a kill caused.
	if spawns, exits := counts[[2]string{"proc", "spawn"}], counts[[2]string{"proc", "exit"}]; spawns != exits {
		t.Fatalf("trace: spawn=%d exit=%d", spawns, exits)
	}
	if got := int64(counts[[2]string{"proc", "respawn"}]); got != s.Counters["plinda.respawns"] {
		t.Fatalf("trace: respawn events=%d counter=%d", got, s.Counters["plinda.respawns"])
	}
	begins := counts[[2]string{"txn", "begin"}]
	ends := counts[[2]string{"txn", "commit"}] + counts[[2]string{"txn", "abort"}] +
		counts[[2]string{"txn", "continuation-commit"}]
	if begins == 0 || begins != ends {
		t.Fatalf("trace: txn begins=%d ends=%d", begins, ends)
	}
	if counts[[2]string{"master", "poison"}] != 1 {
		t.Fatalf("trace: poison events=%d want 1", counts[[2]string{"master", "poison"}])
	}
}

// TestObservedPLEDLevelEvents runs PLED under the observer and checks
// that the master's trace and the core.* counters tell the level
// protocol as it ran: one "level" event per master transaction, depths
// 1, 2, … in order, whose chunks add up to core.tasks (task tuples: one
// per chunk, the level-0 seed among them, the poison not) and whose good
// add up to core.good and core.results (keys: only good patterns travel,
// so the two count the same ones) and to the result list; core.evaluated
// is the workers' Goodness calls, exactly SolveSequential's; one poison
// event ends it.
func TestObservedPLEDLevelEvents(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8192)
	SetObserver(reg, tracer)
	defer SetObserver(nil, nil)

	pr := newToyProblem(10, 200, 0.04, 82)
	want, st := SolveSequential(pr)
	const workers = 2
	levels, chunks := PLEDChunks(want, workers)
	srv := plinda.NewServer()
	defer srv.Close()
	got, err := RunPLED(srv, pr, workers)
	if err != nil {
		t.Fatalf("RunPLED: %v", err)
	}
	sameResults(t, want, got, "sequential", "PLED under observation")

	var depth, sumChunks, sumGood, poison int
	for _, e := range tracer.Events() {
		switch {
		case e.Kind == "master" && e.Name == "level":
			if depth++; e.Attrs["depth"] != depth {
				t.Errorf("level event %d has depth %v", depth, e.Attrs["depth"])
			}
			sumChunks += e.Attrs["chunks"].(int)
			sumGood += e.Attrs["good"].(int)
		case e.Kind == "master" && e.Name == "poison":
			poison++
		}
	}
	if depth != levels || sumChunks != chunks || sumGood != st.Good || poison != 1 {
		t.Errorf("trace: %d level events with %d chunks and %d good, %d poison; want %d levels, %d chunks, %d good, 1 poison",
			depth, sumChunks, sumGood, poison, levels, chunks, st.Good)
	}
	c := reg.Snapshot().Counters
	if c["core.tasks"] != int64(chunks) || c["core.results"] != int64(st.Good) || c["core.good"] != int64(st.Good) || c["core.evaluated"] != int64(st.Evaluated) {
		t.Errorf("core.tasks %d, core.results %d, core.good %d, core.evaluated %d; want %d task tuples, %d result and good keys, %d evaluations",
			c["core.tasks"], c["core.results"], c["core.good"], c["core.evaluated"], chunks, st.Good, st.Evaluated)
	}
}

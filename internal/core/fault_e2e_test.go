package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"freepdm/internal/durable"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// slowProblem delays every goodness evaluation so a run lasts long
// enough for the fault-injection choreography to land mid-flight.
type slowProblem struct {
	*toyProblem
	delay time.Duration
}

func (p *slowProblem) Goodness(pat Pattern) float64 {
	time.Sleep(p.delay)
	return p.toyProblem.Goodness(pat)
}

// TestPLEDFaultInjectionRemoteWALRestart is the full fault story end
// to end: a PLED run over TCP where every process (master and
// workers) is a remote session against a WAL-backed server, a worker
// is killed mid-transaction (SIGKILL semantics: its session drops and
// the server's lease machinery restores its task tuple), and then the
// server itself is crashed and restarted from the WAL. The run must
// still produce results identical to SolveSequential. At the level
// grain this tree is 88 evaluations in 20 commits with 3 workers (the
// seed, 13 chunks, 3 levels, 3 poison exits): the killed worker holds a
// chunk of the first level or of the six-chunk second one, and the
// server goes down with three to five of the second level's six reports
// committed — the suspended master sits inside that level's transaction,
// its takes tentative, so the restart must bring them back with the WAL
// and the next master incarnation collect the level again.
func TestPLEDFaultInjectionRemoteWALRestart(t *testing.T) {
	base := newToyProblem(12, 200, 0.04, 77)
	seqRes, _ := SolveSequential(base)
	p := &slowProblem{toyProblem: base, delay: 3 * time.Millisecond}

	dir := t.TempDir()
	ds, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go tuplespace.Serve(ln, ds) //nolint:errcheck

	dial := func() (tuplespace.TxnStore, error) {
		c, err := tuplespace.DialOpts(addr, tuplespace.DialOptions{
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
			Lease:       2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	srv := plinda.NewServerRemote(dial)
	defer srv.Close()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 16)
	srv.Observe(reg, tracer)

	type outcome struct {
		res []Result
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := RunPLED(srv, p, 3)
		doneCh <- outcome{res, err}
	}()

	commits := func() int64 { return reg.Snapshot().Counters["plinda.commits"] }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			select {
			case o := <-doneCh:
				t.Fatalf("run finished while waiting for %s: res=%d err=%v", what, len(o.res), o.err)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Phase 1: kill a worker once real transactions are flowing. The
	// kill closes its session abruptly mid-transaction; the server
	// must restore its tentatively taken task for the other workers.
	waitFor("first commits", func() bool { return commits() >= 2 })
	if err := srv.Kill("pled-worker-0"); err != nil {
		t.Fatal(err)
	}

	// Phase 2: crash the server while the master is parked at a
	// suspension gate (gates sit outside any wire round trip, so the
	// crash cannot lose a commit acknowledgment), then restart it from
	// the WAL.
	waitFor("more progress", func() bool { return commits() >= 6 })
	if err := srv.Suspend("pled-master"); err != nil {
		t.Fatal(err)
	}
	waitFor("master suspension", func() bool {
		for _, pi := range srv.Processes() {
			if pi.Name == "pled-master" && pi.Status == plinda.Suspended {
				return true
			}
		}
		return false
	})

	ln.Close()
	if err := ds.Close(); err != nil {
		t.Fatalf("server crash (close): %v", err)
	}

	ds2, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatalf("restart from WAL: %v", err)
	}
	defer ds2.Close()
	if ds2.Replayed() == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go tuplespace.Serve(ln2, ds2) //nolint:errcheck

	if err := srv.Resume("pled-master"); err != nil {
		t.Fatal(err)
	}

	select {
	case o := <-doneCh:
		if o.err != nil {
			t.Fatalf("PLED run failed: %v", o.err)
		}
		sameResults(t, seqRes, o.res, "sequential", "PLED-with-faults")
	case <-time.After(60 * time.Second):
		var procs []string
		for _, pi := range srv.Processes() {
			procs = append(procs, fmt.Sprintf("%s=%s/%d", pi.Name, pi.Status, pi.Incarnation))
		}
		t.Fatalf("PLED run did not finish after server restart; procs: %v", procs)
	}

	if srv.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", srv.Kills())
	}
	if srv.Respawns() == 0 {
		t.Fatal("no respawns recorded: the injected faults were not exercised")
	}

	// Trace continuity across the injected faults: a logical process
	// allocates its trace once at spawn, so the incarnation span that
	// was open when the worker was killed and the incarnation spans
	// rooted after the respawn — on the far side of the server crash
	// and WAL recovery — must share one trace ID.
	incarnations := map[string][]obs.Event{}
	for _, e := range tracer.Events() {
		if e.Kind == "proc" && e.Name == "incarnation" {
			proc, _ := e.Attrs["proc"].(string)
			incarnations[proc] = append(incarnations[proc], e)
		}
	}
	spans := incarnations["pled-worker-0"]
	if len(spans) < 2 {
		t.Fatalf("killed worker has %d incarnation spans, want >= 2", len(spans))
	}
	incs := map[any]bool{}
	for _, e := range spans {
		if e.Trace == 0 {
			t.Fatal("incarnation span without a trace ID")
		}
		if e.Trace != spans[0].Trace {
			t.Fatalf("incarnation spans split across traces %s and %s: pre-kill and post-recovery spans must link",
				spans[0].Trace, e.Trace)
		}
		if e.Parent != 0 {
			t.Fatalf("incarnation span has parent %s, want root", e.Parent)
		}
		incs[e.Attrs["incarnation"]] = true
	}
	if len(incs) < 2 {
		t.Fatalf("incarnation spans do not cover distinct incarnations: %v", incs)
	}
	// Distinct logical processes must not share a trace.
	if mspans := incarnations["pled-master"]; len(mspans) == 0 {
		t.Fatal("no incarnation span for pled-master")
	} else if mspans[0].Trace == spans[0].Trace {
		t.Fatal("master and worker share one trace ID")
	}
}

// TestPLETRemoteWorkerKill runs PLET with every process remote and a
// worker killed mid-run; the lease abort must restore the worker's
// task so the traversal still matches the sequential solver.
func TestPLETRemoteWorkerKill(t *testing.T) { testPLETRemoteWorkerKill(t, grainDefault) }

// TestPLETBudget1Faults re-runs the worker-kill and node-kill suites at
// budget 1, the one-transaction-per-pattern protocol they were written
// against.
func TestPLETBudget1Faults(t *testing.T) {
	t.Run("RemoteWorkerKill", func(t *testing.T) { testPLETRemoteWorkerKill(t, grainBudget1) })
	t.Run("ClusterKillNodeRestart", func(t *testing.T) { testPLETClusterKillNodeRestart(t, grainBudget1) })
}

func testPLETRemoteWorkerKill(t *testing.T, g faultGrain) {
	base, p := g.problem(t, 91)
	seqRes, _ := SolveSequential(base)

	space := tuplespace.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go tuplespace.ServeTCP(ln, space) //nolint:errcheck
	defer space.Close()

	dial := func() (tuplespace.TxnStore, error) {
		c, err := tuplespace.DialOpts(ln.Addr().String(), tuplespace.DialOptions{
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
			Lease:       2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	srv := plinda.NewServerRemote(dial)
	defer srv.Close()
	reg := obs.NewRegistry()
	srv.Observe(reg, nil)

	type outcome struct {
		res []Result
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := RunPLET(srv, p, 3)
		doneCh <- outcome{res, err}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counters["plinda.commits"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for commits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Kill("plet-worker-1"); err != nil {
		t.Fatal(err)
	}

	select {
	case o := <-doneCh:
		if o.err != nil {
			t.Fatalf("PLET run failed: %v", o.err)
		}
		sameResults(t, seqRes, o.res, "sequential", "PLET-remote-with-kill")
	case <-time.After(60 * time.Second):
		t.Fatal("PLET run did not finish")
	}
}

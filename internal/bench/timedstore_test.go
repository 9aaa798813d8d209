package bench

import (
	"context"
	"net"
	"testing"
	"time"

	"freepdm/internal/core"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
	"freepdm/internal/tuplespace/storetest"
)

// serveSpace serves a fresh space on loopback for the test's lifetime.
func serveSpace(t *testing.T) string {
	t.Helper()
	s := tuplespace.NewSpace(tuplespace.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tuplespace.Serve(ln, s) //nolint:errcheck
	}()
	t.Cleanup(func() {
		ln.Close()
		s.Close()
		<-done
	})
	return ln.Addr().String()
}

func dialTimed(t *testing.T, addr string, o tuplespace.DialOptions) *timedStore {
	t.Helper()
	cl, err := tuplespace.DialOpts(addr, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return newTimedStore(cl, newTracer(0, 0))
}

// The decorator must not change behaviour: the Store conformance suite
// passes through it on the in-process space and on a TCP client.
func TestTimedStoreConformanceSpace(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		s := tuplespace.NewSpace(tuplespace.Options{})
		t.Cleanup(func() { s.Close() })
		return newTimedStore(s, newTracer(0, 0))
	})
}

func TestTimedStoreConformanceClient(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		return dialTimed(t, serveSpace(t), tuplespace.DialOptions{})
	})
}

// retryable is a stand-in for the cluster router's respawn hint.
type retryable struct{ tuplespace.TxnStore }

func (retryable) RetryableFailures() bool { return true }

// Every capability plinda probes for by type assertion must answer
// through the decorator exactly as the inner store answers.
func TestTimedStoreForwardsCapabilities(t *testing.T) {
	space := tuplespace.NewSpace(tuplespace.Options{})
	defer space.Close()
	onSpace := newTimedStore(space, newTracer(0, 0))

	if onSpace.Underlying() != space {
		t.Error("Underlying does not reach the wrapped space")
	}
	if onSpace.RetryableFailures() {
		t.Error("RetryableFailures true over a plain space")
	}
	if !newTimedStore(retryable{space}, newTracer(0, 0)).RetryableFailures() {
		t.Error("RetryableFailures dropped")
	}
	if _, ok, err := onSpace.Recover(); ok || err != nil {
		t.Errorf("Recover over a space = ok=%v err=%v, want none", ok, err)
	}
	tx, err := onSpace.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tx.(tuplespace.ContCommitter); ok {
		t.Error("a space transaction cannot store continuations, but its wrapper offers CommitCont")
	}
	tx.Abort() //nolint:errcheck

	reg := obs.NewRegistry()
	onSpace.Observe(reg, nil)
	// lint:ignore tuple-contract only the ts.out counter is read back
	if err := onSpace.Out(context.Background(), "x", 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["ts.out"]; got != 1 {
		t.Errorf("Observe did not cascade: ts.out = %d, want 1", got)
	}

	onClient := dialTimed(t, serveSpace(t), tuplespace.DialOptions{})
	if onClient.Underlying() != nil {
		t.Error("Underlying over a client is not nil")
	}
	ctx, err := onClient.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.(tuplespace.ContCommitter); !ok {
		t.Error("ContCommitter dropped from a client transaction")
	}
	ctx.Abort() //nolint:errcheck
}

// A standalone proc's continuation travels through the store: committed
// with CommitCont, fetched with Recover by the next session of the same
// name. Both must pass the decorator.
func TestContinuationThroughTimedStore(t *testing.T) {
	addr := serveSpace(t)
	opts := tuplespace.DialOptions{Name: "master", DialTimeout: time.Second}

	p := plinda.Standalone(dialTimed(t, addr, opts))
	if err := p.Xstart(); err != nil {
		t.Fatal(err)
	}
	// lint:ignore tuple-contract the test reads the continuation back, not the tuple
	if err := p.Out("task", "k"); err != nil {
		t.Fatal(err)
	}
	if err := p.Xcommit("resume-here", 7); err != nil {
		t.Fatal(err)
	}

	next := plinda.Standalone(dialTimed(t, addr, opts))
	cont, ok := next.Xrecover()
	if !ok || len(cont) != 2 || cont[0] != "resume-here" || cont[1] != 7 {
		t.Fatalf("Xrecover through the decorator = %v, %v; want [resume-here 7]", cont, ok)
	}
}

// slowProblem stretches a run so a kill lands mid-flight.
type slowProblem struct {
	*meteredProblem
}

func (p slowProblem) Goodness(pat core.Pattern) float64 {
	time.Sleep(time.Millisecond)
	return p.meteredProblem.Goodness(pat)
}

// A PLED master killed mid-run aborts its open transaction and resumes
// from its continuation with the decorator between plinda and the store;
// the results still equal SolveSequential's. Local store only: over
// per-incarnation remote sessions (the client backend) the same kill
// loses results or hangs the run when the CPUs are busy, with or without
// the decorator (README, known gaps). There the continuation's way
// through the decorator is covered by TestContinuationThroughTimedStore.
func TestPLEDMasterKillThroughTimedStore(t *testing.T) {
	pr := inputs["apriori"](7, true)
	want, st := core.SolveSequential(pr)
	be, err := bootBackend("space", t.TempDir(), newTracer(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer be.close()

	mp := slowProblem{newMeteredProblem(pr, nil)}
	killed := make(chan error, 1)
	go func() {
		for mp.evals.Load() < int64(st.Evaluated/3) {
			time.Sleep(time.Millisecond)
		}
		killed <- be.srv.Kill("pled-master")
	}()
	got, err := core.RunPLED(be.srv, mp, 2)
	if err != nil {
		t.Fatalf("RunPLED: %v", err)
	}
	if err := <-killed; err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if be.srv.Respawns() < 1 {
		t.Fatal("the master was not respawned: the kill missed the run")
	}
	if err := sameResults(want, got); err != nil {
		t.Fatalf("after the master's recovery: %v", err)
	}
}

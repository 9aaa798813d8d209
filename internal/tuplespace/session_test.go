package tuplespace

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func startSessionServer(t *testing.T) (*Space, string) {
	t.Helper()
	s := New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeTCP(ln, s) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		s.Close()
	})
	return s, ln.Addr().String()
}

// TestWireErrorIdentity verifies sentinel errors survive the wire:
// errors.Is must hold for remote callers, not just string equality.
func TestWireErrorIdentity(t *testing.T) {
	s, addr := startSessionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s.Close()
	if _, _, err := c.Inp(context.Background(), "x", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Inp on closed space: %v, want ErrClosed", err)
	}
	if err := c.Out(context.Background(), "x", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Out on closed space: %v, want ErrClosed", err)
	}
	c.Close()
	if _, err := c.In(context.Background(), "x", FormalInt); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("In on closed client: %v, want ErrClientClosed", err)
	}
}

// TestRemoteTxnCommit checks the basic wire transaction: takes are
// tentative (invisible to a second client until commit would restore
// them), and commit atomically publishes the outs.
func TestRemoteTxnCommit(t *testing.T) {
	_, addr := startSessionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if err := c.Out(context.Background(), "task", 1); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(context.Background(), "task", 1); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}
	// Tentative: the other client must not see the taken tuple.
	if _, ok, err := c2.Inp(context.Background(), "task", 1); err != nil || ok {
		t.Fatalf("tentative take visible to other session: ok=%v err=%v", ok, err)
	}
	if err := tx.Commit(context.Background(), []Tuple{{"result", 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c2.Inp(context.Background(), "result", 1); err != nil || !ok {
		t.Fatalf("committed out not visible: ok=%v err=%v", ok, err)
	}
	// Operations on a finished transaction are rejected.
	if _, _, err := tx.Inp(context.Background(), "task", 1); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("op on finished txn: %v, want ErrTxnFinished", err)
	}
}

// TestRemoteTxnAbortOnConnDrop is the kill -9 story: a client dies
// mid transaction and its tentatively taken tuples reappear for the
// other workers, while its uncommitted outs never existed.
func TestRemoteTxnAbortOnConnDrop(t *testing.T) {
	_, addr := startSessionServer(t)
	victim, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	if err := other.Out(context.Background(), "task", 7); err != nil {
		t.Fatal(err)
	}
	tx, err := victim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(context.Background(), "task", 7); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}
	// SIGKILL: abrupt connection drop, no abort message.
	victim.Close()

	// The server's teardown must restore the tuple; In blocks until it
	// does, proving no other worker can lose the task.
	got, err := other.In(context.Background(), "task", FormalInt)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].(int) != 7 {
		t.Fatalf("restored task = %v, want 7", got)
	}
}

// TestLeaseExpiryAbortsTxn partitions a leased session (no pings) and
// verifies the server aborts its transaction, restores the take, and
// fails further session operations with ErrLeaseExpired.
func TestLeaseExpiryAbortsTxn(t *testing.T) {
	_, addr := startSessionServer(t)
	// Heartbeat < 0: no background pinger — simulates a partitioned
	// (or stopped) client that holds the connection but goes silent.
	c, err := DialOpts(addr, DialOptions{Lease: 80 * time.Millisecond, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	if err := other.Out(context.Background(), "task", 3); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(context.Background(), "task", 3); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}

	// Go silent past the lease; the server must restore the take.
	got, err := other.In(context.Background(), "task", FormalInt)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].(int) != 3 {
		t.Fatalf("restored task = %v, want 3", got)
	}
	// The expired session is dead for further work, with the sentinel
	// surviving the wire.
	if _, _, err := c.Inp(context.Background(), "task", FormalInt); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("op after lease expiry: %v, want ErrLeaseExpired", err)
	}
}

// TestLeaseHeartbeatKeepsSessionAlive is the inverse: background pings
// refresh the lease, so a quiet-but-alive client outlives many lease
// periods. The lease is forty heartbeats long: the claim is that pings
// keep a session alive, not that this machine schedules the pinger
// within a few tens of milliseconds, which a race build on two busy
// CPUs does not always do.
func TestLeaseHeartbeatKeepsSessionAlive(t *testing.T) {
	_, addr := startSessionServer(t)
	const lease = 400 * time.Millisecond
	c, err := DialOpts(addr, DialOptions{Lease: lease, Heartbeat: lease / 40})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(3*lease + lease/8) // several lease periods, pinger active
	if err := c.Out(context.Background(), "alive", 1); err != nil {
		t.Fatalf("session died despite heartbeats: %v", err)
	}
	if _, ok, err := c.Inp(context.Background(), "alive", 1); err != nil || !ok {
		t.Fatalf("Inp after heartbeats: ok=%v err=%v", ok, err)
	}
}

// TestContinuationRecover commits a continuation with a transaction
// under a session name and fetches it from a later session dialed
// under the same name — the remote Xcommit/Xrecover pair.
func TestContinuationRecover(t *testing.T) {
	_, addr := startSessionServer(t)
	c, err := DialOpts(addr, DialOptions{Name: "worker-a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Recover(); err != nil || ok {
		t.Fatalf("fresh session has a continuation: ok=%v err=%v", ok, err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cc, ok := tx.(ContCommitter)
	if !ok {
		t.Fatal("client txn does not support continuation commit")
	}
	if err := cc.CommitCont(context.Background(), []Tuple{{"out", 1}}, Tuple{"state", 42}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A re-spawned incarnation under the same name recovers the
	// continuation; a differently named session does not.
	c2, err := DialOpts(addr, DialOptions{Name: "worker-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cont, ok, err := c2.Recover()
	if err != nil || !ok {
		t.Fatalf("Recover: ok=%v err=%v", ok, err)
	}
	if cont[0].(string) != "state" || cont[1].(int) != 42 {
		t.Fatalf("continuation = %v", cont)
	}
	c3, err := DialOpts(addr, DialOptions{Name: "worker-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, ok, err := c3.Recover(); err != nil || ok {
		t.Fatalf("foreign continuation leaked: ok=%v err=%v", ok, err)
	}
}

// TestInCtxCancelLocal cancels a blocked local InCtx and verifies the
// waiter is released with the context error — and that a tuple
// arriving after the cancel is not lost.
func TestInCtxCancelLocal(t *testing.T) {
	s := New()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.In(ctx, "never", FormalInt)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("InCtx after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled InCtx did not return")
	}

	// The canceled waiter must be fully unregistered: a later Out must
	// not be consumed by it.
	if err := s.Out(context.Background(), "never", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Inp(context.Background(), "never", 1); err != nil || !ok {
		t.Fatalf("tuple lost to canceled waiter: ok=%v err=%v", ok, err)
	}
}

// TestInCtxCancelRemote cancels a blocked remote In; the server-side
// waiter must be torn down so the tuple is not stolen by the dead
// request.
func TestInCtxCancelRemote(t *testing.T) {
	_, addr := startSessionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.In(ctx, "remote", FormalInt)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("remote InCtx after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled remote InCtx did not return")
	}

	if err := c.Out(context.Background(), "remote", 5); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Inp(context.Background(), "remote", 5); err != nil || !ok {
		t.Fatalf("tuple lost to canceled remote waiter: ok=%v err=%v", ok, err)
	}
}

// TestSpaceTxnLocal exercises the in-process transaction through the
// same TxnStore interface the wire uses.
func TestSpaceTxnLocal(t *testing.T) {
	var store TxnStore = New()
	defer store.Close()

	if err := store.Out(context.Background(), "t", 1); err != nil {
		t.Fatal(err)
	}
	tx, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(context.Background(), "t", 1); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Inp(context.Background(), "t", 1); err != nil || !ok {
		t.Fatalf("aborted take not restored: ok=%v err=%v", ok, err)
	}
	tx2, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(context.Background(), []Tuple{{"t", 2}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Inp(context.Background(), "t", 2); err != nil || !ok {
		t.Fatalf("committed out missing: ok=%v err=%v", ok, err)
	}
	if err := tx2.Commit(context.Background(), nil); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double commit: %v, want ErrTxnFinished", err)
	}
}

// TestRemoteTxnBeginDoesNotAwait pins the round trip Begin no longer
// makes, without a clock: against a peer that reads every frame and
// answers none, Begin returns; the transaction's first operation goes
// out behind the begin and then waits — for its own answer, and with it
// the begin's — until the connection drops, which fails it with
// ErrClientClosed.
func TestRemoteTxnBeginDoesNotAwait(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	ops := make(chan byte) // the op of each frame the peer has read
	go func() {
		defer close(ops)
		br := bufio.NewReader(srvEnd)
		var scratch []byte
		for {
			body, err := readFrame(br, &scratch)
			if err != nil {
				return
			}
			var req request
			if err := decodeRequest(body, &req); err != nil {
				t.Error(err)
				return
			}
			ops <- req.Op
		}
	}()
	c := newClient(cliEnd, bufio.NewReader(cliEnd))
	defer c.Close()

	// net.Pipe is unbuffered: Begin's write completes only once the peer
	// has read it, so the begin is on the wire when Begin returns.
	begun := make(chan Txn)
	go func() {
		tx, err := c.Begin()
		if err != nil {
			t.Error(err)
		}
		begun <- tx
	}()
	if op := <-ops; op != opTxBegin {
		t.Fatalf("first frame is %s, want txbegin", opName(op))
	}
	tx := <-begun // returns with no answer: the test hangs here otherwise

	done := make(chan error, 1)
	go func() {
		_, _, err := tx.Inp(context.Background(), "x", FormalInt)
		done <- err
	}()
	if op := <-ops; op != opInp {
		t.Fatalf("second frame is %s, want inp", opName(op))
	}
	select {
	case err := <-done:
		t.Fatalf("the first operation returned (%v) though nothing was answered", err)
	default:
	}
	srvEnd.Close()
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("first operation after the connection dropped: %v, want ErrClientClosed", err)
	}
}

// pendingLen is the number of requests the client still awaits.
func pendingLen(c *Client) int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.pending)
}

// TestRemoteTxnBeginAbortLeavesNothingPending: a transaction that does
// nothing still collects its begin's answer, on the Abort.
func TestRemoteTxnBeginAbortLeavesNothingPending(t *testing.T) {
	_, addr := startSessionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := pendingLen(c); n != 0 {
		t.Fatalf("%d requests still pending after Begin+Abort", n)
	}
}

// TestRemoteTxnBeginErrorAtFirstOp: the begin's answer is read lazily,
// so a begin the server refuses must fail the transaction's first
// operation, with the begin's error rather than the operation's own. A
// begin under an id that is already open — or id 0, which in/inp read as
// "no transaction" — is refused, and must leave the open transaction in
// the session table: overwriting it would strand its tentative takes,
// neither committed nor aborted, for good.
func TestRemoteTxnBeginErrorAtFirstOp(t *testing.T) {
	ctx := context.Background()
	s, addr := startSessionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := s.Out(ctx, "task", 1); err != nil {
		t.Fatal(err)
	}
	first, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := first.Inp(ctx, "task", 1); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}

	for _, prev := range []uint64{0, ^uint64(0)} { // the next ids: 1 again, then 0
		c.txnSeq.Store(prev)
		dup, err := c.Begin()
		if err != nil {
			t.Fatalf("Begin reported %v itself; the answer is the first operation's to collect", err)
		}
		err = dup.Abort()
		if err == nil || errors.Is(err, ErrTxnFinished) || !strings.Contains(err.Error(), "already open") {
			t.Fatalf("first operation after a begin of id %d: %v, want the begin's refusal", prev+1, err)
		}
	}
	if n := pendingLen(c); n != 0 {
		t.Fatalf("%d requests still pending", n)
	}

	// The refused begin of id 1 was followed by an abort of id 1, which
	// the server ran on the open transaction: its take is back.
	if _, ok, err := s.Inp(ctx, "task", 1); err != nil || !ok {
		t.Fatalf("the first transaction's take after the abort: ok=%v err=%v, want it restored", ok, err)
	}

	// An expired session refuses the begin with ErrLeaseExpired.
	leased, err := DialOpts(addr, DialOptions{Lease: 50 * time.Millisecond, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leased.Close()
	if _, err := leased.In(ctx, "never", FormalInt); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("In across the lease: %v, want ErrLeaseExpired", err)
	}
	tx, err := leased.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx, nil); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("first operation on an expired session: %v, want ErrLeaseExpired", err)
	}
}

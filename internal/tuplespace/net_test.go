package tuplespace

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"freepdm/internal/obs"
)

// startServer serves a fresh space on an ephemeral port and returns
// its address plus a shutdown func.
func startServer(t *testing.T) (*Space, string, func()) {
	t.Helper()
	s := New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(l, s) //nolint:errcheck
	}()
	return s, l.Addr().String(), func() {
		l.Close()
		s.Close()
		<-done
	}
}

func TestNetOutInRoundTrip(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Out(context.Background(), "task", 7, 2.5, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	tu, err := c.In(context.Background(), "task", FormalInt, FormalFloat, FormalInts)
	if err != nil {
		t.Fatal(err)
	}
	if tu[1].(int) != 7 || tu[2].(float64) != 2.5 || tu[3].([]int)[1] != 2 {
		t.Fatalf("tuple %v", tu)
	}
	if _, ok, _ := c.Inp(context.Background(), "task", FormalInt, FormalFloat, FormalInts); ok {
		t.Fatal("tuple not consumed")
	}
}

func TestNetBlockingInAcrossClients(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	got := make(chan Tuple, 1)
	go func() {
		tu, err := consumer.In(context.Background(), "late", FormalString)
		if err == nil {
			got <- tu
		}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("In returned before Out")
	default:
	}
	if err := producer.Out(context.Background(), "late", "payload"); err != nil {
		t.Fatal(err)
	}
	select {
	case tu := <-got:
		if tu[1].(string) != "payload" {
			t.Fatalf("tuple %v", tu)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked In never woke across the wire")
	}
}

func TestNetRdpAndLen(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c, _ := Dial(addr)
	defer c.Close()
	c.Out(context.Background(), "x", 1)
	if _, ok, err := c.Rdp(context.Background(), "x", FormalInt); err != nil || !ok {
		t.Fatalf("rdp: %v %v", ok, err)
	}
	n, err := c.Len()
	if err != nil || n != 1 {
		t.Fatalf("len=%d err=%v", n, err)
	}
}

func TestNetMasterWorkerVectorAddition(t *testing.T) {
	// The figure 2.4/2.5 Linda vector addition with the master and two
	// workers on separate connections — the NOW deployment shape, over
	// localhost TCP.
	_, addr, stop := startServer(t)
	defer stop()

	const n, chunks = 100, 5
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		b[i] = 3 * i
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				tu, err := c.In(context.Background(), "task", FormalInt, FormalInts, FormalInts)
				if err != nil {
					return
				}
				which := tu[1].(int)
				if which < 0 {
					return
				}
				av, bv := tu[2].([]int), tu[3].([]int)
				sum := make([]int, len(av))
				for i := range av {
					sum[i] = av[i] + bv[i]
				}
				if err := c.Out(context.Background(), "result", which, sum); err != nil {
					return
				}
			}
		}()
	}

	master, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if err := master.Out(context.Background(), "task", i, a[lo:hi], b[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	result := make([]int, n)
	for i := 0; i < chunks; i++ {
		tu, err := master.In(context.Background(), "result", i, FormalInts)
		if err != nil {
			t.Fatal(err)
		}
		copy(result[i*n/chunks:], tu[2].([]int))
	}
	for w := 0; w < 2; w++ {
		master.Out(context.Background(), "task", -1, []int(nil), []int(nil))
	}
	wg.Wait()
	for i, v := range result {
		if v != 4*i {
			t.Fatalf("result[%d]=%d want %d", i, v, 4*i)
		}
	}
}

func TestClientOpTimeoutOnHungServer(t *testing.T) {
	// A listener that accepts connections and then never responds — the
	// dead-server case. Non-blocking ops must time out instead of
	// hanging forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			writeHandshake(conn) //nolint:errcheck — complete the handshake...
			defer conn.Close()   // ...then hold open, say nothing
		}
	}()

	c, err := DialOpts(l.Addr().String(), DialOptions{DialTimeout: time.Second, OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Out(context.Background(), "x", 1)
	if err == nil {
		t.Fatal("Out against a hung server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err=%v, want a timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("Out took %v, deadline not applied", time.Since(start))
	}
	// The stream is now unusable; later ops must fail fast.
	if err := c.Out(context.Background(), "x", 2); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-timeout Out err=%v, want ErrClientClosed", err)
	}
}

func TestClientCloseUnblocksBlockedIn(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c, err := DialOpts(addr, DialOptions{DialTimeout: time.Second, OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.In(context.Background(), "never", FormalInt) // blocks: no deadline on In
		got <- err
	}()
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("blocking In returned early: %v", err)
	default:
	}
	c.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err=%v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock In")
	}
	if _, err := c.Len(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("op after Close err=%v, want ErrClientClosed", err)
	}
}

func TestNetWireMetrics(t *testing.T) {
	s, addr, stop := startServer(t)
	defer stop()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	s.Observe(reg, tr)

	c, err := Dial(addr) // dialed after Observe: new conn is counted
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := func(ctx context.Context) {
		if err := c.Out(ctx, "w", 42); err != nil {
			t.Fatal(err)
		}
		if _, err := c.In(ctx, "w", FormalInt); err != nil {
			t.Fatal(err)
		}
		// A transaction of a take and a commit is two frames: the begin
		// rides the take.
		if err := c.Out(ctx, "w", 43); err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tx.Inp(ctx, "w", FormalInt); err != nil || !ok {
			t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
		}
		if err := tx.Commit(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	ops(context.Background())
	snap := reg.Snapshot()
	if snap.Counters["net.conns"] != 1 {
		t.Fatalf("net.conns=%d want 1", snap.Counters["net.conns"])
	}
	if snap.Counters["net.rx_bytes"] == 0 || snap.Counters["net.tx_bytes"] == 0 {
		t.Fatalf("byte counters empty: %v", snap.Counters)
	}
	want := map[string]int64{"net.op.out": 2, "net.op.in": 1, "net.op.inp": 1, "net.op.txcommit": 1}
	var requests int64
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, "net.op.") {
			continue
		}
		if want[name] != h.Count {
			t.Errorf("%s observed %d requests, want %d", name, h.Count, want[name])
		}
		requests += h.Count
	}
	// One request at a time: every response is the only one queued, so
	// each is flushed on its own.
	if n := snap.Counters["net.flushes"]; n != requests || requests != 5 {
		t.Errorf("%d flushes for %d requests, want 5 of each", n, requests)
	}
	if b, c := snap.Counters["net.txn_begins"], snap.Counters["net.txn_commits"]; b != 1 || c != 1 {
		t.Errorf("%d transactions begun and %d committed, want 1 of each", b, c)
	}
	// Untraced requests leave no trace events; traced ones are each one
	// server span in the caller's trace.
	if n := tr.Total(); n != 0 {
		t.Fatalf("untraced requests recorded %d trace events, want 0", n)
	}
	root := tr.StartRoot("test", "root")
	ops(obs.ContextWith(context.Background(), root.Context()))
	var netEvents int
	for _, e := range tr.Events() {
		if e.Trace != root.Context().Trace || e.Span == 0 {
			t.Fatalf("event %s/%s outside the caller's trace: %+v", e.Kind, e.Name, e)
		}
		if e.Kind == "net" {
			netEvents++
		}
	}
	if netEvents != 5 {
		t.Fatalf("traced %d net events, want 5", netEvents)
	}
}

// TestNetDialRejectsWireVersion2: a peer speaking version 2, whose
// transactions opened with a txbegin frame of their own, fails at dial
// on either side, not as a misread frame later.
func TestNetDialRejectsWireVersion2(t *testing.T) {
	v2 := []byte(wireMagic + "\x02")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(v2)            //nolint:errcheck — the client judges the banner
		io.Copy(io.Discard, conn) //nolint:errcheck — hold the connection until the client hangs up
	}()
	if c, err := DialOpts(l.Addr().String(), DialOptions{DialTimeout: time.Second}); err == nil {
		c.Close()
		t.Fatal("dial to a version-2 server succeeded")
	} else if !strings.Contains(err.Error(), "wire version 2") {
		t.Fatalf("dial to a version-2 server: %v, want a version mismatch", err)
	}

	// The server reads a version-2 banner and hangs up: its own banner is
	// all a version-2 client gets.
	_, addr, stop := startServer(t)
	defer stop()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck — bounds a hang
	if _, err := conn.Write(v2); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading from the server: %v, want its banner and then EOF", err)
	}
	if want := wireMagic + "\x03"; string(got) != want {
		t.Fatalf("the server sent %q to a version-2 client, want only its banner %q", got, want)
	}
}

// TestNetCustomTypeRejected: a field value or a formal outside the
// built-in set, and a formal in a tuple to store (Out, OutN, Commit),
// fail on the client before any request frame is written, so the next
// operation is the first frame the server reads.
func TestNetCustomTypeRejected(t *testing.T) {
	type custom struct{ A int }
	cliEnd, srvEnd := net.Pipe()
	ops := make(chan byte, 1) // the op of the first frame the peer reads
	go func() {
		defer close(ops)
		var scratch []byte
		body, err := readFrame(bufio.NewReader(srvEnd), &scratch)
		if err != nil {
			return // the client hung up without writing a frame
		}
		var req request
		if err := decodeRequest(body, &req); err != nil {
			t.Error(err)
			return
		}
		ops <- req.Op
	}()
	c := newClient(cliEnd, bufio.NewReader(cliEnd))
	defer c.Close()

	ctx := context.Background()
	if err := c.Out(ctx, "y", custom{1}); err == nil || !strings.Contains(err.Error(), "not wire-encodable") {
		t.Fatalf("Out of a custom value: %v, want a not-wire-encodable error", err)
	}
	if _, err := c.In(ctx, "y", Formal(custom{})); err == nil || !strings.Contains(err.Error(), "not wire-encodable") {
		t.Fatalf("In with a custom formal: %v, want a not-wire-encodable error", err)
	}
	if err := c.Out(ctx, "y", FormalInt); !errors.Is(err, ErrFormalOut) {
		t.Fatalf("Out of a formal: %v, want ErrFormalOut", err)
	}
	if err := c.OutN(ctx, []Tuple{{"y", 1}, {"y", FormalInt}}); !errors.Is(err, ErrFormalOut) {
		t.Fatalf("OutN of a batch with a formal: %v, want ErrFormalOut", err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx, []Tuple{{"y", FormalInt}}); !errors.Is(err, ErrFormalOut) {
		t.Fatalf("Commit of a formal: %v, want ErrFormalOut", err)
	}
	lenErr := make(chan error, 1)
	go func() {
		_, err := c.Len()
		lenErr <- err
	}()
	if op := <-ops; op != opLen {
		t.Fatalf("the first frame on the wire is %s, want the len after the refused operations", opName(op))
	}
	srvEnd.Close()
	if err := <-lenErr; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("len after the peer hung up: %v, want ErrClientClosed", err)
	}
}

// hungServer accepts connections, completes the version handshake, and
// then never answers — the wedged-server case the op timeout exists
// for. Returns the address; teardown is registered on t.
func hungServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			writeHandshake(conn) //nolint:errcheck — complete the handshake, then say nothing
			t.Cleanup(func() { conn.Close() })
		}
	}()
	return l.Addr().String()
}

func TestInpOpTimeoutRoundTrip(t *testing.T) {
	// The probe's full round trip — request out, response back — must be
	// bounded by OpTimeout, surfacing the wrapped ErrTimeout sentinel.
	c, err := DialOpts(hungServer(t), DialOptions{DialTimeout: time.Second, OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, ok, err := c.Inp(context.Background(), "job", FormalInt)
	if ok || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Inp = ok=%v err=%v, want ErrTimeout", ok, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Inp took %v, OpTimeout not applied to the round trip", d)
	}
}

func TestRdpOpTimeoutRoundTrip(t *testing.T) {
	c, err := DialOpts(hungServer(t), DialOptions{DialTimeout: time.Second, OpTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ok, err := c.Rdp(context.Background(), "job", FormalInt)
	if ok || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Rdp = ok=%v err=%v, want ErrTimeout", ok, err)
	}
}

func TestInpRdpPreExpiredContext(t *testing.T) {
	// A context that is already done must fail before touching the
	// wire: the server sees no request and no tuple is consumed.
	s, addr, stop := startServer(t)
	defer stop()
	if err := s.Out(context.Background(), "job", 1); err != nil {
		t.Fatal(err)
	}
	c, err := DialOpts(addr, DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := c.Inp(ctx, "job", FormalInt); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Inp with canceled ctx = ok=%v err=%v, want context.Canceled", ok, err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, ok, err := c.Rdp(dctx, "job", FormalInt); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Rdp with expired ctx = ok=%v err=%v, want DeadlineExceeded", ok, err)
	}
	// The tuple was never consumed by the failed probes.
	if _, ok, err := c.Inp(context.Background(), "job", FormalInt); err != nil || !ok {
		t.Fatalf("Inp after failed probes = ok=%v err=%v: tuple was consumed", ok, err)
	}
}

package tuplespace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"freepdm/internal/obs"
)

// Tests that the Linda semantics survive the sharded space: signature
// routing, readers-before-one-taker, FIFO among takers, and Close
// reaching waiters on every shard. Run in CI under -race.

// TestNewStripeCount checks the stripe count New derives from
// GOMAXPROCS: four per P, rounded up to a power of two in [8, 256].
func TestNewStripeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, want int }{
		{1, 8}, {2, 8}, {3, 16}, {5, 32}, {16, 64}, {33, 256}, {100, 256},
	} {
		runtime.GOMAXPROCS(c.procs)
		if n := len(New().shards); n != c.want {
			t.Errorf("GOMAXPROCS %d: New() has %d shards, want %d", c.procs, n, c.want)
		}
	}
}

// newObserved returns New() with a registry attached, so a test can read
// the ts.* counters.
func newObserved() *Space {
	s := New()
	s.Observe(obs.NewRegistry(), nil)
	return s
}

// counter reads one of the space's ts.* counters.
func counter(s *Space, name string) int64 { return s.Registry().Counter(name).Value() }

// waitBlocked polls until n operations have registered and parked.
func waitBlocked(t *testing.T, s *Space, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for counter(s, "ts.blocked") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d ops blocked", counter(s, "ts.blocked"), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardedReadersServedBeforeOneTaker(t *testing.T) {
	s := newObserved()
	reads := make(chan Tuple, 3)
	took := make(chan Tuple, 1)
	// Register reader, taker, reader, reader — every reader must see the
	// tuple regardless of its position relative to the winning taker.
	go func() {
		tu, err := s.Rd(context.Background(), "mix", FormalInt)
		if err == nil {
			reads <- tu
		}
	}()
	waitBlocked(t, s, 1)
	go func() {
		tu, err := s.In(context.Background(), "mix", FormalInt)
		if err == nil {
			took <- tu
		}
	}()
	waitBlocked(t, s, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tu, err := s.Rd(context.Background(), "mix", FormalInt)
			if err == nil {
				reads <- tu
			}
		}()
	}
	waitBlocked(t, s, 4)
	s.Out(context.Background(), "mix", 7)
	for i := 0; i < 3; i++ {
		select {
		case tu := <-reads:
			if tu[1].(int) != 7 {
				t.Fatalf("reader %d got %v", i, tu)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("reader %d not served", i)
		}
	}
	select {
	case tu := <-took:
		if tu[1].(int) != 7 {
			t.Fatalf("taker got %v", tu)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("taker not served")
	}
	if slen(s) != 0 {
		t.Fatalf("Len=%d after take, want 0", slen(s))
	}
}

func TestShardedTakerFIFO(t *testing.T) {
	s := newObserved()
	const takers = 6
	woke := make(chan int, takers)
	for i := 0; i < takers; i++ {
		i := i
		go func() {
			if _, err := s.In(context.Background(), "fifo", FormalInt); err == nil {
				woke <- i
			}
		}()
		// Each taker must be parked before the next registers, so
		// arrival order is deterministic.
		waitBlocked(t, s, int64(i+1))
	}
	for i := 0; i < takers; i++ {
		s.Out(context.Background(), "fifo", i)
		select {
		case got := <-woke:
			if got != i {
				t.Fatalf("wake %d went to taker %d: not FIFO", i, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no taker woke for Out %d", i)
		}
	}
}

func TestCloseReleasesWaitersOnEveryShard(t *testing.T) {
	s := newObserved()
	const n = 24
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		tag := fmt.Sprintf("shardtag-%d", i) // spread across shards
		go func() {
			_, err := s.In(context.Background(), tag, FormalInt)
			errs <- err
		}()
	}
	waitBlocked(t, s, n)
	s.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter %d: err=%v want ErrClosed", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d never released by Close", i)
		}
	}
}

func TestShardedConcurrentMixedTagsConserve(t *testing.T) {
	// Hammer distinct signatures from many goroutines and check global
	// conservation; catches lost wakeups and double deliveries.
	s := newObserved()
	const g, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := fmt.Sprintf("cc-%d", w)
			for i := 0; i < per; i++ {
				s.Out(context.Background(), tag, i)
				tu, err := s.In(context.Background(), tag, FormalInt)
				if err != nil || tu[1].(int) != i {
					t.Errorf("worker %d round %d: %v %v", w, i, tu, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if slen(s) != 0 {
		t.Fatalf("Len=%d want 0", slen(s))
	}
	if outs, ins := counter(s, "ts.out"), counter(s, "ts.in"); outs != g*per || ins != g*per {
		t.Fatalf("ts.out=%d ts.in=%d, want %d each", outs, ins, g*per)
	}
}

// TestClientPipelinesAroundBlockedIn drives non-blocking traffic over
// the same connection that holds a blocked In. The pre-pipelining
// client serialized whole round trips under one mutex, so every one of
// these Outs would have hung behind the In and this test would time
// out; the multiplexed client must keep the connection flowing.
func TestClientPipelinesAroundBlockedIn(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inDone := make(chan Tuple, 1)
	go func() {
		tu, err := c.In(context.Background(), "the-answer", FormalInt)
		if err == nil {
			inDone <- tu
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the In reach the server

	// All on the same connection, all while the In is blocked.
	for i := 0; i < 25; i++ {
		if err := c.Out(context.Background(), "side", i); err != nil {
			t.Fatalf("Out %d alongside blocked In: %v", i, err)
		}
	}
	if n, err := c.Len(); err != nil || n != 25 {
		t.Fatalf("Len=%d err=%v want 25", n, err)
	}
	if _, ok, err := c.Inp(context.Background(), "side", 13); err != nil || !ok {
		t.Fatalf("Inp alongside blocked In: ok=%v err=%v", ok, err)
	}
	select {
	case <-inDone:
		t.Fatal("In returned without a matching tuple")
	default:
	}
	if err := c.Out(context.Background(), "the-answer", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case tu := <-inDone:
		if tu[1].(int) != 42 {
			t.Fatalf("In got %v", tu)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked In never completed")
	}
}

// TestClientConcurrentBlockingIns checks that one connection carries
// multiple simultaneously blocked Ins, each demultiplexed to its own
// caller.
func TestClientConcurrentBlockingIns(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tu, err := c.In(context.Background(), "par", i, FormalString)
			if err != nil {
				t.Errorf("In %d: %v", i, err)
				return
			}
			if want := fmt.Sprintf("payload-%d", i); tu[2].(string) != want {
				t.Errorf("In %d got %v", i, tu)
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	tuples := make([]Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = Tuple{"par", i, fmt.Sprintf("payload-%d", i)}
	}
	if err := c.OutN(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestClientOutNRoundTrip(t *testing.T) {
	s, addr, stop := startServer(t)
	defer stop()
	reg := obs.NewRegistry()
	s.Observe(reg, nil)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.OutN(context.Background(), nil); err != nil { // empty batch: no round trip
		t.Fatal(err)
	}
	batch := make([]Tuple, 10)
	for i := range batch {
		batch[i] = Tuple{"bulk", i, float64(i) / 2}
	}
	if err := c.OutN(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 10 {
		t.Fatalf("Len=%d err=%v want 10", n, err)
	}
	for i := 0; i < 10; i++ {
		tu, ok, err := c.Inp(context.Background(), "bulk", i, FormalFloat)
		if err != nil || !ok {
			t.Fatalf("tuple %d missing: ok=%v err=%v", i, ok, err)
		}
		if tu[2].(float64) != float64(i)/2 {
			t.Fatalf("tuple %d payload %v", i, tu)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["net.batch_outs"] != 1 {
		t.Fatalf("net.batch_outs=%d want 1", snap.Counters["net.batch_outs"])
	}
	if snap.Counters["net.batch_tuples"] != 10 {
		t.Fatalf("net.batch_tuples=%d want 10", snap.Counters["net.batch_tuples"])
	}
}

func TestPerShardGaugesSumToTotal(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.Observe(reg, nil)
	for i := 0; i < 50; i++ {
		s.Out(context.Background(), fmt.Sprintf("g-%d", i%7), i)
	}
	for i := 0; i < 10; i++ {
		s.Inp(context.Background(), fmt.Sprintf("g-%d", i%7), FormalInt)
	}
	snap := reg.Snapshot()
	var sum int64
	for i := range s.shards {
		sum += snap.Gauges[fmt.Sprintf("ts.shard.%d.tuples", i)]
	}
	if sum != int64(slen(s)) || snap.Gauges["ts.tuples"] != int64(slen(s)) {
		t.Fatalf("shard gauges sum=%d ts.tuples=%d Len=%d", sum, snap.Gauges["ts.tuples"], slen(s))
	}
}

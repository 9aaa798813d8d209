package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// testNode is one served space the tests can inspect and kill.
type testNode struct {
	space *tuplespace.Space
	lis   net.Listener
	done  chan struct{}
}

func (n *testNode) addr() string { return n.lis.Addr().String() }

// kill crashes the node: the listener stops accepting and the space
// fails every operation. Established router connections are left to
// discover the corpse through errors, like a real crash — Serve only
// returns once those connections close, so kill must not wait on it.
func (n *testNode) kill() {
	n.lis.Close()
	n.space.Close()
}

func startTestNodes(t *testing.T, count int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, count)
	for i := range nodes {
		s := tuplespace.New()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := &testNode{space: s, lis: l, done: make(chan struct{})}
		go func() {
			defer close(n.done)
			tuplespace.Serve(l, s) //nolint:errcheck
		}()
		t.Cleanup(func() {
			l.Close()
			s.Close()
			<-n.done
		})
		nodes[i] = n
	}
	return nodes
}

func nodeAddrs(nodes []*testNode) []string {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr()
	}
	return addrs
}

// TestPartitioningConcentratesTags proves the signature-hash routing:
// every tuple sharing a tag (and field types) lands on exactly one
// node, so the blocking-take hot path for that tag never fans out.
func TestPartitioningConcentratesTags(t *testing.T) {
	nodes := startTestNodes(t, 3)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{})
	ctx := context.Background()

	const perTag = 20
	tags := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, tag := range tags {
		for i := 0; i < perTag; i++ {
			if err := r.Out(ctx, tag, i); err != nil {
				t.Fatalf("Out(%s): %v", tag, err)
			}
		}
	}

	// Each tag's tuples must be whole on one node.
	for _, tag := range tags {
		hosts := 0
		for _, n := range nodes {
			cnt := 0
			for i := 0; i < perTag; i++ {
				if _, ok, err := n.space.Rdp(ctx, tag, i); err != nil {
					t.Fatal(err)
				} else if ok {
					cnt++
				}
			}
			if cnt == perTag {
				hosts++
			} else if cnt != 0 {
				t.Fatalf("tag %q split: node holds %d of %d tuples", tag, cnt, perTag)
			}
		}
		if hosts != 1 {
			t.Fatalf("tag %q lives on %d nodes, want exactly 1", tag, hosts)
		}
	}

	total, err := r.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := perTag * len(tags); total != want {
		t.Fatalf("cluster Len = %d, want %d", total, want)
	}
}

// TestRoutersAgreeOnHomes proves routing is deterministic across
// router instances: a second router takes what the first one stored,
// by tag.
func TestRoutersAgreeOnHomes(t *testing.T) {
	nodes := startTestNodes(t, 3)
	r1 := newRouter(t, nodeAddrs(nodes), cluster.Options{})
	r2 := newRouter(t, nodeAddrs(nodes), cluster.Options{})
	ctx := context.Background()

	for i := 0; i < 30; i++ {
		tag := fmt.Sprintf("t%d", i)
		if err := r1.Out(ctx, tag, i); err != nil {
			t.Fatal(err)
		}
		tu, ok, err := r2.Inp(ctx, tag, tuplespace.FormalInt)
		if err != nil || !ok {
			t.Fatalf("r2.Inp(%s) = ok=%v err=%v: routers disagree on the home node", tag, ok, err)
		}
		if tu[1] != i {
			t.Fatalf("r2.Inp(%s) returned %v", tag, tu)
		}
	}
}

// TestFailFastOnDownNode kills a node and checks the health machinery:
// with retries disabled an operation routed to the dead node fails
// immediately, operations on live nodes keep working, and once inside
// the holdoff window the failure is ErrNodeDown without a dial.
func TestFailFastOnDownNode(t *testing.T) {
	nodes := startTestNodes(t, 3)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{
		RetryTimeout: -1, // fail fast: no retry loop
	})
	ctx := context.Background()

	// Find one tag per node so we can aim at the victim precisely.
	tagFor := map[int]string{}
	for i := 0; len(tagFor) < len(nodes); i++ {
		tag := fmt.Sprintf("probe%d", i)
		if err := r.Out(ctx, tag, i); err != nil {
			t.Fatal(err)
		}
		for ni, n := range nodes {
			if _, ok, err := n.space.Inp(ctx, tag, i); err != nil {
				t.Fatal(err)
			} else if ok {
				if _, have := tagFor[ni]; !have {
					tagFor[ni] = tag
				}
			}
		}
	}

	const victim = 0
	nodes[victim].kill()

	start := time.Now()
	err := r.Out(ctx, tagFor[victim], 1)
	if err == nil {
		t.Fatal("Out to a killed node succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("fail-fast Out took %v", d)
	}
	// Inside the holdoff window the node isn't even dialed.
	if err := r.Out(ctx, tagFor[victim], 2); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("Out inside holdoff = %v, want ErrNodeDown", err)
	}
	// Live nodes are unaffected.
	for ni, tag := range tagFor {
		if ni == victim {
			continue
		}
		if err := r.Out(ctx, tag, 3); err != nil {
			t.Fatalf("Out to live node %d: %v", ni, err)
		}
	}
}

// TestRetryRidesOutRestart proves the retry loop: with a retry budget,
// an operation issued while the home node is restarting succeeds once
// the node is back on the same address.
func TestRetryRidesOutRestart(t *testing.T) {
	nodes := startTestNodes(t, 1)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{
		RetryTimeout: 5 * time.Second,
		Backoff:      20 * time.Millisecond,
	})
	ctx := context.Background()
	if err := r.Out(ctx, "warm", 0); err != nil {
		t.Fatal(err)
	}

	addr := nodes[0].addr()
	nodes[0].kill()

	done := make(chan error, 1)
	go func() {
		done <- r.Out(ctx, "warm", 1)
	}()

	// Restart a fresh space on the same address after a beat.
	time.Sleep(150 * time.Millisecond)
	s2 := tuplespace.New()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		tuplespace.Serve(l2, s2) //nolint:errcheck
	}()
	t.Cleanup(func() {
		// This cleanup runs before the router's (LIFO), and Serve only
		// returns once the router's connection closes — so close the
		// router first.
		r.Close()
		l2.Close()
		s2.Close()
		<-served
	})

	if err := <-done; err != nil {
		t.Fatalf("Out during restart: %v", err)
	}
	if _, ok, err := s2.Inp(ctx, "warm", 1); err != nil || !ok {
		t.Fatalf("restarted node missing the retried tuple: ok=%v err=%v", ok, err)
	}
}

// twoHomeTags finds two tags homed on different nodes, so a
// transaction spanning both exercises the 2PC path.
func twoHomeTags(t *testing.T, r *cluster.Router, nodes []*testNode) (string, string) {
	t.Helper()
	ctx := context.Background()
	homeOf := func(tag string) int {
		if err := r.Out(ctx, tag, -1); err != nil {
			t.Fatal(err)
		}
		for ni, n := range nodes {
			if _, ok, err := n.space.Inp(ctx, tag, -1); err != nil {
				t.Fatal(err)
			} else if ok {
				return ni
			}
		}
		t.Fatalf("tag %q landed nowhere", tag)
		return -1
	}
	first := "span0"
	firstHome := homeOf(first)
	for i := 1; ; i++ {
		tag := fmt.Sprintf("span%d", i)
		if homeOf(tag) != firstHome {
			return first, tag
		}
	}
}

// TestTxnCrossNodeCommit drives a transaction whose takes live on two
// nodes: the follower-first two-phase commit must finalize both takes
// and publish the outs on their own home nodes.
func TestTxnCrossNodeCommit(t *testing.T) {
	nodes := startTestNodes(t, 3)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{})
	ctx := context.Background()
	tagA, tagB := twoHomeTags(t, r, nodes)

	if err := r.Out(ctx, tagA, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Out(ctx, tagB, 2); err != nil {
		t.Fatal(err)
	}

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.In(ctx, tagA, tuplespace.FormalInt); err != nil {
		t.Fatalf("take on coordinator: %v", err)
	}
	if _, err := tx.In(ctx, tagB, tuplespace.FormalInt); err != nil {
		t.Fatalf("take on follower: %v", err)
	}
	outs := []tuplespace.Tuple{{tagA, 10}, {tagB, 20}}
	if err := tx.Commit(ctx, outs); err != nil {
		t.Fatalf("2PC commit: %v", err)
	}

	for _, want := range outs {
		if _, ok, err := r.Inp(ctx, want[0], want[1]); err != nil || !ok {
			t.Fatalf("committed out %v missing: ok=%v err=%v", want, ok, err)
		}
	}
	if _, ok, _ := r.Inp(ctx, tagA, 1); ok {
		t.Fatal("coordinator take reappeared after commit")
	}
	if _, ok, _ := r.Inp(ctx, tagB, 2); ok {
		t.Fatal("follower take reappeared after commit")
	}
}

// TestTxnCrossNodeAbort takes on two nodes and aborts: both takes must
// be restored on their own nodes.
func TestTxnCrossNodeAbort(t *testing.T) {
	nodes := startTestNodes(t, 3)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{})
	ctx := context.Background()
	tagA, tagB := twoHomeTags(t, r, nodes)

	if err := r.Out(ctx, tagA, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Out(ctx, tagB, 2); err != nil {
		t.Fatal(err)
	}
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.In(ctx, tagA, tuplespace.FormalInt); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.In(ctx, tagB, tuplespace.FormalInt); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Inp(ctx, tagA, 1); err != nil || !ok {
		t.Fatalf("coordinator take not restored: ok=%v err=%v", ok, err)
	}
	if _, ok, err := r.Inp(ctx, tagB, 2); err != nil || !ok {
		t.Fatalf("follower take not restored: ok=%v err=%v", ok, err)
	}
}

// TestTxnOpFaultRedialsNode: a transient error from an operation of a
// sub-transaction faults the node it ran on. The node's space is closed
// under the router's live connection, which then answers every operation
// with ErrClosed, and a fresh space is served on the same address. The
// failing take itself fails fast; a later transaction must reach the
// fresh space, which only a redial can do. Without the fault the router
// kept the dead connection, and every transaction after it failed too.
func TestTxnOpFaultRedialsNode(t *testing.T) {
	takes := map[string]func(tuplespace.Txn) (tuplespace.Tuple, error){
		"In": func(tx tuplespace.Txn) (tuplespace.Tuple, error) {
			return tx.In(context.Background(), "job", tuplespace.FormalInt)
		},
		"Inp": func(tx tuplespace.Txn) (tuplespace.Tuple, error) {
			tu, ok, err := tx.Inp(context.Background(), "job", tuplespace.FormalInt)
			if err == nil && !ok {
				err = errors.New("no tuple")
			}
			return tu, err
		},
	}
	for name, take := range takes {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			nodes := startTestNodes(t, 1)
			r := newRouter(t, nodeAddrs(nodes), cluster.Options{
				RetryTimeout: 5 * time.Second,
				Backoff:      10 * time.Millisecond,
			})
			if err := r.Out(ctx, "job", 1); err != nil {
				t.Fatal(err)
			}
			addr := nodes[0].addr()
			nodes[0].kill()
			s2 := tuplespace.New()
			l2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("relisten on %s: %v", addr, err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				tuplespace.Serve(l2, s2) //nolint:errcheck
			}()
			t.Cleanup(func() {
				// Serve only returns once the router's connection closes.
				r.Close()
				l2.Close()
				s2.Close()
				<-served
			})
			if err := s2.Out(ctx, "job", 2); err != nil {
				t.Fatal(err)
			}

			tx, err := r.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := take(tx); !errors.Is(err, tuplespace.ErrClosed) {
				t.Fatalf("take over the dead connection = %v, want ErrClosed", err)
			}
			tx.Abort() //nolint:errcheck

			tx, err = r.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tu, err := take(tx)
			if err != nil {
				t.Fatalf("a later transaction never reached the restarted node: %v", err)
			}
			if tu[1] != 2 {
				t.Fatalf("took %v, want the restarted node's tuple", tu)
			}
			if err := tx.Commit(ctx, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCallerDeadlineLeavesNodeHealthy proves that an operation whose
// caller's own deadline ends faults no node: a Router.In on an absent
// tuple under a 20 ms deadline fails with that deadline, counts no node
// error and leaves the node's connection up, so an Out right after it
// goes straight through instead of waiting out the 1 s holdoff.
func TestCallerDeadlineLeavesNodeHealthy(t *testing.T) {
	nodes := startTestNodes(t, 1)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{
		RetryTimeout: 5 * time.Second,
		Backoff:      time.Second,
	})
	reg := obs.NewRegistry()
	r.Observe(reg, nil)
	ctx := context.Background()
	if err := r.Out(ctx, "warm", 1); err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := r.In(dctx, "absent", tuplespace.FormalInt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("In on an absent tuple past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if n := reg.Snapshot().Counters["cluster.node.0.errors"]; n != 0 {
		t.Errorf("the caller's deadline counted %d node errors, want 0", n)
	}
	start := time.Now()
	if err := r.Out(ctx, "after", 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("an Out after the caller's deadline took %v: the node was put in its 1 s holdoff", d)
	}
}

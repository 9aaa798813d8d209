package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/faultnet"
	"freepdm/internal/tuplespace"
	"freepdm/internal/tuplespace/storetest"
)

// tagHome finds a tag whose ("tag", int) tuples the router homes on
// node want, by probing: route a tuple, see which node's space holds
// it, take it back.
func tagHome(t *testing.T, r *cluster.Router, nodes []*testNode, want int) string {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 256; i++ {
		tag := fmt.Sprintf("probe-%d", i)
		if err := r.Out(ctx, tag, -1); err != nil {
			t.Fatal(err)
		}
		home := -1
		for j, n := range nodes {
			if _, ok, err := n.space.Rdp(ctx, tag, -1); err != nil {
				t.Fatal(err)
			} else if ok {
				home = j
			}
		}
		if _, ok, err := r.Inp(ctx, tag, -1); err != nil || !ok {
			t.Fatalf("probe tuple %q vanished: ok=%v err=%v", tag, ok, err)
		}
		if home == want {
			return tag
		}
	}
	t.Fatalf("no tag homed on node %d", want)
	return ""
}

// TestTxnCoordinatorPinsToTakingNode is the regression for the
// coordinator-pinning bug: a transaction's first Inp misses on a tag
// homed on node 0, which opens that sub-transaction first, and its In
// then takes a tuple homed on node 1. The coordinator must be the node
// whose take SUCCEEDED — pinned to the first sub opened (node 0), the
// real take would commit as a phase-1 "follower" and a crash between
// the phases would consume the tuple while the empty coordinator
// aborted: the work would be lost.
func TestTxnCoordinatorPinsToTakingNode(t *testing.T) {
	nodes := startTestNodes(t, 2)
	r := newRouter(t, nodeAddrs(nodes), cluster.Options{
		Dial: tuplespace.DialOptions{DialTimeout: 2 * time.Second},
	})
	ctx := context.Background()

	missTag := tagHome(t, r, nodes, 0)
	taskTag := tagHome(t, r, nodes, 1)
	if err := r.Out(ctx, taskTag, 42); err != nil {
		t.Fatal(err)
	}

	disarm := faultnet.ArmError("cluster.commit.between-phases",
		errors.New("injected: coordinator crashed between commit phases"))
	defer disarm()

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(ctx, missTag, tuplespace.FormalInt); err != nil || ok {
		t.Fatalf("txn Inp on node 0 = ok=%v err=%v, want a miss", ok, err)
	}
	tu, err := tx.In(ctx, taskTag, tuplespace.FormalInt)
	if err != nil {
		t.Fatal(err)
	}
	if tu[1] != 42 {
		t.Fatalf("took %v, want the task tuple", tu)
	}
	if err := tx.Commit(ctx, []tuplespace.Tuple{{"result", 1}}); err == nil {
		t.Fatal("Commit survived the injected crash between phases")
	}

	// The crash hit before phase 2, so the coordinator's take must have
	// rolled back: the task tuple is still in the space to be retried.
	// (The "result" out may or may not have landed in phase 1 — that is
	// the protocol's duplicated-never-lost side; only the take matters.)
	if _, ok, err := r.Rdp(ctx, taskTag, 42); err != nil || !ok {
		t.Fatalf("task tuple lost after an aborted commit: ok=%v err=%v", ok, err)
	}
}

// TestClusterConformanceFlappingProxies runs the full Store v2
// conformance suite with every node behind a chaos proxy whose
// connections are being churned: any connection idle for 300ms is
// reset every 50ms, so the router is constantly redialing and
// retrying. Semantics must hold anyway. Only idle connections are
// reset — killing one mid-response would exercise the wire protocol's
// at-most-once window for plain takes, which is a known, documented
// gap, not the router's retry logic.
func TestClusterConformanceFlappingProxies(t *testing.T) {
	if testing.Short() {
		t.Skip("flapping conformance is slow")
	}
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		addrs := startNodes(t, 3)
		paddrs := make([]string, len(addrs))
		for i, a := range addrs {
			p, err := faultnet.NewProxy(a)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() }) //nolint:errcheck
			paddrs[i] = p.Addr()
			stop := make(chan struct{})
			t.Cleanup(func() { close(stop) })
			go func() {
				tick := time.NewTicker(50 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						p.ResetIdle(300 * time.Millisecond)
					}
				}
			}()
		}
		return newRouter(t, paddrs, cluster.Options{
			Dial:    tuplespace.DialOptions{DialTimeout: 2 * time.Second},
			Backoff: 5 * time.Millisecond,
		})
	})
}

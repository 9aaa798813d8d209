package core

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/durable"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// countingProblem counts goodness evaluations so the fault injector
// can wait until real work is in flight before pulling a node.
type countingProblem struct {
	*slowProblem
	evals atomic.Int64
}

func (p *countingProblem) Goodness(pat Pattern) float64 {
	p.evals.Add(1)
	return p.slowProblem.Goodness(pat)
}

// clusterNode is one WAL-backed tuple-space server of the test
// cluster, restartable on its own address.
type clusterNode struct {
	t    *testing.T
	dir  string
	addr string
	ds   *durable.Space
	ln   net.Listener
}

func startClusterNode(t *testing.T, dir, addr string) *clusterNode {
	t.Helper()
	ds, err := durable.Open(dir, nil, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ds.Close()
		t.Fatalf("listen %s: %v", addr, err)
	}
	go tuplespace.Serve(ln, ds) //nolint:errcheck
	return &clusterNode{t: t, dir: dir, addr: ln.Addr().String(), ds: ds, ln: ln}
}

// crash stops the node abruptly: no draining, established connections
// discover the failure through errors.
func (n *clusterNode) crash() {
	n.ln.Close()
	n.ds.Close() //nolint:errcheck
}

// restart brings the node back on the same address from its WAL.
func (n *clusterNode) restart() {
	n.t.Helper()
	ds, err := durable.Open(n.dir, nil, durable.Options{})
	if err != nil {
		n.t.Errorf("restart %s: %v", n.addr, err)
		return
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		ds.Close()
		n.t.Errorf("rebind %s: %v", n.addr, err)
		return
	}
	go tuplespace.Serve(ln, ds) //nolint:errcheck
	n.ds, n.ln = ds, ln
}

// TestPLETClusterKillNodeRestart runs PLET over a three-node cluster
// and crash-restarts one node mid-traversal: the home node of the task
// tuples, which is where every PLET tuple lives (the ctl signature homes
// there too), so the crash hits the run. The routing layer rides out
// the outage (retry inside the budget, proc respawn beyond it), the WAL
// restores the node's committed tuples, and duplicated follower effects
// from interrupted two-phase commits are absorbed by the masters'
// idempotent accounting — the results must still equal
// SolveSequential's.
func TestPLETClusterKillNodeRestart(t *testing.T) {
	testPLETClusterKillNodeRestart(t, grainDefault)
}

func testPLETClusterKillNodeRestart(t *testing.T, g faultGrain) {
	base, p := g.problem(t, 77)
	seqRes, _ := SolveSequential(base)

	nodes := make([]*clusterNode, 3)
	addrs := make([]string, len(nodes))
	for i := range nodes {
		nodes[i] = startClusterNode(t, t.TempDir(), "127.0.0.1:0")
		addrs[i] = nodes[i].addr
		defer nodes[i].crash()
	}

	router, err := cluster.New(addrs, cluster.Options{
		Dial: tuplespace.DialOptions{
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
		},
		RetryTimeout: 15 * time.Second,
		Backoff:      25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	srv := plinda.NewServerOnStore(router)
	defer srv.Close()

	// Fault injector: once the workers are demonstrably mid-traversal,
	// crash the task tuples' home node, hold it down long enough for
	// operations to fail into the retry loop, then restart it from the
	// WAL.
	victim := nodes[tuplespace.SignatureHash(tuplespace.Signature(nil, []any{TagTask, []string(nil)}))%uint32(len(nodes))]
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
		deadline := time.Now().Add(10 * time.Second)
		for p.evals.Load() < 5 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		victim.crash()
		time.Sleep(300 * time.Millisecond)
		victim.restart()
	}()

	res, err := RunPLET(srv, p, 4)
	if err != nil {
		t.Fatalf("RunPLET over cluster with node crash: %v", err)
	}
	<-faultDone
	sameResults(t, seqRes, res, "sequential", "PLET-3-node-kill-restart")
	if srv.Respawns() == 0 {
		t.Fatal("no process respawned: the crash missed the run")
	}
	t.Logf("run survived %d proc respawns", srv.Respawns())
}

// TestPLEDClusterThreeNodes runs PLED over a healthy three-node
// cluster: the continuation-logged master must work unchanged against
// the router. Under the local plinda.Server every Xcommit is a plain
// two-phase Commit of the outs and takes, and the continuation stays in
// the server's process table; the router's CommitCont is not exercised
// here (only standalone procs take it). Twelve root patterns over 2·4
// chunks: task and result tuples of several keys cross the two-phase
// commit.
func TestPLEDClusterThreeNodes(t *testing.T) {
	base := newToyProblem(12, 200, 0.04, 21)
	seqRes, _ := SolveSequential(base)

	nodes := make([]*clusterNode, 3)
	addrs := make([]string, len(nodes))
	for i := range nodes {
		nodes[i] = startClusterNode(t, t.TempDir(), "127.0.0.1:0")
		addrs[i] = nodes[i].addr
		defer nodes[i].crash()
	}
	router, err := cluster.New(addrs, cluster.Options{
		Dial: tuplespace.DialOptions{DialTimeout: time.Second, OpTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	srv := plinda.NewServerOnStore(router)
	defer srv.Close()
	res, err := RunPLED(srv, base, 4)
	if err != nil {
		t.Fatalf("RunPLED over cluster: %v", err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED-3-node")
}

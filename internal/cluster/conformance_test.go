package cluster_test

import (
	"net"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/tuplespace"
	"freepdm/internal/tuplespace/storetest"
)

// startNodes serves n fresh spaces on ephemeral ports and returns
// their addresses; teardown is registered on t.
func startNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := tuplespace.New()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			tuplespace.Serve(l, s) //nolint:errcheck
		}()
		t.Cleanup(func() {
			l.Close()
			s.Close()
			<-done
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func newRouter(t *testing.T, addrs []string, opts cluster.Options) *cluster.Router {
	t.Helper()
	r, err := cluster.New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestClusterConformance runs the Store v2 conformance suite against a
// three-node cluster: partitioning must preserve single-space
// semantics.
func TestClusterConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		return newRouter(t, startNodes(t, 3), cluster.Options{
			Dial: tuplespace.DialOptions{DialTimeout: 2 * time.Second},
		})
	})
}

// TestSingleNodeClusterConformance degenerates the router to one node;
// it must still behave exactly like a direct client.
func TestSingleNodeClusterConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		return newRouter(t, startNodes(t, 1), cluster.Options{
			Dial: tuplespace.DialOptions{DialTimeout: 2 * time.Second},
		})
	})
}

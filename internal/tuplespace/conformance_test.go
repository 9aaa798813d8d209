package tuplespace_test

import (
	"net"
	"testing"

	"freepdm/internal/tuplespace"
	"freepdm/internal/tuplespace/storetest"
)

// TestSpaceConformance runs the Store v2 conformance suite against the
// in-process space.
func TestSpaceConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
		s := tuplespace.New()
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestClientConformance runs the suite against a TCP client talking to
// a served space: the same behaviour must survive the wire protocol.
func TestClientConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) tuplespace.TxnStore {
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
		cl, err := tuplespace.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cl.Close()
			l.Close()
			s.Close()
			<-done
		})
		return cl
	})
}

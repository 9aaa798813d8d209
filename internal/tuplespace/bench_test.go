package tuplespace

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
)

// Micro-benchmarks for the tuple-space hot paths. No claim rests on
// them — a change is measured by mining runs per backend, see
// internal/bench/README.md; CI runs these with -benchtime=1x as a smoke
// test so they cannot rot.

// BenchmarkTuplespaceOutInp is the uncontended local hot loop: one
// goroutine cycling a tuple through Out and Inp on a tagged signature.
func BenchmarkTuplespaceOutInp(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Out(context.Background(), "bench", i)
		if _, ok, _ := s.Inp(context.Background(), "bench", FormalInt); !ok {
			b.Fatal("lost tuple")
		}
	}
}

// BenchmarkTuplespaceBagDrain is the task bag's steady state: take the
// head of one partition, out at its tail, with the given number of
// tuples resident. The take is the partition's FIFO head take, so ns/op
// must not grow with the resident count.
func BenchmarkTuplespaceBagDrain(b *testing.B) {
	for _, r := range []struct {
		name     string
		resident int
	}{{"1", 1}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run("resident="+r.name, func(b *testing.B) {
			s := New()
			for i := 0; i < r.resident; i++ {
				s.Out(context.Background(), "bag", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := s.Inp(context.Background(), "bag", FormalInt); !ok {
					b.Fatal("lost tuple")
				}
				s.Out(context.Background(), "bag", i)
			}
		})
	}
}

// benchMixed runs g goroutines, each cycling Out/Inp (with a Rdp every
// fourth round) on its own tag — distinct signatures, so a sharded
// space should let them proceed without contending.
func benchMixed(b *testing.B, g int) {
	s := New()
	per := b.N/g + 1
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := fmt.Sprintf("mix%d", w)
			for i := 0; i < per; i++ {
				s.Out(context.Background(), tag, i)
				if i%4 == 3 {
					s.Rdp(context.Background(), tag, FormalInt)
				}
				if _, ok, _ := s.Inp(context.Background(), tag, FormalInt); !ok {
					b.Error("lost tuple")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkTuplespaceMixed is the contended mixed workload at 1, 4 and
// 16 goroutines.
func BenchmarkTuplespaceMixed(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) { benchMixed(b, g) })
	}
}

// BenchmarkTuplespaceWakeLatency measures the blocked-In wake path: a
// ping-pong between the bench goroutine and a consumer that is always
// blocked in In when the Out lands.
func BenchmarkTuplespaceWakeLatency(b *testing.B) {
	s := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			t, err := s.In(context.Background(), "ping", FormalInt)
			if err != nil {
				return
			}
			s.Out(context.Background(), "pong", t[1].(int))
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Out(context.Background(), "ping", i)
		if _, err := s.In(context.Background(), "pong", i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
	<-done
}

// BenchmarkWireEncode measures the codec's encode hot path in
// isolation: one representative Out request appended into a pooled
// buffer, exactly as the client's send path does it. The pool means the
// steady state allocates nothing.
func BenchmarkWireEncode(b *testing.B) {
	req := &request{
		ID:     42,
		Op:     opOut,
		Fields: []any{"job", 7, 3.14, "payload", []int{1, 2, 3}},
		Trace:  0xabcdef,
		Span:   0x123456,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eb, _ := getEncBuf()
		var err error
		eb.b, err = appendRequest(eb.b[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		putEncBuf(eb)
	}
}

func benchTCPServer(b *testing.B) (addr string, stop func()) {
	b.Helper()
	s := New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(l, s) //nolint:errcheck
	}()
	return l.Addr().String(), func() {
		l.Close()
		s.Close()
		<-done
	}
}

// BenchmarkTuplespaceTCPRoundTrip is one client performing strictly
// sequential Out/Inp round trips over TCP.
func BenchmarkTuplespaceTCPRoundTrip(b *testing.B) {
	addr, stop := benchTCPServer(b)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Out(context.Background(), "wire", i); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := c.Inp(context.Background(), "wire", FormalInt); err != nil || !ok {
			b.Fatalf("inp ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkTuplespaceTCPPipelined drives one shared client connection
// from 8 goroutines issuing Outs concurrently. A client that serializes
// whole round trips bounds this at connection latency; a pipelined
// client overlaps the requests.
func BenchmarkTuplespaceTCPPipelined(b *testing.B) {
	addr, stop := benchTCPServer(b)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const g = 8
	per := b.N/g + 1
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Out(context.Background(), "pipe", w, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

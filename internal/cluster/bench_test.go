package cluster_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/tuplespace"
)

// startBenchNodes serves n fresh spaces for a benchmark; teardown is
// registered on b.
func startBenchNodes(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := tuplespace.New()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			tuplespace.Serve(l, s) //nolint:errcheck
		}()
		b.Cleanup(func() {
			l.Close()
			s.Close()
			<-done
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// BenchmarkClusterBlockingIn measures blocking-take throughput through
// the router as the cluster grows: 16 producer/consumer pairs, each on
// its own tag, ping-pong tuples through the space. Distinct tags give
// the signature hash something to spread, so with three nodes the
// pairs divide across three servers and three TCP connections instead
// of funneling through one — the scaling the cluster layer exists for.
func BenchmarkClusterBlockingIn(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes%d", n), func(b *testing.B) {
			r, err := cluster.New(startBenchNodes(b, n), cluster.Options{
				Dial: tuplespace.DialOptions{DialTimeout: 2 * time.Second},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { r.Close() })
			ctx := context.Background()

			const pairs = 64
			iters := b.N/pairs + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			errc := make(chan error, 2*pairs)
			for g := 0; g < pairs; g++ {
				tag := fmt.Sprintf("bench.tag.%d", g)
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if err := r.Out(ctx, tag, i); err != nil {
							errc <- err
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if _, err := r.In(ctx, tag, tuplespace.FormalInt); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(errc)
			for err := range errc {
				b.Fatal(err)
			}
		})
	}
}

// The TCP chaos proxy: one Proxy fronts one tuple-space server, and
// the cluster router (or any client) is pointed at the proxy address
// instead of the server's. Every fault a flaky workstation network
// produces is then a method call: Partition refuses new connections
// and resets the established ones, Blackhole swallows one direction's
// bytes while the connection stays "up", Delay adds per-chunk latency,
// Reset kills the current connections once, Heal clears everything.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
)

// Direction selects which half of a proxied connection a fault
// applies to.
type Direction int

const (
	// ClientToServer is the request direction: client bytes on their
	// way to the proxied server.
	ClientToServer Direction = iota
	// ServerToClient is the response direction.
	ServerToClient
)

// ErrProxyClosed reports use of a closed proxy.
var ErrProxyClosed = errors.New("faultnet: proxy closed")

// proxyDialTimeout bounds the proxy's own dial to its target; a dead
// target just closes the accepted client connection, which is exactly
// what a dead server does.
const proxyDialTimeout = 5 * time.Second

// Proxy is an in-process TCP chaos proxy. Zero faults configured, it
// is a transparent byte forwarder; every fault is toggled at runtime
// and applies to current and future connections. All methods are safe
// for concurrent use — scenario handlers flip faults from fault-point
// goroutines while traffic flows.
type Proxy struct {
	target string
	ln     net.Listener
	wg     sync.WaitGroup

	partitioned atomic.Bool
	blackhole   [2]atomic.Bool
	delayNanos  [2]atomic.Int64

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool

	accepted   *obs.Counter
	refused    *obs.Counter
	resets     *obs.Counter
	blackholed *obs.Counter
	delayed    *obs.Counter
}

// proxyConn is one proxied session: the client leg, the server leg,
// and the instant of its last forwarded chunk (for ResetIdle).
type proxyConn struct {
	client, server net.Conn
	lastActive     atomic.Int64 // UnixNano of the last forwarded chunk
}

func (pc *proxyConn) touch() { pc.lastActive.Store(time.Now().UnixNano()) }
func (pc *proxyConn) idle() time.Duration {
	return time.Since(time.Unix(0, pc.lastActive.Load()))
}

// reset tears the session down abruptly. SetLinger(0) turns the close
// into a TCP RST where the stack supports it — the connection doesn't
// wind down, it dies, like the machine behind it.
func (pc *proxyConn) reset() {
	for _, c := range []net.Conn{pc.client, pc.server} {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck — best-effort RST
		}
		c.Close() //nolint:errcheck
	}
}

// NewProxy starts a chaos proxy on an ephemeral localhost port,
// forwarding to target. Close releases it.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[*proxyConn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target's.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Target is the proxied server address.
func (p *Proxy) Target() string { return p.target }

// Observe attaches fault counters: faultnet.proxy.accepted / refused /
// resets / blackholed_chunks / delayed_chunks, on /debug/metrics.
func (p *Proxy) Observe(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accepted = r.Counter("faultnet.proxy.accepted")
	p.refused = r.Counter("faultnet.proxy.refused")
	p.resets = r.Counter("faultnet.proxy.resets")
	p.blackholed = r.Counter("faultnet.proxy.blackholed_chunks")
	p.delayed = r.Counter("faultnet.proxy.delayed_chunks")
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		if p.partitioned.Load() {
			p.refused.Inc()
			c.Close() //nolint:errcheck — the partition IS the refusal
			continue
		}
		s, err := net.DialTimeout("tcp", p.target, proxyDialTimeout)
		if err != nil {
			c.Close() //nolint:errcheck — target down: behave like it
			continue
		}
		pc := &proxyConn{client: c, server: s}
		pc.touch()
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			pc.reset()
			return
		}
		p.conns[pc] = struct{}{}
		p.mu.Unlock()
		p.accepted.Inc()
		p.wg.Add(2)
		go p.pump(pc, c, s, ClientToServer)
		go p.pump(pc, s, c, ServerToClient)
	}
}

// pump forwards one direction chunk by chunk, applying the direction's
// delay and blackhole state per chunk so faults flipped mid-connection
// take effect on the next bytes.
func (p *Proxy) pump(pc *proxyConn, src, dst net.Conn, dir Direction) {
	defer p.wg.Done()
	defer p.drop(pc)
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.delayNanos[dir].Load(); d > 0 {
				p.delayed.Inc()
				time.Sleep(time.Duration(d))
			}
			if p.blackhole[dir].Load() {
				p.blackholed.Inc() // swallowed: the connection stays up, the bytes don't
			} else {
				pc.touch()
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// drop removes and closes a finished session (idempotent: both pumps
// call it).
func (p *Proxy) drop(pc *proxyConn) {
	p.mu.Lock()
	_, live := p.conns[pc]
	delete(p.conns, pc)
	p.mu.Unlock()
	if live {
		pc.client.Close() //nolint:errcheck
		pc.server.Close() //nolint:errcheck
	}
}

// Partition isolates the node: established connections are reset and
// new ones refused until Heal. This is the "machine fell off the
// network" fault the cluster's health machinery must absorb.
func (p *Proxy) Partition() {
	p.partitioned.Store(true)
	p.Reset()
}

// Heal clears every fault: partition, blackholes, and delays.
func (p *Proxy) Heal() {
	p.partitioned.Store(false)
	for i := range p.blackhole {
		p.blackhole[i].Store(false)
		p.delayNanos[i].Store(0)
	}
}

// Blackhole swallows all traffic in one direction: connections stay
// established, requests (or responses) silently vanish — the
// slow-to-dead gray failure that timeouts, not connection errors,
// must catch.
func (p *Proxy) Blackhole(dir Direction, on bool) {
	p.blackhole[dir].Store(on)
}

// Delay adds latency to every chunk forwarded in one direction — the
// overloaded "free" workstation whose tuples arrive late.
func (p *Proxy) Delay(dir Direction, d time.Duration) {
	p.delayNanos[dir].Store(int64(d))
}

// Reset abruptly kills the current connections (RST where possible)
// without blocking new ones: a server process crash as seen from the
// wire, while the machine stays reachable.
func (p *Proxy) Reset() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
		delete(p.conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		p.resets.Inc()
		pc.reset()
	}
}

// ResetIdle resets only connections whose last forwarded chunk is at
// least olderThan ago, and reports how many it killed. Flapping tests
// use it to churn connections without tearing down an actively moving
// transfer (a reset inside a destructive take's response window would
// test the wire protocol's at-most-once gap, not the router).
func (p *Proxy) ResetIdle(olderThan time.Duration) int {
	p.mu.Lock()
	var idle []*proxyConn
	for pc := range p.conns {
		if pc.idle() >= olderThan {
			idle = append(idle, pc)
			delete(p.conns, pc)
		}
	}
	p.mu.Unlock()
	for _, pc := range idle {
		p.resets.Inc()
		pc.reset()
	}
	return len(idle)
}

// Close shuts the proxy down: the listener closes, every connection is
// reset, and the pumps drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.Reset()
	p.wg.Wait()
	return err
}

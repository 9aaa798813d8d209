// Package cluster partitions one logical tuple space across several
// tuple-space servers. A Router implements tuplespace.TxnStore as a
// client-side shard router: every tuple has a home node picked by
// tuplespace.SignatureHash, the hash the in-process space stripes by,
// over its signature (arity, field types and the leading string tag),
// so placement is a pure function of the tuple and every client routes
// identically with no coordinator in the path. Templates route the
// same way, so every take and read talks to exactly one node; a
// template that leads with a formal string names no home, and the node
// it lands on rejects it with tuplespace.ErrCrossTemplate.
//
// Node failures surface as health state: a failed node is marked down,
// operations against it redial with backoff inside a bounded retry
// budget, and while the node is inside its holdoff window other
// callers fail fast instead of piling up dial attempts. Transactions
// pin to the coordinator node of their first take and spill takes on
// other nodes into per-node sub-transactions; Commit runs the
// followers first and the coordinator last, so the tuple that makes a
// unit of work observable (the coordinator's take) is only consumed
// once everything else has landed — a crash between the phases re-runs
// the work, it never loses it (see DESIGN.md).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// ErrNoNodes rejects constructing a router over an empty node list.
var ErrNoNodes = errors.New("cluster: no nodes configured")

// ErrNodeDown wraps operations refused because the target node is
// inside its failure holdoff window (fail-fast) or could not be
// redialed. errors.Is(err, ErrNodeDown) detects it.
var ErrNodeDown = errors.New("cluster: node down")

// Options configures a Router. The zero value selects every default.
type Options struct {
	// Dial configures every per-node connection (op timeout, lease,
	// heartbeat, session name). The same options apply to all nodes.
	Dial tuplespace.DialOptions
	// RetryTimeout bounds how long one operation keeps retrying a
	// failing home node (redial + backoff) before giving up. Zero
	// selects the 5s default; negative disables retry entirely, so
	// every transport error surfaces on the first attempt.
	RetryTimeout time.Duration
	// Backoff is the holdoff after a node failure: until it elapses,
	// operations targeting the node fail fast with ErrNodeDown rather
	// than attempting their own dials. Zero selects the 100ms default.
	Backoff time.Duration
}

const (
	defaultRetryTimeout = 5 * time.Second
	defaultBackoff      = 100 * time.Millisecond
)

// Router routes tuple operations across the cluster's nodes. It
// implements tuplespace.TxnStore (plus the Recoverer and
// ContCommitter extensions), so PLinda masters and workers run on a
// cluster unchanged.
type Router struct {
	nodes  []*node
	opts   Options
	reg    atomic.Pointer[obs.Registry]
	trc    atomic.Pointer[obs.Tracer]
	closed atomic.Bool
}

// Compile-time conformance with the Store v2 surface.
var (
	_ tuplespace.TxnStore      = (*Router)(nil)
	_ tuplespace.Recoverer     = (*Router)(nil)
	_ tuplespace.Txn           = (*routerTxn)(nil)
	_ tuplespace.ContCommitter = (*routerTxn)(nil)
)

// node is one member server: its address, the reused connection, and
// the health state gating access to it.
type node struct {
	idx  int
	addr string
	r    *Router

	mu        sync.Mutex
	cl        *tuplespace.Client
	downUntil time.Time
	lastErr   error
}

// New returns a router over the given server addresses. Connections
// are established lazily on first use, so a cluster can be constructed
// before every node is up; a node that is down when first addressed
// just starts out in its failure holdoff.
func New(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, ErrNoNodes
	}
	if opts.RetryTimeout == 0 {
		opts.RetryTimeout = defaultRetryTimeout
	}
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
	r := &Router{opts: opts}
	for i, a := range addrs {
		r.nodes = append(r.nodes, &node{idx: i, addr: a, r: r})
	}
	return r, nil
}

// Nodes reports the cluster size.
func (r *Router) Nodes() int { return len(r.nodes) }

// Observe attaches a metrics registry and/or tracer: per-node op and
// error counters and health gauges (cluster.node.<i>.ops, .errors and
// .up), and cluster/<op> spans. The instruments cascade into every node
// connection, current and future, so the wire metrics keep working
// under the router.
func (r *Router) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	r.reg.Store(reg)
	r.trc.Store(tracer)
	for _, n := range r.nodes {
		n.mu.Lock()
		if n.cl != nil {
			n.cl.Observe(reg, tracer)
		}
		n.mu.Unlock()
		n.setHealth(n.healthy())
	}
}

// RetryableFailures marks the router's failures as respawn-worthy for
// PLinda: a transient error through a cluster store means a node (not
// the program) failed, so the incarnation should be retried exactly
// like a dropped remote session.
func (r *Router) RetryableFailures() bool { return true }

// home picks the node owning a tuple or template: the remainder of its
// signature's SignatureHash. The hash has no seed, so every client and
// every restart routes identically.
func (r *Router) home(fields []any) int {
	var buf [88]byte
	return int(tuplespace.SignatureHash(tuplespace.Signature(buf[:0], fields)) % uint32(len(r.nodes)))
}

func (r *Router) retryDeadline() time.Time {
	if r.opts.RetryTimeout < 0 {
		return time.Time{}
	}
	return time.Now().Add(r.opts.RetryTimeout)
}

// transientErr reports whether an error indicates node/transport
// trouble (retry may help) rather than a semantic failure.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, tuplespace.ErrClientClosed) ||
		errors.Is(err, tuplespace.ErrClosed) ||
		errors.Is(err, tuplespace.ErrTimeout) ||
		errors.Is(err, tuplespace.ErrLeaseExpired) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, ErrNodeDown) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// healthy reports whether the node is outside its failure holdoff, for
// the health export, without taking an op through the node.
func (n *node) healthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cl != nil || !time.Now().Before(n.downUntil)
}

func (n *node) setHealth(up bool) {
	if reg := n.r.reg.Load(); reg != nil {
		v := int64(0)
		if up {
			v = 1
		}
		reg.Gauge(fmt.Sprintf("cluster.node.%d.up", n.idx)).Set(v)
	}
}

// client returns the node's live connection, dialing if necessary.
// Inside the failure holdoff window it fails fast with ErrNodeDown —
// this is what keeps a dead home node from stalling every caller.
func (n *node) client() (*tuplespace.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cl != nil {
		return n.cl, nil
	}
	if time.Now().Before(n.downUntil) {
		return nil, fmt.Errorf("%w: node %d (%s): %v", ErrNodeDown, n.idx, n.addr, n.lastErr)
	}
	cl, err := tuplespace.DialOpts(n.addr, n.r.opts.Dial)
	if err != nil {
		n.lastErr = err
		n.downUntil = time.Now().Add(n.r.opts.Backoff)
		n.countErr()
		n.setHealth(false)
		return nil, fmt.Errorf("%w: node %d (%s): %v", ErrNodeDown, n.idx, n.addr, err)
	}
	cl.Observe(n.r.reg.Load(), n.r.trc.Load())
	n.cl = cl
	n.setHealth(true)
	return cl, nil
}

// fault marks the node down after a transport error: the broken
// connection is discarded and the holdoff window armed.
func (n *node) fault(cl *tuplespace.Client, err error) {
	n.mu.Lock()
	if cl != nil && n.cl == cl {
		cl.Close() //nolint:errcheck — already broken
		n.cl = nil
	}
	n.lastErr = err
	n.downUntil = time.Now().Add(n.r.opts.Backoff)
	n.mu.Unlock()
	n.countErr()
	n.setHealth(false)
}

func (n *node) countErr() {
	if reg := n.r.reg.Load(); reg != nil {
		reg.Counter(fmt.Sprintf("cluster.node.%d.errors", n.idx)).Inc()
	}
}

// do runs one operation against the node with redial-and-retry on
// transient failure, bounded by the router's retry budget. Only
// operations with no tentative server-side state may go through do —
// sub-transaction ops fail fast instead (see routerTxn). The caller's
// own ended context is not the node's fault: it fails the operation
// and leaves the node's connection and holdoff alone.
func (n *node) do(ctx context.Context, f func(*tuplespace.Client) error) error {
	deadline := n.r.retryDeadline()
	for {
		cl, err := n.client()
		if err == nil {
			if reg := n.r.reg.Load(); reg != nil {
				reg.Counter(fmt.Sprintf("cluster.node.%d.ops", n.idx)).Inc()
			}
			err = f(cl)
			if err == nil || !transientErr(err) || ctx.Err() != nil {
				return err
			}
			n.fault(cl, err)
		}
		if n.r.closed.Load() {
			return tuplespace.ErrClientClosed
		}
		if deadline.IsZero() || !time.Now().Before(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(n.r.opts.Backoff):
		}
	}
}

// startOp opens a cluster/<op> span under the ctx's trace parent and
// returns its closer.
func (r *Router) startOp(ctx context.Context, op string) func(err error) {
	var sp *obs.Span
	if trc := r.trc.Load(); trc != nil {
		sp = trc.StartChild(obs.FromContext(ctx), "cluster", op)
	}
	return func(err error) {
		if sp != nil {
			sp.Annotate("err", err != nil)
			sp.End()
		}
	}
}

// Out routes the tuple to its home node.
func (r *Router) Out(ctx context.Context, fields ...any) (err error) {
	done := r.startOp(ctx, "out")
	defer func() { done(err) }()
	return r.nodes[r.home(fields)].do(ctx, func(cl *tuplespace.Client) error {
		return cl.Out(ctx, fields...)
	})
}

// OutN routes each tuple of the batch to its home node, one wire batch
// per node. The batch is not atomic across nodes: a mid-batch node
// failure can leave earlier sub-batches published — same contract as a
// crash between two single Outs.
func (r *Router) OutN(ctx context.Context, tuples []tuplespace.Tuple) (err error) {
	done := r.startOp(ctx, "outn")
	defer func() { done(err) }()
	byNode := make(map[int][]tuplespace.Tuple)
	for _, t := range tuples {
		h := r.home(t)
		byNode[h] = append(byNode[h], t)
	}
	for h, batch := range byNode {
		b := batch
		if err := r.nodes[h].do(ctx, func(cl *tuplespace.Client) error {
			return cl.OutN(ctx, b)
		}); err != nil {
			return err
		}
	}
	return nil
}

// In blocks for a match on the template's home node.
func (r *Router) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := r.InTraced(ctx, tmplFields...)
	return t, err
}

// InTraced is In with origin propagation.
func (r *Router) InTraced(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, org obs.SpanContext, err error) {
	done := r.startOp(ctx, "in")
	defer func() { done(err) }()
	err = r.nodes[r.home(tmplFields)].do(ctx, func(cl *tuplespace.Client) error {
		var e error
		t, org, e = cl.InTraced(ctx, tmplFields...)
		return e
	})
	return t, org, err
}

// Rd blocks for a non-destructive match on the template's home node.
func (r *Router) Rd(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, err error) {
	done := r.startOp(ctx, "rd")
	defer func() { done(err) }()
	err = r.nodes[r.home(tmplFields)].do(ctx, func(cl *tuplespace.Client) error {
		var e error
		t, e = cl.Rd(ctx, tmplFields...)
		return e
	})
	return t, err
}

// Inp probes the template's home node for a destructive match.
func (r *Router) Inp(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, ok bool, err error) {
	done := r.startOp(ctx, "inp")
	defer func() { done(err) }()
	err = r.nodes[r.home(tmplFields)].do(ctx, func(cl *tuplespace.Client) error {
		var e error
		t, ok, e = cl.Inp(ctx, tmplFields...)
		return e
	})
	return t, ok, err
}

// Rdp probes the template's home node for a non-destructive match.
func (r *Router) Rdp(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, ok bool, err error) {
	done := r.startOp(ctx, "rdp")
	defer func() { done(err) }()
	err = r.nodes[r.home(tmplFields)].do(ctx, func(cl *tuplespace.Client) error {
		var e error
		t, ok, e = cl.Rdp(ctx, tmplFields...)
		return e
	})
	return t, ok, err
}

// Len sums the tuple counts of every node.
func (r *Router) Len() (int, error) {
	total := 0
	for _, n := range r.nodes {
		var l int
		if err := n.do(context.Background(), func(cl *tuplespace.Client) error {
			var e error
			l, e = cl.Len()
			return e
		}); err != nil {
			return 0, err
		}
		total += l
	}
	return total, nil
}

// Recover scans the nodes for a continuation committed under this
// router's session name: it lives on whichever node coordinated the
// crashed transaction, so the first hit wins.
func (r *Router) Recover() (tuplespace.Tuple, bool, error) {
	var firstErr error
	for _, n := range r.nodes {
		var t tuplespace.Tuple
		var ok bool
		err := n.do(context.Background(), func(cl *tuplespace.Client) error {
			var e error
			t, ok, e = cl.Recover()
			return e
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			return t, true, nil
		}
	}
	return nil, false, firstErr
}

// Close closes every node connection. The router is unusable after.
func (r *Router) Close() error {
	r.closed.Store(true)
	var firstErr error
	for _, n := range r.nodes {
		n.mu.Lock()
		if n.cl != nil {
			if err := n.cl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			n.cl = nil
		}
		n.mu.Unlock()
	}
	return firstErr
}

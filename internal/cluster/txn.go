// Cluster transactions: coordinator pinning and the follower-first
// two-phase commit over the per-node wire transactions.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"freepdm/internal/faultnet"
	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// routerTxn is one cluster transaction. The node whose take first
// *succeeds* becomes the coordinator; takes that land on other nodes
// open follower sub-transactions there. Commit publishes outs and
// commits followers first and the coordinator last: the coordinator's
// takes are what made this unit of work invisible to other workers, so
// they are only finalized once every other effect is durable. A crash
// between the phases aborts the coordinator (its takes reappear and
// the work is redone) while follower effects may survive — duplicated
// side tuples, never lost ones — which the PLinda programs absorb by
// idempotent accounting (see DESIGN.md).
//
// Pinning to the first successful take (not the first sub-transaction
// opened) matters when a transaction's first Inp misses: the miss opens
// a sub on its tag's home, and if a later take on another node pinned
// that empty sub instead, the real take would commit in phase 1 as a
// "follower" — a crash before phase 2 would then consume the task tuple
// while the empty coordinator aborts, losing the work.
type routerTxn struct {
	r *Router

	mu    sync.Mutex
	subs  map[int]tuplespace.Txn
	cls   map[int]*tuplespace.Client // the connection each sub runs on
	order []int                      // sub-txn creation order
	coord int                        // node of the first successful take; -1 until one lands
	done  bool
}

// Begin opens a cluster transaction. No node is contacted until the
// first take pins the coordinator.
func (r *Router) Begin() (tuplespace.Txn, error) {
	if r.closed.Load() {
		return nil, tuplespace.ErrClientClosed
	}
	return &routerTxn{r: r, subs: make(map[int]tuplespace.Txn), cls: make(map[int]*tuplespace.Client), coord: -1}, nil
}

// pinCoord records the node of the transaction's first successful
// take as its commit coordinator.
func (tx *routerTxn) pinCoord(i int) {
	tx.mu.Lock()
	if tx.coord < 0 {
		tx.coord = i
	}
	tx.mu.Unlock()
}

// sub returns the sub-transaction on node i, opening it if needed,
// and the connection it runs on. Opening retries through the node's
// health machinery (Begin holds no tentative state); operations on an
// open sub fail fast instead, and a transient error from one faults the
// node through failed.
func (tx *routerTxn) sub(ctx context.Context, i int) (tuplespace.Txn, *tuplespace.Client, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, nil, tuplespace.ErrTxnFinished
	}
	if s, ok := tx.subs[i]; ok {
		return s, tx.cls[i], nil
	}
	var s tuplespace.Txn
	var conn *tuplespace.Client
	if err := tx.r.nodes[i].do(ctx, func(cl *tuplespace.Client) error {
		var e error
		s, e = cl.Begin()
		conn = cl
		return e
	}); err != nil {
		return nil, nil, err
	}
	tx.subs[i], tx.cls[i] = s, conn
	tx.order = append(tx.order, i)
	return s, conn, nil
}

// failed faults node i after a transient error from an operation of
// the sub-transaction on connection cl, so a later transaction redials
// the node: a wire Begin only checks a local flag, so opening a sub
// cannot see a dead connection. The caller's own expired deadline is
// not the node's fault.
func (tx *routerTxn) failed(ctx context.Context, i int, cl *tuplespace.Client, err error) {
	if ctx.Err() == nil && transientErr(err) {
		tx.r.nodes[i].fault(cl, err)
	}
}

func (tx *routerTxn) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := tx.InTraced(ctx, tmplFields...)
	return t, err
}

func (tx *routerTxn) InTraced(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, org obs.SpanContext, err error) {
	done := tx.r.startOp(ctx, "txn.in")
	defer func() { done(err) }()
	h := tx.r.home(tmplFields)
	s, cl, err := tx.sub(ctx, h)
	if err != nil {
		return nil, obs.SpanContext{}, err
	}
	t, org, err = s.InTraced(ctx, tmplFields...)
	if err == nil {
		tx.pinCoord(h)
	} else {
		tx.failed(ctx, h, cl, err)
	}
	return t, org, err
}

func (tx *routerTxn) Inp(ctx context.Context, tmplFields ...any) (t tuplespace.Tuple, ok bool, err error) {
	done := tx.r.startOp(ctx, "txn.inp")
	defer func() { done(err) }()
	h := tx.r.home(tmplFields)
	s, cl, err := tx.sub(ctx, h)
	if err != nil {
		return nil, false, err
	}
	t, ok, err = s.Inp(ctx, tmplFields...)
	if err != nil {
		tx.failed(ctx, h, cl, err)
	} else if ok {
		tx.pinCoord(h)
	}
	return t, ok, err
}

// Commit finalizes the transaction: outs and follower sub-commits
// first, the coordinator's commit last.
func (tx *routerTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	return tx.commit(ctx, outs, nil, false)
}

// CommitCont is Commit additionally storing the continuation tuple —
// on the coordinator node, which is also where Recover finds it.
func (tx *routerTxn) CommitCont(ctx context.Context, outs []tuplespace.Tuple, cont tuplespace.Tuple) error {
	return tx.commit(ctx, outs, cont, true)
}

func (tx *routerTxn) commit(ctx context.Context, outs []tuplespace.Tuple, cont tuplespace.Tuple, hasCont bool) (err error) {
	done := tx.r.startOp(ctx, "txn.commit")
	defer func() { done(err) }()

	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return tuplespace.ErrTxnFinished
	}
	tx.done = true
	subs, order, coord := tx.subs, tx.order, tx.coord
	tx.mu.Unlock()

	// A continuation needs a coordinator to live on even when the
	// transaction took nothing.
	if hasCont && len(order) == 0 {
		var s tuplespace.Txn
		if err := tx.r.nodes[0].do(ctx, func(cl *tuplespace.Client) error {
			var e error
			s, e = cl.Begin()
			return e
		}); err != nil {
			return err
		}
		subs[0] = s
		order = []int{0}
	}

	byNode := make(map[int][]tuplespace.Tuple)
	for _, t := range outs {
		h := tx.r.home(t)
		byNode[h] = append(byNode[h], t)
	}

	abortAll := func(from int) {
		for _, i := range order[from:] {
			subs[i].Abort() //nolint:errcheck — best-effort; the server also aborts on lease expiry
		}
	}

	if len(order) == 0 {
		// Pure-out transaction: no takes anywhere, nothing tentative
		// to protect. Route the batches directly.
		return tx.r.OutN(ctx, outs)
	}
	if coord < 0 {
		// No take ever succeeded, so no sub holds tentative state that
		// matters; the first opened sub serves as coordinator.
		coord = order[0]
	}

	if err := faultnet.Hit("cluster.commit.before-phase1", coord); err != nil {
		abortAll(0)
		return err
	}

	// Phase 1 — followers: publish every non-coordinator batch and
	// commit every follower sub-transaction. A failure here aborts the
	// coordinator, so the work is retried; follower batches that
	// already landed surface as duplicate side tuples.
	for h, batch := range byNode {
		if h == coord {
			continue
		}
		b := batch
		var ferr error
		if s, ok := subs[h]; ok {
			if ferr = s.Commit(ctx, b); ferr == nil {
				delete(subs, h)
				order = removeNode(order, h)
			}
		} else {
			ferr = tx.r.nodes[h].do(ctx, func(cl *tuplespace.Client) error {
				return cl.OutN(ctx, b)
			})
		}
		if ferr != nil {
			abortAll(0)
			return ferr
		}
	}
	for _, i := range append([]int(nil), order...) {
		if i == coord {
			continue
		}
		if err := subs[i].Commit(ctx, nil); err != nil {
			abortAll(0)
			return err
		}
		delete(subs, i)
		order = removeNode(order, i)
	}

	// The window the follower-first protocol is built around: follower
	// effects are durable, the coordinator's takes are still tentative.
	if err := faultnet.Hit("cluster.commit.between-phases", coord); err != nil {
		abortAll(0)
		return err
	}

	// Phase 2 — the coordinator: its takes plus its share of the outs
	// (and the continuation) commit atomically on the home node of the
	// first successful take.
	s := subs[coord]
	if hasCont {
		cc, ok := s.(tuplespace.ContCommitter)
		if !ok {
			s.Abort() //nolint:errcheck
			return fmt.Errorf("cluster: node %d transaction cannot store continuations", coord)
		}
		err = cc.CommitCont(ctx, byNode[coord], cont)
	} else {
		err = s.Commit(ctx, byNode[coord])
	}
	if err != nil {
		// A refused commit (ErrFormalOut) sent nothing and left the sub
		// open; after a lost connection the server has aborted it.
		s.Abort() //nolint:errcheck
	}
	return err
}

// Abort rolls back every sub-transaction.
func (tx *routerTxn) Abort() error {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return nil
	}
	tx.done = true
	subs := tx.subs
	tx.mu.Unlock()
	var firstErr error
	for _, s := range subs {
		if err := s.Abort(); err != nil && firstErr == nil && !errors.Is(err, tuplespace.ErrTxnFinished) {
			firstErr = err
		}
	}
	return firstErr
}

func removeNode(order []int, i int) []int {
	out := order[:0]
	for _, v := range order {
		if v != i {
			out = append(out, v)
		}
	}
	return out
}

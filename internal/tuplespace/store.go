package tuplespace

import (
	"context"
	"errors"
	"sync"

	"freepdm/internal/obs"
)

// Store is the unified tuple-space surface: the same Linda operations
// whether the space is in-process (*Space), reached over TCP
// (*Client), write-ahead logged (durable.Space), or partitioned over
// several servers (cluster.Router). Every PLED/PLET program in this
// repository is written against Store, so a program runs unchanged on
// any backend.
//
// Since Store v2 every operation is ctx-first: the context carries
// cancellation and deadlines for the blocking takes, and its span
// context (obs.ContextWith) rides with outs as the stored tuples'
// origin and with takes as the consumer's trace parent — including
// over TCP, where the wire protocol forwards it. Callers that don't
// care pass context.Background(), or use the package-level non-ctx
// convenience wrappers (tuplespace.Out, tuplespace.Inp, ...).
type Store interface {
	Out(ctx context.Context, fields ...any) error
	OutN(ctx context.Context, tuples []Tuple) error
	In(ctx context.Context, tmplFields ...any) (Tuple, error)
	// InTraced is In additionally returning the taken tuple's origin
	// span context (zero when the tuple was stored untraced), so the
	// consumer can join the producer's trace — causality in Linda flows
	// through tuples, not calls.
	InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error)
	Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error)
	Rd(ctx context.Context, tmplFields ...any) (Tuple, error)
	Rdp(ctx context.Context, tmplFields ...any) (Tuple, bool, error)
	Len() (int, error)
	Close() error
}

// Txn is one lightweight PLinda transaction against a store: takes
// performed through it are tentative until Commit, and Abort (or, for
// remote transactions, a lease expiry or connection drop) restores
// them. Outs are not part of Txn — the PLinda runtime buffers them and
// passes the batch to Commit, so an aborted transaction's outs were
// simply never published.
type Txn interface {
	In(ctx context.Context, tmplFields ...any) (Tuple, error)
	InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error)
	Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error)
	// Commit atomically finalizes the takes and publishes outs. The
	// ctx's span context is stamped onto the published tuples as their
	// origin.
	Commit(ctx context.Context, outs []Tuple) error
	// Abort restores every take. Aborting a finished transaction is a
	// no-op.
	Abort() error
}

// TxnStore is a Store that supports lightweight transactions.
type TxnStore interface {
	Store
	Begin() (Txn, error)
}

// ContCommitter is the optional Txn extension for PLinda's
// continuation committing: the continuation tuple is stored with the
// commit so a respawned process can resume from it (via Recoverer).
type ContCommitter interface {
	CommitCont(ctx context.Context, outs []Tuple, cont Tuple) error
}

// Recoverer is the optional Store extension that retrieves the last
// continuation committed under this store's identity (for a Client,
// its session name).
type Recoverer interface {
	Recover() (Tuple, bool, error)
}

// ErrTxnFinished rejects operations on a transaction that was already
// committed or aborted — including the server-side abort a lease
// expiry forces under a still-running remote operation.
var ErrTxnFinished = errors.New("tuplespace: transaction already finished")

// Options has no fields: a space takes no settings. It and NewSpace
// remain until the benchmark, which still calls NewSpace(Options{}),
// moves to New.
type Options struct{}

// NewSpace returns New(). It remains until the benchmark moves to New.
func NewSpace(Options) *Space { return New() }

// Non-ctx convenience wrappers. The constraint-based signatures let one
// wrapper serve both Store and Txn (and any concrete backend), so
// call sites that don't thread contexts read like Linda proper:
// tuplespace.Out(ts, "tag", 1).

// Out places a tuple into s without a context.
func Out[S interface {
	Out(context.Context, ...any) error
}](s S, fields ...any) error {
	return s.Out(context.Background(), fields...)
}

// OutN places a batch of tuples into s without a context.
func OutN[S interface {
	OutN(context.Context, []Tuple) error
}](s S, tuples []Tuple) error {
	return s.OutN(context.Background(), tuples)
}

// Inp is the non-blocking destructive match on s without a context.
func Inp[S interface {
	Inp(context.Context, ...any) (Tuple, bool, error)
}](s S, tmplFields ...any) (Tuple, bool, error) {
	return s.Inp(context.Background(), tmplFields...)
}

// Interface conformance, checked at compile time.
var (
	_ TxnStore      = (*Space)(nil)
	_ TxnStore      = (*Client)(nil)
	_ Txn           = (*spaceTxn)(nil)
	_ Txn           = (*clientTxn)(nil)
	_ ContCommitter = (*clientTxn)(nil)
	_ Recoverer     = (*Client)(nil)
)

// spaceTxn is the in-process transaction: takes go straight to the
// space but are logged so Abort can republish them. The mutex makes a
// transaction safe to abort from another goroutine (the wire server
// aborts a session's transactions on lease expiry while a handler may
// still be blocked inside In).
type spaceTxn struct {
	s     *Space
	mu    sync.Mutex
	takes []Tuple
	done  bool
}

// Begin opens a transaction against the local space.
func (s *Space) Begin() (Txn, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return &spaceTxn{s: s}, nil
}

// record logs a completed take. If the transaction was aborted while
// the take was in flight, the tuple is republished immediately and the
// take reported as failed, so an abort never strands a tuple.
func (tx *spaceTxn) record(t Tuple) error {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		tx.s.out(append(Tuple(nil), t...), obs.SpanContext{}) //nolint:errcheck — best-effort restore on a lost race
		return ErrTxnFinished
	}
	tx.takes = append(tx.takes, t)
	tx.mu.Unlock()
	return nil
}

func (tx *spaceTxn) In(ctx context.Context, tmplFields ...any) (Tuple, error) {
	t, err := tx.s.In(ctx, tmplFields...)
	if err != nil {
		return nil, err
	}
	if err := tx.record(t); err != nil {
		return nil, err
	}
	return t, nil
}

// InTraced is the transactional take with origin propagation: the take
// is logged like In, and the stored tuple's origin span context is
// passed through.
func (tx *spaceTxn) InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error) {
	t, org, err := tx.s.InTraced(ctx, tmplFields...)
	if err != nil {
		return nil, obs.SpanContext{}, err
	}
	if err := tx.record(t); err != nil {
		return nil, obs.SpanContext{}, err
	}
	return t, org, nil
}

func (tx *spaceTxn) Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	t, ok, err := tx.s.Inp(ctx, tmplFields...)
	if err != nil || !ok {
		return nil, false, err
	}
	if err := tx.record(t); err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Commit finalizes the takes and publishes outs, stamped with the
// ctx's span context as their origin. Outs with a formal fail the
// commit with ErrFormalOut and leave the transaction open.
func (tx *spaceTxn) Commit(ctx context.Context, outs []Tuple) error {
	cs, err := copyTuples(outs)
	if err != nil {
		return err
	}
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return ErrTxnFinished
	}
	tx.done = true
	tx.takes = nil
	tx.mu.Unlock()
	return tx.s.outAll(cs, obs.FromContext(ctx))
}

func (tx *spaceTxn) Abort() error {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return nil
	}
	tx.done = true
	takes := tx.takes
	tx.takes = nil
	tx.mu.Unlock()
	return tx.s.OutN(context.Background(), takes)
}

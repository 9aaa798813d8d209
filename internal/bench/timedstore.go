package bench

import (
	"context"
	"sync/atomic"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// timedStore is the store boundary: a tuplespace.TxnStore decorator
// handed to plinda in the traced pass. It records one span per store
// operation, keyed by op and by the template's leading tag, and one txn
// span from Begin to Commit/Abort that parents the transaction's ops.
// It changes no behaviour (storetest runs through it) and forwards every
// optional capability plinda probes for by type assertion, so wrapping a
// store cannot silently drop one.
type timedStore struct {
	inner tuplespace.TxnStore
	tr    *tracer
}

func newTimedStore(inner tuplespace.TxnStore, tr *tracer) *timedStore {
	return &timedStore{inner: inner, tr: tr}
}

// leadingTag names a template or tuple by its first field when that is a
// string constant, as every tuple of the mining programs is.
func leadingTag(fields []any) string {
	if len(fields) > 0 {
		if s, ok := fields[0].(string); ok {
			return s
		}
	}
	return ""
}

func (s *timedStore) Out(ctx context.Context, fields ...any) error {
	start := s.tr.now()
	err := s.inner.Out(ctx, fields...)
	s.tr.record(Span{ID: s.tr.newID(), Parent: runSpanID, Name: "store.out", Tag: leadingTag(fields),
		Start: start, End: s.tr.now(), Outs: 1, Err: err != nil})
	return err
}

func (s *timedStore) OutN(ctx context.Context, tuples []tuplespace.Tuple) error {
	start := s.tr.now()
	err := s.inner.OutN(ctx, tuples)
	s.tr.record(Span{ID: s.tr.newID(), Parent: runSpanID, Name: "store.out",
		Start: start, End: s.tr.now(), Outs: len(tuples), Err: err != nil})
	return err
}

func (s *timedStore) In(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	t, _, err := s.InTraced(ctx, tmpl...)
	return t, err
}

func (s *timedStore) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	start := s.tr.now()
	t, org, err := s.inner.InTraced(ctx, tmpl...)
	s.tr.leaf(runSpanID, "store.in", leadingTag(tmpl), start, err)
	return t, org, err
}

func (s *timedStore) Inp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	start := s.tr.now()
	t, ok, err := s.inner.Inp(ctx, tmpl...)
	s.tr.leaf(runSpanID, "store.inp", leadingTag(tmpl), start, err)
	return t, ok, err
}

func (s *timedStore) Rd(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	start := s.tr.now()
	t, err := s.inner.Rd(ctx, tmpl...)
	s.tr.leaf(runSpanID, "store.rd", leadingTag(tmpl), start, err)
	return t, err
}

func (s *timedStore) Rdp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	start := s.tr.now()
	t, ok, err := s.inner.Rdp(ctx, tmpl...)
	s.tr.leaf(runSpanID, "store.rdp", leadingTag(tmpl), start, err)
	return t, ok, err
}

func (s *timedStore) Len() (int, error) { return s.inner.Len() }
func (s *timedStore) Close() error      { return s.inner.Close() }

// Begin opens the txn span and the inner transaction. The returned Txn
// implements tuplespace.ContCommitter exactly when the inner one does:
// plinda picks its commit path by that assertion, so always offering
// CommitCont would turn a silently dropped continuation into an error.
func (s *timedStore) Begin() (tuplespace.Txn, error) {
	id, start := s.tr.newID(), s.tr.now()
	inner, err := s.inner.Begin()
	s.tr.leaf(id, "store.begin", "", start, err)
	if err != nil {
		s.tr.record(Span{ID: id, Parent: runSpanID, Name: "txn", Start: start, End: s.tr.now(), Err: true})
		return nil, err
	}
	tx := &timedTxn{inner: inner, tr: s.tr, id: id, start: start}
	if cc, ok := inner.(tuplespace.ContCommitter); ok {
		return &timedContTxn{timedTxn: tx, cc: cc}, nil
	}
	return tx, nil
}

// The optional store capabilities, forwarded explicitly. Each answers as
// a store without the capability would when the inner store lacks it.

// Recover forwards tuplespace.Recoverer.
func (s *timedStore) Recover() (tuplespace.Tuple, bool, error) {
	if rec, ok := s.inner.(tuplespace.Recoverer); ok {
		return rec.Recover()
	}
	return nil, false, nil
}

// RetryableFailures forwards the cluster router's respawn hint.
func (s *timedStore) RetryableFailures() bool {
	rs, ok := s.inner.(interface{ RetryableFailures() bool })
	return ok && rs.RetryableFailures()
}

// Observe cascades plinda's instruments into the inner store.
func (s *timedStore) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	if so, ok := s.inner.(interface {
		Observe(*obs.Registry, *obs.Tracer)
	}); ok {
		so.Observe(reg, tracer)
	}
}

// SetSpanContext forwards the ambient trace parent of a remote session.
func (s *timedStore) SetSpanContext(sc obs.SpanContext) {
	if ss, ok := s.inner.(interface{ SetSpanContext(obs.SpanContext) }); ok {
		ss.SetSpanContext(sc)
	}
}

// Underlying exposes the in-process space beneath the inner store, nil
// when there is none (a client or a router).
func (s *timedStore) Underlying() *tuplespace.Space {
	switch st := s.inner.(type) {
	case *tuplespace.Space:
		return st
	case interface{ Underlying() *tuplespace.Space }:
		return st.Underlying()
	}
	return nil
}

// timedTxn wraps one inner transaction. Its ops are children of the txn
// span, which ends at the first Commit or Abort.
type timedTxn struct {
	inner tuplespace.Txn
	tr    *tracer
	id    uint32
	start int64
	done  atomic.Bool // Abort may come from another goroutine
}

func (tx *timedTxn) In(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	t, _, err := tx.InTraced(ctx, tmpl...)
	return t, err
}

func (tx *timedTxn) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	start := tx.tr.now()
	t, org, err := tx.inner.InTraced(ctx, tmpl...)
	tx.tr.leaf(tx.id, "store.in", leadingTag(tmpl), start, err)
	return t, org, err
}

func (tx *timedTxn) Inp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	start := tx.tr.now()
	t, ok, err := tx.inner.Inp(ctx, tmpl...)
	tx.tr.leaf(tx.id, "store.inp", leadingTag(tmpl), start, err)
	return t, ok, err
}

// finish records the op that ended the transaction and, once, the txn
// span itself.
func (tx *timedTxn) finish(name string, start int64, outs int, err error) {
	end := tx.tr.now()
	tx.tr.record(Span{ID: tx.tr.newID(), Parent: tx.id, Name: name, Start: start, End: end, Outs: outs, Err: err != nil})
	if tx.done.CompareAndSwap(false, true) {
		tx.tr.record(Span{ID: tx.id, Parent: runSpanID, Name: "txn", Start: tx.start, End: end, Err: err != nil})
	}
}

func (tx *timedTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	start := tx.tr.now()
	err := tx.inner.Commit(ctx, outs)
	tx.finish("store.commit", start, len(outs), err)
	return err
}

func (tx *timedTxn) Abort() error {
	start := tx.tr.now()
	err := tx.inner.Abort()
	tx.finish("store.abort", start, 0, err)
	return err
}

// timedContTxn adds CommitCont for inner transactions that store
// continuations (client and router transactions).
type timedContTxn struct {
	*timedTxn
	cc tuplespace.ContCommitter
}

func (tx *timedContTxn) CommitCont(ctx context.Context, outs []tuplespace.Tuple, cont tuplespace.Tuple) error {
	start := tx.tr.now()
	err := tx.cc.CommitCont(ctx, outs, cont)
	tx.finish("store.commit", start, len(outs), err)
	return err
}

var (
	_ tuplespace.TxnStore      = (*timedStore)(nil)
	_ tuplespace.Recoverer     = (*timedStore)(nil)
	_ tuplespace.Txn           = (*timedTxn)(nil)
	_ tuplespace.ContCommitter = (*timedContTxn)(nil)
)

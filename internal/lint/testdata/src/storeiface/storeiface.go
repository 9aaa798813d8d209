// Package storeiface proves the analyzer resolves tuple operations
// through the unified Store surface: call sites typed as
// tuplespace.Store, TxnStore or Txn, and call sites on any other type
// whose method set implements Store (the durable space, the cluster
// router, wrappers, test doubles), are checked exactly like direct
// *Space calls.
package storeiface

import (
	"context"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// Produce and Consume agree through the interface: no finding.
func Produce(ctx context.Context, st tuplespace.Store) error {
	return st.Out(ctx, "job", 7)
}

func Consume(ctx context.Context, st tuplespace.Store) (tuplespace.Tuple, error) {
	return st.In(ctx, "job", tuplespace.FormalInt)
}

// EmitStat and ReadStat disagree on field 1 (string vs float64); both
// sides of the broken contract are found through interface types, and
// the ctx-first Rd template is read past its context argument.
func EmitStat(ctx context.Context, st tuplespace.TxnStore) error {
	return st.Out(ctx, "stat", "hot")
}

func ReadStat(ctx context.Context, st tuplespace.Store) (tuplespace.Tuple, error) {
	return st.Rd(ctx, "stat", tuplespace.FormalFloat)
}

// Sweep leads a transactional take with a formal string: rejected.
func Sweep(ctx context.Context, tx tuplespace.Txn) (tuplespace.Tuple, bool, error) {
	return tx.Inp(ctx, tuplespace.FormalString, tuplespace.FormalInt)
}

// Logged implements tuplespace.Store by forwarding. The analyzer
// resolves its methods by method-set inclusion, not type identity, so
// the discarded error below is flagged like any Space call.
type Logged struct {
	inner *tuplespace.Space
}

func (l *Logged) Out(ctx context.Context, fields ...any) error {
	return l.inner.Out(ctx, fields...)
}
func (l *Logged) OutN(ctx context.Context, ts []tuplespace.Tuple) error {
	return l.inner.OutN(ctx, ts)
}
func (l *Logged) In(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	return l.inner.In(ctx, tmpl...)
}
func (l *Logged) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	return l.inner.InTraced(ctx, tmpl...)
}
func (l *Logged) Inp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	return l.inner.Inp(ctx, tmpl...)
}
func (l *Logged) Rd(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	return l.inner.Rd(ctx, tmpl...)
}
func (l *Logged) Rdp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	return l.inner.Rdp(ctx, tmpl...)
}
func (l *Logged) Len() (int, error) { return l.inner.Len() }
func (l *Logged) Close() error      { return l.inner.Close() }

// Drop discards the error through the implementing type.
func Drop(ctx context.Context, l *Logged) {
	l.Out(ctx, "job", 1)
}

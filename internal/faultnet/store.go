// The store-surface chaos middleware: a tuplespace.TxnStore that
// wraps any backend and injects faults at the operation boundary —
// no TCP required. Tests use the fault points ("faultnet.store.out.before",
// ".after", ...) for exact timing; `plinda -chaos` uses the static
// Delay/ErrRate knobs for hands-on chaos against the demo.
//
// A .before point firing means the operation never reached the
// backend (a request lost on the way out); a .after point firing
// means it DID reach the backend and the reply was lost — the caller
// sees an error for work that happened, the duplication-generating
// ambiguity every retry layer above must absorb.
package faultnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// ErrInjected is the error fault-injected operations fail with when a
// handler (or the static ErrRate) doesn't supply its own. It wraps
// tuplespace.ErrClosed so every layer above classifies an injected
// fault as the transient infrastructure failure it simulates: the
// cluster router retries it, PLinda respawns the proc — instead of
// one chaos coin flip aborting a whole run as a program bug.
var ErrInjected = fmt.Errorf("faultnet: injected fault: %w", tuplespace.ErrClosed)

// StoreOptions are the static chaos knobs of a wrapped store. The
// zero value injects nothing — all faults then come from armed fault
// points.
type StoreOptions struct {
	// Delay is added to every operation before it reaches the backend.
	Delay time.Duration
	// ErrRate is the probability, in [0,1], that an operation fails
	// with ErrInjected before reaching the backend.
	ErrRate float64
	// Seed seeds the ErrRate coin so a chaos run is reproducible; 0
	// selects a fixed default seed (still deterministic).
	Seed int64
}

// Store wraps an inner TxnStore with fault injection. It forwards the
// optional Recoverer and RetryableFailures extensions so PLinda treats
// the wrapped store exactly like the store inside it.
type Store struct {
	inner tuplespace.TxnStore
	opts  StoreOptions

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapStore wraps inner with chaos configured by opts.
func WrapStore(inner tuplespace.TxnStore, opts StoreOptions) *Store {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Store{inner: inner, opts: opts, rng: rand.New(rand.NewSource(seed))}
}

// before applies the static knobs and the op's .before fault point;
// a non-nil error means the operation must fail without touching the
// backend.
func (s *Store) before(op string, args ...any) error {
	if s.opts.Delay > 0 {
		time.Sleep(s.opts.Delay)
	}
	if s.opts.ErrRate > 0 {
		s.mu.Lock()
		hit := s.rng.Float64() < s.opts.ErrRate
		s.mu.Unlock()
		if hit {
			return fmt.Errorf("%w: %s", ErrInjected, op)
		}
	}
	return Hit("faultnet.store."+op+".before", args...)
}

// after applies the op's .after fault point: the backend already
// performed the operation, so a non-nil error here simulates a lost
// reply.
func (s *Store) after(op string, args ...any) error {
	return Hit("faultnet.store."+op+".after", args...)
}

func (s *Store) Out(ctx context.Context, fields ...any) error {
	if err := s.before("out", fields...); err != nil {
		return err
	}
	if err := s.inner.Out(ctx, fields...); err != nil {
		return err
	}
	return s.after("out", fields...)
}

func (s *Store) OutN(ctx context.Context, tuples []tuplespace.Tuple) error {
	if err := s.before("outn", len(tuples)); err != nil {
		return err
	}
	if err := s.inner.OutN(ctx, tuples); err != nil {
		return err
	}
	return s.after("outn", len(tuples))
}

func (s *Store) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := s.InTraced(ctx, tmplFields...)
	return t, err
}

func (s *Store) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	if err := s.before("in", tmplFields...); err != nil {
		return nil, obs.SpanContext{}, err
	}
	t, org, err := s.inner.InTraced(ctx, tmplFields...)
	if err != nil {
		return nil, obs.SpanContext{}, err
	}
	if err := s.after("in", tmplFields...); err != nil {
		return nil, obs.SpanContext{}, err
	}
	return t, org, nil
}

func (s *Store) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	if err := s.before("inp", tmplFields...); err != nil {
		return nil, false, err
	}
	t, ok, err := s.inner.Inp(ctx, tmplFields...)
	if err != nil {
		return nil, false, err
	}
	if err := s.after("inp", tmplFields...); err != nil {
		return nil, false, err
	}
	return t, ok, nil
}

func (s *Store) Rd(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	if err := s.before("rd", tmplFields...); err != nil {
		return nil, err
	}
	return s.inner.Rd(ctx, tmplFields...)
}

func (s *Store) Rdp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	if err := s.before("rdp", tmplFields...); err != nil {
		return nil, false, err
	}
	return s.inner.Rdp(ctx, tmplFields...)
}

func (s *Store) Len() (int, error) { return s.inner.Len() }

func (s *Store) Close() error { return s.inner.Close() }

// Begin opens a transaction on the inner store, wrapped so the txn's
// takes and commit pass through fault points too.
func (s *Store) Begin() (tuplespace.Txn, error) {
	if err := s.before("begin"); err != nil {
		return nil, err
	}
	tx, err := s.inner.Begin()
	if err != nil {
		return nil, err
	}
	return &storeTxn{s: s, inner: tx}, nil
}

// Recover forwards to the inner store's Recoverer; a store without one
// reports no continuation, which is also what a fresh session reports.
func (s *Store) Recover() (tuplespace.Tuple, bool, error) {
	if rec, ok := s.inner.(tuplespace.Recoverer); ok {
		return rec.Recover()
	}
	return nil, false, nil
}

// RetryableFailures forwards the inner store's judgment (the cluster
// router answers true), so wrapping a router in chaos does not hide
// it from PLinda's respawn policy — and answers true itself whenever
// this wrapper can inject faults (a static ErrRate, or armed fault
// points): injected failures are transient by construction, so procs
// they kill must be respawned, not failed as program bugs.
func (s *Store) RetryableFailures() bool {
	if rs, ok := s.inner.(interface{ RetryableFailures() bool }); ok && rs.RetryableFailures() {
		return true
	}
	return s.opts.ErrRate > 0 || Armed() > 0
}

// storeTxn wraps one inner transaction with fault points on its takes
// and its commit.
type storeTxn struct {
	s     *Store
	inner tuplespace.Txn
}

func (tx *storeTxn) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := tx.InTraced(ctx, tmplFields...)
	return t, err
}

func (tx *storeTxn) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	if err := tx.s.before("txn.in", tmplFields...); err != nil {
		return nil, obs.SpanContext{}, err
	}
	return tx.inner.InTraced(ctx, tmplFields...)
}

func (tx *storeTxn) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	if err := tx.s.before("txn.inp", tmplFields...); err != nil {
		return nil, false, err
	}
	return tx.inner.Inp(ctx, tmplFields...)
}

func (tx *storeTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	if err := tx.s.before("txn.commit", len(outs)); err != nil {
		return err
	}
	if err := tx.inner.Commit(ctx, outs); err != nil {
		return err
	}
	return tx.s.after("txn.commit", len(outs))
}

// CommitCont forwards continuation commits when the inner transaction
// supports them (the durable space and the cluster coordinator do).
func (tx *storeTxn) CommitCont(ctx context.Context, outs []tuplespace.Tuple, cont tuplespace.Tuple) error {
	cc, ok := tx.inner.(tuplespace.ContCommitter)
	if !ok {
		return fmt.Errorf("faultnet: inner transaction cannot store continuations")
	}
	if err := tx.s.before("txn.commit", len(outs)); err != nil {
		return err
	}
	if err := cc.CommitCont(ctx, outs, cont); err != nil {
		return err
	}
	return tx.s.after("txn.commit", len(outs))
}

func (tx *storeTxn) Abort() error { return tx.inner.Abort() }

// Compile-time conformance with the Store v2 surface.
var (
	_ tuplespace.TxnStore      = (*Store)(nil)
	_ tuplespace.Recoverer     = (*Store)(nil)
	_ tuplespace.Txn           = (*storeTxn)(nil)
	_ tuplespace.ContCommitter = (*storeTxn)(nil)
)

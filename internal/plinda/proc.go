package plinda

import (
	"context"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// Proc is one incarnation of a logical PLinda process. All tuple-space
// operations and the transaction statements (Xstart, Xcommit, Xabort,
// Xrecover) are methods on Proc. A Proc is used by a single goroutine.
//
// A Proc runs against any tuplespace.TxnStore: transactional takes go
// through the store's Txn (tentative until commit — locally via an
// undo log, remotely held server-side under the session lease), and
// outs are buffered locally so an aborted transaction's outs were
// never published.
type Proc struct {
	srv         *Server    // nil for Standalone procs
	st          *procState // nil for Standalone procs
	ctx         context.Context
	store       tuplespace.TxnStore
	incarnation int
	sc          obs.SpanContext // incarnation root span; zero when untraced

	txnOpen  bool
	txnStart time.Time          // stamped by Xstart when the server is observed
	txn      tuplespace.Txn     // open transaction, nil outside Xstart..Xcommit
	txnSp    *obs.Span          // span covering the open transaction, nil when untraced
	rebased  bool               // txnSp already rebased onto a taken tuple's origin
	buffer   []tuplespace.Tuple // tuples outed inside the txn, private until commit
}

// Standalone wraps a store in a Proc that has no server: the
// transaction statements and tuple operations all work, but there is
// no process table, suspension, or automatic respawn. Remote workers
// run their ProcFunc this way — the wire session's lease supplies the
// failure handling, and Xcommit's continuation rides the session so
// Xrecover works across reconnects under the same session name.
func Standalone(store tuplespace.TxnStore) *Proc {
	return &Proc{store: store, ctx: context.Background()}
}

// Name returns the logical process name ("" for standalone procs).
func (p *Proc) Name() string {
	if p.st == nil {
		return ""
	}
	return p.st.name
}

// Incarnation returns which re-spawn of the logical process this is
// (0 for the first run).
func (p *Proc) Incarnation() int { return p.incarnation }

// Store returns the transactional store this incarnation runs against.
func (p *Proc) Store() tuplespace.TxnStore { return p.store }

// killed reports whether this incarnation has been destroyed.
func (p *Proc) killed() bool { return p.ctx.Err() != nil }

// opCtx returns the context tuple-space operations run under: the
// incarnation context, carrying the open transaction's span context
// when one exists so server-side child spans (and tuple origin stamps)
// attach to the transaction rather than the incarnation.
func (p *Proc) opCtx() context.Context {
	if p.txnOpen && p.txnSp != nil {
		return obs.ContextWith(p.ctx, p.txnSp.Context())
	}
	return p.ctx
}

// joinOrigin rebases the transaction span onto the origin of the first
// traced tuple the transaction takes. This is how a PLinda worker's
// transaction joins the master's trace: the master stamped the task
// tuple at commit, the take returns that span context, and from here
// on the transaction — its commit, its WAL append, its result tuples —
// belongs to the originating trace.
func (p *Proc) joinOrigin(org obs.SpanContext) {
	if p.txnSp == nil || p.rebased || !org.Valid() || org.Trace == p.txnSp.Context().Trace {
		return
	}
	p.txnSp.Rebase(org)
	p.rebased = true
}

// gate blocks while the process is suspended and returns ErrKilled if
// the incarnation was destroyed. Every tuple-space operation passes
// through it, which is where the PLinda daemon would preempt a client.
func (p *Proc) gate() error {
	if p.srv == nil {
		if p.killed() {
			return ErrKilled
		}
		return nil
	}
	s := p.srv
	s.mu.Lock()
	for p.st.suspended && !p.killed() {
		p.st.status = Suspended
		p.st.gate.Wait()
	}
	if p.st.status == Suspended {
		p.st.status = Running
	}
	s.mu.Unlock()
	if p.killed() {
		return ErrKilled
	}
	return nil
}

// Xstart opens a lightweight transaction. Transactions do not nest.
func (p *Proc) Xstart() error {
	if err := p.gate(); err != nil {
		return err
	}
	if p.txnOpen {
		return errNestedTxn
	}
	tx, err := p.store.Begin()
	if err != nil {
		return err
	}
	p.txn = tx
	p.txnOpen = true
	p.rebased = false
	p.buffer = p.buffer[:0]
	if p.srv != nil {
		if o := p.srv.obs.Load(); o != nil {
			p.txnStart = time.Now()
			o.xstarts.Inc()
			if o.tracer != nil {
				// The transaction span lives from Xstart to its outcome;
				// its name is settled at End (commit/abort), and it may be
				// rebased onto the origin of the first traced take.
				p.txnSp = o.tracer.StartChild(p.sc, "txn", "txn",
					"proc", p.st.name, "incarnation", p.incarnation)
			}
		}
	}
	return nil
}

// Xcommit atomically publishes the transaction's outs, finalizes its
// takes, and durably records the given live variables as this
// process's continuation (retrievable by Xrecover after a failure).
// Passing no values commits without changing the continuation.
//
// Under a server the continuation lives in the process table (and is
// checkpointed with the space); a standalone proc on a session-named
// remote store commits it with the transaction, mirroring PLinda's
// xcommit(continuation) wire primitive.
func (p *Proc) Xcommit(continuation ...any) error {
	if !p.txnOpen {
		return errCommitNoTxn
	}
	if p.killed() {
		// The incarnation died before the commit point: abort instead.
		p.abort()
		return ErrKilled
	}
	var cont tuplespace.Tuple
	if len(continuation) > 0 {
		cont = append(tuplespace.Tuple(nil), continuation...)
	}
	// Commit under the transaction's span context: the published outs
	// are stamped with it as their origin, and instrumented backends
	// (wire, WAL) hang their commit spans beneath it.
	var err error
	if cc, ok := p.txn.(tuplespace.ContCommitter); ok && cont != nil && p.srv == nil {
		err = cc.CommitCont(p.opCtx(), p.buffer, cont)
	} else {
		err = p.txn.Commit(p.opCtx(), p.buffer)
	}
	if err != nil {
		p.abort()
		return err
	}
	outs := len(p.buffer)
	p.txn = nil
	p.txnOpen = false
	p.buffer = p.buffer[:0]
	if p.srv != nil {
		p.srv.mu.Lock()
		if cont != nil {
			p.st.continuation = cont
			p.st.hasCont = true
		}
		p.srv.commits++
		p.srv.mu.Unlock()
		if o := p.srv.obs.Load(); o != nil {
			o.commits.Inc()
			o.txnDur.Observe(p.txnDur())
			name := "commit"
			if cont != nil {
				name = "continuation-commit"
			}
			if sp := p.txnSp; sp != nil {
				sp.SetName(name)
				sp.Annotate("outs", outs)
				sp.End()
			}
		}
	}
	p.txnSp = nil
	return nil
}

// Annotate adds an attribute to the open transaction's span. It is a
// no-op outside a traced transaction.
func (p *Proc) Annotate(key string, value any) { p.txnSp.Annotate(key, value) }

// Xabort rolls the open transaction back: buffered outs are discarded
// and every tuple the transaction removed is returned to the space.
func (p *Proc) Xabort() {
	if p.txnOpen {
		p.abort()
	}
}

func (p *Proc) abort() {
	if p.txn != nil {
		p.txn.Abort() //nolint:errcheck // best-effort on shutdown
	}
	p.txn = nil
	p.txnOpen = false
	p.buffer = p.buffer[:0]
	sp := p.txnSp
	p.txnSp = nil
	if p.srv == nil {
		return
	}
	p.srv.mu.Lock()
	p.srv.aborts++
	p.srv.mu.Unlock()
	if o := p.srv.obs.Load(); o != nil {
		o.aborts.Inc()
		o.txnDur.Observe(p.txnDur())
	}
	sp.SetName("abort")
	sp.End()
}

// Xrecover returns the continuation committed by the most recent
// successful Xcommit of any incarnation of this logical process, and
// whether one exists. Fresh processes (incarnation 0, never committed)
// get ok=false, matching the PLinda xrecover idiom. Standalone procs
// recover through the store when it supports it (a session-named
// remote client does).
func (p *Proc) Xrecover() (tuplespace.Tuple, bool) {
	if p.srv == nil {
		if rec, ok := p.store.(tuplespace.Recoverer); ok {
			t, found, err := rec.Recover()
			if err != nil {
				return nil, false
			}
			return t, found
		}
		return nil, false
	}
	p.srv.mu.Lock()
	defer p.srv.mu.Unlock()
	if !p.st.hasCont {
		return nil, false
	}
	return append(tuplespace.Tuple(nil), p.st.continuation...), true
}

// Out places a tuple in the space. Inside a transaction the tuple is
// buffered and becomes visible to other processes only at Xcommit;
// outside a transaction it is published immediately. A tuple with a
// formal field fails with tuplespace.ErrFormalOut either way.
func (p *Proc) Out(fields ...any) error {
	if err := p.gate(); err != nil {
		return err
	}
	if p.txnOpen {
		t, err := tuplespace.CopyTuple(fields)
		if err != nil {
			return err
		}
		p.buffer = append(p.buffer, t)
		return nil
	}
	return p.store.Out(p.opCtx(), fields...)
}

// OutN places a batch of tuples in the space, with the same semantics
// as calling Out once per tuple in order. Inside a transaction the
// batch joins the commit buffer; outside it is published through the
// store's batched OutN, one waiter-delivery pass per tuple but no
// per-tuple call overhead. Masters use it for task fan-outs.
func (p *Proc) OutN(tuples []tuplespace.Tuple) error {
	if err := p.gate(); err != nil {
		return err
	}
	if p.txnOpen {
		n := len(p.buffer)
		for _, t := range tuples {
			c, err := tuplespace.CopyTuple(t)
			if err != nil {
				p.buffer = p.buffer[:n]
				return err
			}
			p.buffer = append(p.buffer, c)
		}
		return nil
	}
	return p.store.OutN(p.opCtx(), tuples)
}

// takeBuffered serves In/Rd from this transaction's private buffer so
// a transaction can consume tuples it has produced itself. A template
// leading with a formal string fails with ErrCrossTemplate before the
// buffer is consulted, as it does on every Store.
func (p *Proc) takeBuffered(tm tuplespace.Template, take bool) (tuplespace.Tuple, bool, error) {
	if len(tm) > 0 && tm[0] == tuplespace.FormalString {
		return nil, false, tuplespace.ErrCrossTemplate
	}
	if !p.txnOpen {
		return nil, false, nil
	}
	for i, t := range p.buffer {
		if tm.Matches(t) {
			if take {
				p.buffer = append(p.buffer[:i], p.buffer[i+1:]...)
			}
			return t, true, nil
		}
	}
	return nil, false, nil
}

// In blocks until a matching tuple exists and removes it. Inside a
// transaction the removal is tentative until Xcommit; Xabort (or
// failure) restores the tuple.
func (p *Proc) In(tmpl ...any) (tuplespace.Tuple, error) {
	if err := p.gate(); err != nil {
		return nil, err
	}
	if t, ok, err := p.takeBuffered(tuplespace.Template(tmpl), true); ok || err != nil {
		return t, err
	}
	p.setStatus(Blocked)
	defer p.setStatus(Running)
	var t tuplespace.Tuple
	var err error
	switch {
	case p.txnOpen:
		var org obs.SpanContext
		t, org, err = p.txn.InTraced(p.opCtx(), tmpl...)
		if err == nil {
			p.joinOrigin(org)
		}
	default:
		t, _, err = p.store.InTraced(p.opCtx(), tmpl...)
	}
	if err != nil {
		if p.killed() {
			return nil, ErrKilled
		}
		return nil, err
	}
	if p.killed() {
		if !p.txnOpen {
			// Died between match and delivery with no transaction to
			// undo the take: re-out the tuple directly, off the (dead)
			// incarnation context so the restore cannot be canceled.
			p.store.Out(context.Background(), t...) //nolint:errcheck
		}
		// Inside a transaction the incarnation-exit abort restores it.
		return nil, ErrKilled
	}
	return t, nil
}

// Inp is the non-blocking form of In.
func (p *Proc) Inp(tmpl ...any) (tuplespace.Tuple, bool, error) {
	if err := p.gate(); err != nil {
		return nil, false, err
	}
	if t, ok, err := p.takeBuffered(tuplespace.Template(tmpl), true); ok || err != nil {
		return t, ok, err
	}
	if p.txnOpen {
		return p.txn.Inp(p.opCtx(), tmpl...)
	}
	return p.store.Inp(p.opCtx(), tmpl...)
}

// Rd blocks until a matching tuple exists and returns it without
// removing it.
func (p *Proc) Rd(tmpl ...any) (tuplespace.Tuple, error) {
	if err := p.gate(); err != nil {
		return nil, err
	}
	if t, ok, err := p.takeBuffered(tuplespace.Template(tmpl), false); ok || err != nil {
		return t, err
	}
	p.setStatus(Blocked)
	defer p.setStatus(Running)
	t, err := p.store.Rd(p.opCtx(), tmpl...)
	if err != nil {
		if p.killed() {
			return nil, ErrKilled
		}
		return nil, err
	}
	return t, nil
}

// Rdp is the non-blocking form of Rd.
func (p *Proc) Rdp(tmpl ...any) (tuplespace.Tuple, bool, error) {
	if err := p.gate(); err != nil {
		return nil, false, err
	}
	if t, ok, err := p.takeBuffered(tuplespace.Template(tmpl), false); ok || err != nil {
		return t, ok, err
	}
	return p.store.Rdp(p.opCtx(), tmpl...)
}

// ProcEval spawns another logical process, mirroring PLinda's
// proc_eval statement (process creation via the runtime rather than
// Linda's eval).
func (p *Proc) ProcEval(name string, fn ProcFunc) error {
	if err := p.gate(); err != nil {
		return err
	}
	if p.srv == nil {
		return errNoServer
	}
	return p.srv.Spawn(name, fn)
}

// txnDur measures the open transaction's age; zero if the observer
// was attached after Xstart (txnStart never stamped).
func (p *Proc) txnDur() time.Duration {
	if p.txnStart.IsZero() {
		return 0
	}
	return time.Since(p.txnStart)
}

func (p *Proc) setStatus(st Status) {
	if p.srv == nil {
		return
	}
	p.srv.mu.Lock()
	if p.st.status != Done && p.st.status != Failed && p.st.status != Suspended {
		p.st.status = st
	}
	p.srv.mu.Unlock()
}

package tuplespace

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
)

// ErrClientClosed is returned by Client operations after Close, and by
// operations whose connection was abandoned after a transport error.
var ErrClientClosed = errors.New("tuplespace: client closed")

// ErrTimeout is the sentinel wrapped by the net.Error a non-blocking
// client operation returns when its response misses the op timeout;
// errors.Is(err, ErrTimeout) detects it without a type assertion.
var ErrTimeout = errors.New("tuplespace: operation timed out")

// ErrLeaseExpired is returned by operations on a session whose
// heartbeat lease lapsed: the server has already aborted the session's
// transactions and restored their tentative takes. The identity is
// preserved across the wire.
var ErrLeaseExpired = errors.New("tuplespace: session lease expired")

// Networked tuple space. The original PLinda ran its server on one
// workstation of the LAN with clients on the others (chapter 7); this
// file provides the same split for the Go reproduction: Serve exposes
// any TxnStore backend over a listener, and Dial returns a Client
// whose operations have the same semantics as the local methods.
// Tuples travel in the binary wire format of codec.go; each connection
// opens with the 5-byte version handshake, so incompatible builds fail
// at dial time.
//
// The protocol is pipelined and multiplexed: every request carries a
// client-assigned ID, responses come back tagged with the same ID and
// may arrive out of order. A Client therefore keeps exactly one
// connection but never serializes operations on it — a blocked In
// occupies a waiter in the server's space, not the wire. Writes on
// both ends go through a buffered writer that is flushed only when no
// further frame is queued behind it, so bursts of small frames
// coalesce into few packets. Frames are encoded into pooled buffers —
// on the client outside the write lock, on the server in the handler
// goroutines — so the lock and the writer goroutine do I/O only.
//
// Fault tolerance (chapter 5's transactions, on the wire): a client
// dialed with DialOpts establishes a session, optionally named and
// optionally guarded by a heartbeat lease. Takes performed inside a
// client transaction (Client.Begin) are held server-side as tentative;
// Commit finalizes them and publishes the transaction's outs in the
// same request, optionally recording a continuation tuple under the
// session name. If the connection drops or the lease expires, the
// server aborts the session's open transactions, restoring every
// tentative take — a kill -9'd remote worker's task tuples reappear
// for other workers.

// request is one client operation. ID is echoed on the response so the
// client can demultiplex concurrent operations on one connection.
// Fields holds template or tuple fields (formals included, as formal
// values — the codec encodes them as type tags). Batch is used by
// "outn" (the tuples) and "txcommit" (the outs). Txn carries the
// client-assigned transaction ID for "txbegin" and for operations
// running inside the transaction. Target is the ID of the request a
// "cancel" aims at. Lease and Name configure the session on "hello";
// Cont (guarded by HasCont) is a "txcommit" continuation.
//
// Trace and Span are the distributed-tracing header: the span context
// of the client-side operation span (or, on an untraced client, of the
// caller's span). The server roots its per-request span under them, so
// one trace follows an operation across the process boundary. Zero
// means untraced; the codec's flag byte makes absent header fields
// free, so untraced requests pay nothing.
type request struct {
	ID      uint64
	Op      byte
	Fields  []any
	Batch   []Tuple
	Txn     uint64
	Target  uint64
	Lease   int64 // nanoseconds
	Name    string
	Cont    []any
	HasCont bool
	Trace   uint64
	Span    uint64
}

// Response error codes, mapping server-side sentinel errors back to
// their client-side identities so errors.Is holds across the wire.
const (
	codeOK uint8 = iota
	codeGeneric
	codeClosed
	codeCanceled
	codeDeadline
	codeLeaseExpired
	codeTxnFinished
)

// response is the server's answer to the request with the same ID.
// For a successful take ("in"), Trace and Span carry the span context
// the producer stamped on the tuple, so the consumer can join its
// transaction to the producer's trace (tuple-carried propagation).
type response struct {
	ID    uint64
	Tuple []any
	OK    bool
	Len   int
	Err   string
	Code  uint8
	Trace uint64
	Span  uint64
}

func codeFor(err error) uint8 {
	switch {
	case err == nil:
		return codeOK
	case errors.Is(err, ErrLeaseExpired):
		return codeLeaseExpired
	case errors.Is(err, ErrTxnFinished):
		return codeTxnFinished
	case errors.Is(err, ErrClosed):
		return codeClosed
	case errors.Is(err, context.Canceled):
		return codeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadline
	}
	return codeGeneric
}

// wireError reconstructs the error carried by a response, restoring
// sentinel identity from the code.
func wireError(resp *response) error {
	switch resp.Code {
	case codeClosed:
		return ErrClosed
	case codeCanceled:
		return context.Canceled
	case codeDeadline:
		return context.DeadlineExceeded
	case codeLeaseExpired:
		return ErrLeaseExpired
	case codeTxnFinished:
		return ErrTxnFinished
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

func errResp(err error) *response {
	return &response{Err: err.Error(), Code: codeFor(err)}
}

// countingConn counts bytes crossing a server connection into the
// space's registry (nil-safe counters).
type countingConn struct {
	net.Conn
	rx, tx *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// ServerBackend is what Serve needs from a space implementation: the
// transactional store plus access to its attached instruments. Both
// *Space and durable.Space satisfy it.
type ServerBackend interface {
	TxnStore
	Registry() *obs.Registry
	Tracer() *obs.Tracer
}

// netServer is the per-listener state shared by all connections:
// continuation tuples committed under session names. Continuations are
// kept in memory only — they survive a client's death (any reconnect
// under the same name recovers them) but not a restart of the serving
// process; the PLinda runtime additionally keeps continuations in its
// own process table.
type netServer struct {
	be    ServerBackend
	mu    sync.Mutex
	conts map[string]Tuple
}

func (ns *netServer) setCont(name string, t Tuple) {
	ns.mu.Lock()
	ns.conts[name] = t
	ns.mu.Unlock()
}

func (ns *netServer) cont(name string) (Tuple, bool) {
	ns.mu.Lock()
	t, ok := ns.conts[name]
	ns.mu.Unlock()
	return t, ok
}

// connState is the per-connection server machinery: a reader loop
// (the calling goroutine), handler goroutines for blocking ops, one
// writer goroutine that does pure frame I/O, and the session state —
// name, lease timer, open transactions, and cancel handles for
// in-flight blocking operations.
type connState struct {
	ns      *netServer
	be      ServerBackend
	respCh  chan *encBuf // encoded response frames, pooled buffers
	wg      sync.WaitGroup
	reg     *obs.Registry
	tracer  *obs.Tracer
	cm      *codecMetrics
	hists   [opMax]*obs.Histogram // nil entries when unobserved
	flushes *obs.Counter
	bouts   *obs.Counter
	btuples *obs.Counter

	sessions   *obs.Counter
	txnBegins  *obs.Counter
	txnCommits *obs.Counter
	txnAborts  *obs.Counter
	autoAborts *obs.Counter
	leaseExps  *obs.Counter
	cxls       *obs.Counter
	openTxns   *obs.Gauge

	ctx       context.Context // session context: canceled on teardown or lease expiry
	cancelAll context.CancelFunc

	mu      sync.Mutex
	name    string
	lease   time.Duration
	timer   *time.Timer
	expired bool
	sessSC  obs.SpanContext // first traced request's context; links lease events
	txns    map[uint64]Txn
	cancels map[uint64]context.CancelFunc
}

// Serve serves the backend on the listener until the listener is
// closed; each accepted connection handles requests pipelined: a
// dedicated reader decodes frames, non-blocking ops run inline,
// blocking in/rd run in their own goroutines, and a dedicated writer
// streams tagged responses back as they complete. It returns after the
// listener closes.
//
// If the backend has an observer attached, the server also records
// wire-level metrics: request/response byte counters
// ("net.rx_bytes"/"net.tx_bytes"), codec byte/pool counters
// ("codec.enc_bytes", "codec.dec_bytes", "codec.pool_hits",
// "codec.pool_misses"), connection counters, a per-op latency
// histogram ("net.op.<op>", covering queueing plus matching — for
// blocking in/rd this includes the wait), batch counters
// ("net.batch_outs"/"net.batch_tuples"), a response-flush counter
// ("net.flushes"), session/lease/transaction counters
// ("net.sessions", "net.lease_expirations", "net.txn_begins",
// "net.txn_commits", "net.txn_aborts", "net.txn_auto_aborts",
// "net.cancels", gauge "net.open_txns"), and kind "net" trace events.
func Serve(l net.Listener, be ServerBackend) error {
	ns := &netServer{be: be, conts: make(map[string]Tuple)}
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			serveConn(ns, conn)
		}()
	}
}

// ServeTCP serves a local space on the listener; it is Serve
// specialized to the in-process backend.
func ServeTCP(l net.Listener, s *Space) error { return Serve(l, s) }

func serveConn(ns *netServer, conn net.Conn) {
	// The registry is looked up per connection so backends observed
	// after Serve still get wire metrics on new connections.
	cs := &connState{
		ns:      ns,
		be:      ns.be,
		respCh:  make(chan *encBuf, 64),
		reg:     ns.be.Registry(),
		tracer:  ns.be.Tracer(),
		txns:    make(map[uint64]Txn),
		cancels: make(map[uint64]context.CancelFunc),
	}
	cs.ctx, cs.cancelAll = context.WithCancel(context.Background())
	defer cs.cancelAll()
	var rwc net.Conn = conn
	if cs.reg != nil {
		cs.reg.Counter("net.conns").Inc()
		cs.reg.Gauge("net.open_conns").Add(1)
		defer cs.reg.Gauge("net.open_conns").Add(-1)
		rwc = &countingConn{Conn: conn, rx: cs.reg.Counter("net.rx_bytes"), tx: cs.reg.Counter("net.tx_bytes")}
		cs.cm = newCodecMetrics(cs.reg)
		for op := byte(1); op < opMax; op++ {
			cs.hists[op] = cs.reg.Histogram("net.op." + opName(op))
		}
		cs.flushes = cs.reg.Counter("net.flushes")
		cs.bouts = cs.reg.Counter("net.batch_outs")
		cs.btuples = cs.reg.Counter("net.batch_tuples")
		cs.sessions = cs.reg.Counter("net.sessions")
		cs.txnBegins = cs.reg.Counter("net.txn_begins")
		cs.txnCommits = cs.reg.Counter("net.txn_commits")
		cs.txnAborts = cs.reg.Counter("net.txn_aborts")
		cs.autoAborts = cs.reg.Counter("net.txn_auto_aborts")
		cs.leaseExps = cs.reg.Counter("net.lease_expirations")
		cs.cxls = cs.reg.Counter("net.cancels")
		cs.openTxns = cs.reg.Gauge("net.open_txns")
	}

	// Handshake: both sides send their banner first, then validate the
	// peer's, so neither end deadlocks waiting. The server's banner
	// must be flushed before the writer goroutine takes over bw.
	bw := bufio.NewWriter(rwc)
	if err := writeHandshake(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	br := bufio.NewReader(rwc)
	if err := expectHandshake(br); err != nil {
		return
	}

	// Writer: pure I/O — handlers encode, this goroutine writes frames
	// and returns buffers to the pool. Flushes only when no response is
	// queued behind the one just written, coalescing bursts (e.g. the
	// wakeups after an OutN) into one packet. Keeps draining after a
	// write error so handler sends never block.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var werr error
		for e := range cs.respCh {
			if werr == nil {
				if werr = writeFrame(bw, e.b); werr == nil && len(cs.respCh) == 0 {
					if werr = bw.Flush(); werr == nil {
						cs.flushes.Inc()
					}
				}
			}
			putEncBuf(e)
		}
	}()

	var scratch []byte
	for {
		body, err := readFrame(br, &scratch)
		if err != nil {
			break // connection closed
		}
		cs.cm.dec(len(body))
		cs.touch()
		req := new(request)
		if derr := decodeRequest(body, req); derr != nil {
			if req.ID == 0 {
				break // header itself unreadable: nothing to route to
			}
			// The frame boundary is intact (length-prefixed), so a bad
			// body — e.g. an unregistered formal type — poisons only
			// this request, not the connection.
			resp := errResp(derr)
			resp.ID = req.ID
			cs.sendResp(resp)
			continue
		}
		if req.Op == opIn || req.Op == opRd {
			// Blocking ops get their own goroutine so they cannot stall
			// the requests pipelined behind them. The cancel handle is
			// registered before the handler starts, so a pipelined
			// "cancel" never races past it.
			hctx, hcancel := context.WithCancel(cs.ctx)
			cs.mu.Lock()
			cs.cancels[req.ID] = hcancel
			cs.mu.Unlock()
			cs.wg.Add(1)
			go func() {
				defer cs.wg.Done()
				cs.handle(req, hctx)
				cs.mu.Lock()
				delete(cs.cancels, req.ID)
				cs.mu.Unlock()
				hcancel()
			}()
			continue
		}
		cs.handle(req, cs.ctx)
	}
	// Connection teardown: release blocked handlers, then auto-abort
	// the session's surviving transactions — the connection-drop half
	// of the fault-tolerance contract. Restored tuples reappear for
	// other workers.
	cs.cancelAll()
	cs.mu.Lock()
	if cs.timer != nil {
		cs.timer.Stop()
	}
	cs.mu.Unlock()
	cs.wg.Wait()
	cs.mu.Lock()
	txns := cs.txns
	cs.txns = nil
	cs.mu.Unlock()
	for _, tx := range txns {
		tx.Abort() //nolint:errcheck — best-effort restore; the backend may be closing
		cs.autoAborts.Inc()
		cs.openTxns.Add(-1)
	}
	close(cs.respCh)
	<-writerDone
}

// sendResp encodes a response into a pooled buffer and queues it for
// the writer goroutine. Encoding can only fail on a tuple carrying an
// unregistered custom type; that failure is reported in-band as an
// error response, which always encodes.
func (cs *connState) sendResp(resp *response) {
	e, hit := getEncBuf()
	cs.cm.pool(hit)
	b, err := appendResponse(e.b, resp)
	if err != nil {
		er := errResp(err)
		er.ID = resp.ID
		b, _ = appendResponse(e.b[:0], er) // error responses cannot fail to encode
	}
	e.b = b
	cs.cm.enc(len(b))
	cs.respCh <- e
}

// touch resets the lease timer; called for every decoded request, so
// any traffic (including "ping") keeps the session alive.
func (cs *connState) touch() {
	cs.mu.Lock()
	if cs.timer != nil && !cs.expired {
		cs.timer.Reset(cs.lease)
	}
	cs.mu.Unlock()
}

// expire is the lease timer callback: it marks the session expired,
// aborts its transactions (restoring tentative takes immediately, not
// at connection teardown — the client may be partitioned, not dead),
// and cancels in-flight blocking operations. The connection stays open
// so the client deterministically observes ErrLeaseExpired.
func (cs *connState) expire() {
	cs.mu.Lock()
	if cs.expired || cs.txns == nil {
		cs.mu.Unlock()
		return
	}
	cs.expired = true
	txns := cs.txns
	cs.txns = make(map[uint64]Txn)
	cs.mu.Unlock()
	cs.leaseExps.Inc()
	for _, tx := range txns {
		tx.Abort() //nolint:errcheck — best-effort restore
		cs.autoAborts.Inc()
		cs.openTxns.Add(-1)
	}
	cs.cancelAll()
	if cs.tracer != nil {
		// The expiry event joins the session's trace when one is known,
		// so a worker's disappearance shows up inside its own trace.
		if sp := cs.tracer.StartChild(cs.sessionSC(), "net", "lease-expired"); sp != nil {
			sp.Annotate("session", cs.sessionName())
			sp.End()
		} else {
			cs.tracer.Record("net", "lease-expired", 0, "session", cs.sessionName())
		}
	}
}

// sessionSC returns the span context associated with this session (the
// first traced request's header), zero when the client is untraced.
func (cs *connState) sessionSC() obs.SpanContext {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.sessSC
}

// noteSession remembers the first traced request header as the
// session's span context for lease-expiry linkage.
func (cs *connState) noteSession(sc obs.SpanContext) {
	cs.mu.Lock()
	if !cs.sessSC.Valid() {
		cs.sessSC = sc
	}
	cs.mu.Unlock()
}

func (cs *connState) sessionExpired() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.expired
}

func (cs *connState) sessionName() string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.name
}

// mapErr translates a handler error for the wire. A blocking op
// unblocked by the session context, or a transaction op that lost to
// the expiry abort, surfaces as the lease expiry that caused it.
func (cs *connState) mapErr(err error) *response {
	if (errors.Is(err, context.Canceled) || errors.Is(err, ErrTxnFinished)) && cs.sessionExpired() {
		return errResp(ErrLeaseExpired)
	}
	return errResp(err)
}

// handle executes one request and queues its response. When the
// request carries a trace header, the whole server-side handling runs
// as a child span of the client's span, and the span context rides ctx
// into the backend so shard-match, waiter-block, and WAL-append child
// spans land in the same trace.
func (cs *connState) handle(req *request, ctx context.Context) {
	var start time.Time
	if cs.reg != nil || cs.tracer != nil {
		start = time.Now()
	}
	parent := obs.SpanContext{Trace: obs.ID(req.Trace), Span: obs.ID(req.Span)}
	sp := cs.tracer.StartChild(parent, "net", opName(req.Op))
	if sp != nil {
		cs.noteSession(parent)
		ctx = obs.ContextWith(ctx, sp.Context())
	}
	resp := serveOne(cs, req, ctx)
	resp.ID = req.ID
	if !start.IsZero() {
		d := time.Since(start)
		if cs.reg != nil && req.Op < opMax {
			cs.hists[req.Op].Observe(d)
		}
		if sp != nil {
			sp.Annotate("ok", resp.Err == "")
			sp.End()
		} else {
			cs.tracer.Record("net", opName(req.Op), d, "ok", resp.Err == "")
		}
	}
	cs.sendResp(resp)
}

// txn looks up an open transaction of this session.
func (cs *connState) txn(id uint64) Txn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.txns[id]
}

// takeTxn removes and returns an open transaction, for commit/abort.
func (cs *connState) takeTxn(id uint64) Txn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	tx := cs.txns[id]
	if tx != nil {
		delete(cs.txns, id)
	}
	return tx
}

func serveOne(cs *connState, req *request, ctx context.Context) *response {
	be := cs.be
	if cs.sessionExpired() {
		return errResp(ErrLeaseExpired)
	}
	switch req.Op {
	case opHello:
		cs.mu.Lock()
		cs.name = req.Name
		if req.Lease > 0 {
			cs.lease = time.Duration(req.Lease)
			if cs.timer == nil {
				cs.timer = time.AfterFunc(cs.lease, cs.expire)
			} else {
				cs.timer.Reset(cs.lease)
			}
		}
		cs.mu.Unlock()
		cs.sessions.Inc()
		return &response{OK: true}
	case opPing:
		return &response{OK: true} // the reader's touch already reset the lease
	case opTxBegin:
		tx, err := be.Begin()
		if err != nil {
			return cs.mapErr(err)
		}
		cs.mu.Lock()
		if cs.expired || cs.txns == nil {
			cs.mu.Unlock()
			tx.Abort() //nolint:errcheck — raced with expiry/teardown
			return errResp(ErrLeaseExpired)
		}
		// Id 0 means "no transaction" to in/inp, and overwriting an open
		// id would drop its Txn from the session table, never to be
		// committed or aborted: its tentative takes would be lost.
		if _, open := cs.txns[req.Txn]; open || req.Txn == 0 {
			cs.mu.Unlock()
			tx.Abort() //nolint:errcheck — nothing taken yet
			return errResp(fmt.Errorf("tuplespace: begin of transaction id %d, which is zero or already open", req.Txn))
		}
		cs.txns[req.Txn] = tx
		cs.mu.Unlock()
		cs.txnBegins.Inc()
		cs.openTxns.Add(1)
		return &response{OK: true}
	case opTxCommit:
		if req.HasCont && cs.sessionName() == "" {
			return errResp(errors.New("tuplespace: continuation commit requires a named session"))
		}
		tx := cs.takeTxn(req.Txn)
		if tx == nil {
			return cs.mapErr(ErrTxnFinished)
		}
		// The ctx carries this request's span context, so the WAL-append
		// span and the outs' trace stamps land in this request's trace.
		if err := tx.Commit(ctx, req.Batch); err != nil {
			return cs.mapErr(err)
		}
		if req.HasCont {
			cs.ns.setCont(cs.sessionName(), Tuple(req.Cont))
		}
		cs.txnCommits.Inc()
		cs.openTxns.Add(-1)
		return &response{OK: true}
	case opTxAbort:
		tx := cs.takeTxn(req.Txn)
		if tx == nil {
			return cs.mapErr(ErrTxnFinished)
		}
		if err := tx.Abort(); err != nil {
			return cs.mapErr(err)
		}
		cs.txnAborts.Inc()
		cs.openTxns.Add(-1)
		return &response{OK: true}
	case opCancel:
		cs.mu.Lock()
		fn := cs.cancels[req.Target]
		cs.mu.Unlock()
		if fn != nil {
			fn()
			cs.cxls.Inc()
		}
		return &response{OK: true}
	case opRecover:
		name := cs.sessionName()
		if name == "" {
			return errResp(errors.New("tuplespace: recover requires a named session"))
		}
		t, ok := cs.ns.cont(name)
		return &response{Tuple: t, OK: ok}
	case opOutN:
		if err := be.OutN(ctx, req.Batch); err != nil {
			return cs.mapErr(err)
		}
		cs.bouts.Inc()
		cs.btuples.Add(int64(len(req.Batch)))
		return &response{OK: true}
	}
	fields := req.Fields
	switch req.Op {
	case opOut:
		if err := be.Out(ctx, fields...); err != nil {
			return cs.mapErr(err)
		}
		return &response{OK: true}
	case opIn:
		// Takes go through the traced variant, returning the producer's
		// span context stamped on the tuple so the response can hand
		// provenance back to the consumer.
		var t Tuple
		var org obs.SpanContext
		var err error
		if req.Txn != 0 {
			tx := cs.txn(req.Txn)
			if tx == nil {
				return cs.mapErr(ErrTxnFinished)
			}
			t, org, err = tx.InTraced(ctx, fields...)
		} else {
			t, org, err = be.InTraced(ctx, fields...)
		}
		if err != nil {
			return cs.mapErr(err)
		}
		return &response{Tuple: t, OK: true, Trace: uint64(org.Trace), Span: uint64(org.Span)}
	case opRd:
		// Reads are non-destructive and therefore never tentative: a rd
		// inside a transaction goes straight to the store.
		t, err := be.Rd(ctx, fields...)
		if err != nil {
			return cs.mapErr(err)
		}
		return &response{Tuple: t, OK: true}
	case opInp:
		var t Tuple
		var ok bool
		var err error
		if req.Txn != 0 {
			tx := cs.txn(req.Txn)
			if tx == nil {
				return cs.mapErr(ErrTxnFinished)
			}
			t, ok, err = tx.Inp(ctx, fields...)
		} else {
			t, ok, err = be.Inp(ctx, fields...)
		}
		if err != nil {
			return cs.mapErr(err)
		}
		return &response{Tuple: t, OK: ok}
	case opRdp:
		t, ok, err := be.Rdp(ctx, fields...)
		if err != nil {
			return cs.mapErr(err)
		}
		return &response{Tuple: t, OK: ok}
	case opLen:
		n, err := be.Len()
		if err != nil {
			return cs.mapErr(err)
		}
		return &response{OK: true, Len: n}
	default:
		return errResp(fmt.Errorf("tuplespace: unknown op %d", req.Op))
	}
}

// timeoutError is the error returned when a non-blocking operation's
// response does not arrive within the op timeout. It implements
// net.Error so callers can detect the timeout generically, and
// unwraps to ErrTimeout for errors.Is.
type timeoutError struct{ op string }

func (e *timeoutError) Error() string {
	return "tuplespace: " + e.op + " timed out awaiting response"
}
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }
func (e *timeoutError) Unwrap() error   { return ErrTimeout }

// Client is a remote handle on a served store. Operations are
// pipelined over one connection and may be issued from any number of
// goroutines concurrently: a blocking In parks on a response channel
// while other operations keep flowing. One Client per process is
// enough; dialing more only helps to spread load across server
// connections.
type Client struct {
	conn net.Conn
	br   *bufio.Reader // owned by readLoop; holds handshake overflow

	wmu sync.Mutex // owns bw
	bw  *bufio.Writer
	wq  atomic.Int32 // writers queued or writing; used to coalesce flushes

	pmu     sync.Mutex
	pending map[uint64]chan *response // nil after fail/Close
	nextID  atomic.Uint64
	txnSeq  atomic.Uint64

	opTimeout atomic.Int64 // nanoseconds; non-blocking ops only
	closed    atomic.Bool

	stopPing     chan struct{} // nil when no heartbeat goroutine runs
	stopPingOnce sync.Once

	reg    atomic.Pointer[obs.Registry]
	trc    atomic.Pointer[obs.Tracer]
	cm     atomic.Pointer[codecMetrics]
	rootSC atomic.Pointer[obs.SpanContext] // ambient parent for non-ctx ops
}

// Observe attaches instruments to the client: every operation round
// trip becomes a client-side span ("net"/"cli.<op>") when a parent
// span context is available — from the operation's ctx, or the ambient
// session context set by SetSpanContext — and the codec counters
// ("codec.enc_bytes" etc.) start accumulating. PLinda cascades its
// observer here for remote incarnations.
func (c *Client) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	c.reg.Store(reg)
	c.trc.Store(tracer)
	c.cm.Store(newCodecMetrics(reg))
}

// Registry returns the attached registry (nil when unobserved).
func (c *Client) Registry() *obs.Registry { return c.reg.Load() }

// Tracer returns the attached tracer (nil when unobserved).
func (c *Client) Tracer() *obs.Tracer { return c.trc.Load() }

// SetSpanContext installs the ambient span context operations fall
// back to when their ctx carries none — typically a process
// incarnation's root span, so every op of the incarnation joins its
// trace. Safe to change between operations.
func (c *Client) SetSpanContext(sc obs.SpanContext) {
	c.rootSC.Store(&sc)
}

// parentSC resolves the span context an operation propagates: the
// ctx-carried one wins over the ambient session context.
func (c *Client) parentSC(ctx context.Context) obs.SpanContext {
	if sc := obs.FromContext(ctx); sc.Valid() {
		return sc
	}
	if sc := c.rootSC.Load(); sc != nil {
		return *sc
	}
	return obs.SpanContext{}
}

// DialOptions configures a client session.
type DialOptions struct {
	// DialTimeout bounds connection establishment, including the
	// version handshake; zero is unbounded.
	DialTimeout time.Duration
	// OpTimeout bounds every non-blocking operation (Out, OutN, Inp,
	// Rdp, Len, Ping, transaction commit/abort — a begin's answer is
	// awaited by the transaction's first operation, under that
	// operation's bound); zero is unbounded. Blocking In/Rd are
	// unbounded by design.
	OpTimeout time.Duration
	// Lease is the session's heartbeat lease: if the server sees no
	// traffic for this long it declares the client dead, aborts its
	// open transactions, and fails all further operations on the
	// session with ErrLeaseExpired. Zero disables the lease.
	Lease time.Duration
	// Heartbeat is the interval of the background keepalive pings.
	// Zero selects Lease/3; a negative value disables the background
	// pinger (the caller must Ping, or let the lease lapse — used by
	// partition tests).
	Heartbeat time.Duration
	// Name identifies the session for continuation recovery: a
	// continuation committed by this session's transactions can be
	// fetched with Recover by any later session dialed under the same
	// name.
	Name string
}

// Dial connects to a served tuple space with no timeouts, no lease,
// and no session name. Anything else is configured through DialOpts —
// there are no positional-argument dial variants.
func Dial(addr string) (*Client, error) { return DialOpts(addr, DialOptions{}) }

// DialOpts connects to a served tuple space and performs the version
// handshake. If the options request a lease or a session name, the
// session is established synchronously before DialOpts returns.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, err
	}
	if o.DialTimeout > 0 {
		conn.SetDeadline(time.Now().Add(o.DialTimeout)) //nolint:errcheck — best-effort bound on the handshake
	}
	br := bufio.NewReader(conn)
	if err := writeHandshake(conn); err != nil {
		conn.Close() //nolint:errcheck
		return nil, err
	}
	if err := expectHandshake(br); err != nil {
		conn.Close() //nolint:errcheck
		return nil, err
	}
	if o.DialTimeout > 0 {
		conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	c := newClient(conn, br)
	c.opTimeout.Store(int64(o.OpTimeout))
	if o.Lease > 0 || o.Name != "" {
		if _, err := c.roundTrip(&request{Op: opHello, Lease: int64(o.Lease), Name: o.Name}); err != nil {
			c.Close() //nolint:errcheck
			return nil, err
		}
		if o.Lease > 0 && o.Heartbeat >= 0 {
			hb := o.Heartbeat
			if hb == 0 {
				hb = o.Lease / 3
			}
			if hb <= 0 {
				hb = time.Millisecond
			}
			c.stopPing = make(chan struct{})
			go c.pingLoop(hb)
		}
	}
	return c, nil
}

// newClient starts a client on a connection past its handshake; br
// holds whatever the handshake read ahead.
func newClient(conn net.Conn, br *bufio.Reader) *Client {
	c := &Client{
		conn:    conn,
		br:      br,
		bw:      bufio.NewWriter(conn),
		pending: make(map[uint64]chan *response),
	}
	go c.readLoop()
	return c
}

// pingLoop keeps the session lease alive until the client fails or an
// error (including lease expiry) comes back.
func (c *Client) pingLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stopPing:
			return
		case <-t.C:
			if err := c.Ping(); err != nil {
				return
			}
		}
	}
}

func (c *Client) stopPinger() {
	if c.stopPing != nil {
		c.stopPingOnce.Do(func() { close(c.stopPing) })
	}
}

// Ping performs one keepalive round trip, resetting the session lease.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&request{Op: opPing})
	return err
}

// readLoop is the sole reader of the connection: it demultiplexes
// tagged responses to the goroutines awaiting them.
func (c *Client) readLoop() {
	var scratch []byte
	for {
		body, err := readFrame(c.br, &scratch)
		if err != nil {
			c.fail()
			return
		}
		c.cm.Load().dec(len(body))
		resp := new(response)
		if err := decodeResponse(body, resp); err != nil {
			c.fail()
			return
		}
		c.pmu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- resp // cap 1; the sole send for this ID
		}
	}
}

// fail abandons the connection: the stream may hold a partial frame,
// so every pending and future operation resolves to ErrClientClosed.
// Reports whether the client was already failed.
func (c *Client) fail() bool {
	already := c.closed.Swap(true)
	if !already {
		c.conn.Close() //nolint:errcheck
	}
	c.stopPinger()
	c.pmu.Lock()
	p := c.pending
	c.pending = nil
	c.pmu.Unlock()
	// Channels still in the map have no response in flight to them
	// (readLoop removes a channel before sending), so closing is safe
	// and wakes the waiting operation with ErrClientClosed.
	for _, ch := range p {
		close(ch)
	}
	return already
}

// SetOpTimeout changes the deadline applied to each non-blocking
// operation. It does not affect an operation already in flight.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTimeout.Store(int64(d)) }

// Close releases the connection. Every blocked or in-flight operation
// is unblocked with ErrClientClosed. The server observes the drop and
// auto-aborts any open transactions of this session.
func (c *Client) Close() error {
	c.fail()
	return nil
}

// blockingOp reports whether the op may legitimately wait forever on
// the server and must therefore not carry a timeout.
func blockingOp(op byte) bool { return op == opIn || op == opRd }

// encodeReq encodes req into a pooled buffer. An encode error (an
// unregistered custom field type) surfaces here, before any bytes hit
// the wire, leaving the connection healthy.
func (c *Client) encodeReq(req *request) (*encBuf, error) {
	e, hit := getEncBuf()
	cm := c.cm.Load()
	cm.pool(hit)
	b, err := appendRequest(e.b, req)
	if err != nil {
		putEncBuf(e)
		return nil, err
	}
	e.b = b
	cm.enc(len(b))
	return e, nil
}

// send assigns the request ID, encodes outside the write lock,
// registers a response channel, and writes the frame. On a write error
// the connection is abandoned.
func (c *Client) send(req *request) (chan *response, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	req.ID = c.nextID.Add(1)
	e, err := c.encodeReq(req)
	if err != nil {
		return nil, err
	}
	ch := make(chan *response, 1)
	c.pmu.Lock()
	if c.pending == nil {
		c.pmu.Unlock()
		putEncBuf(e)
		return nil, ErrClientClosed
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()
	if err := c.writeBuf(e); err != nil {
		if c.fail() {
			return nil, ErrClientClosed
		}
		return nil, err
	}
	return ch, nil
}

// write encodes and writes one fire-and-forget frame (used by the
// cancel protocol, which awaits the original response instead).
func (c *Client) write(req *request) error {
	e, err := c.encodeReq(req)
	if err != nil {
		return err
	}
	return c.writeBuf(e)
}

// writeBuf writes one encoded frame under the write lock and returns
// the buffer to the pool; flushes only if no other writer is queued
// behind it (which will flush for both).
func (c *Client) writeBuf(e *encBuf) error {
	c.wq.Add(1)
	c.wmu.Lock()
	err := writeFrame(c.bw, e.b)
	queued := c.wq.Add(-1)
	if err == nil && queued == 0 {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	putEncBuf(e)
	return err
}

func (c *Client) roundTrip(req *request) (*response, error) {
	return c.roundTripCtx(context.Background(), req)
}

// roundTripCtx stamps the trace header, runs the round trip, and ends
// the client-side op span. Heartbeat pings are not traced — they would
// drown every session trace in keepalive noise.
func (c *Client) roundTripCtx(ctx context.Context, req *request) (*response, error) {
	var sp *obs.Span
	if req.Op != opPing {
		parent := c.parentSC(ctx)
		sp = c.trc.Load().StartChild(parent, "net", "cli."+opName(req.Op))
		if sc := sp.Context(); sc.Valid() {
			req.Trace, req.Span = uint64(sc.Trace), uint64(sc.Span)
		} else if parent.Valid() {
			// No local tracer, but a parent to forward: the server still
			// links its spans under the caller's.
			req.Trace, req.Span = uint64(parent.Trace), uint64(parent.Span)
		}
	}
	resp, err := c.doRoundTrip(ctx, req)
	if sp != nil {
		sp.Annotate("ok", err == nil)
		sp.End()
	}
	return resp, err
}

func (c *Client) doRoundTrip(ctx context.Context, req *request) (*response, error) {
	// A context that is already done fails before touching the wire:
	// probes with expired deadlines never consume a tuple.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch, err := c.send(req)
	if err != nil {
		return nil, err
	}
	var timeoutC <-chan time.Time
	if d := time.Duration(c.opTimeout.Load()); d > 0 && !blockingOp(req.Op) {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, ErrClientClosed
		}
		if err := wireError(resp); err != nil {
			return nil, err
		}
		return resp, nil
	case <-timeoutC:
		// The response may still arrive, but the caller is gone; the
		// connection state is no longer trustworthy — abandon it, like
		// a transport error.
		c.fail()
		return nil, &timeoutError{op: opName(req.Op)}
	case <-ctx.Done():
		// Ask the server to cancel the blocked operation, then await
		// the original response: the server always answers, with the
		// tuple if the cancellation lost the race — the tuple wins, so
		// no take is lost on the wire. The op timeout stays armed for
		// non-blocking ops, so a wedged server cannot hold a
		// deadline-carrying probe past its configured bound.
		c.write(&request{ID: c.nextID.Add(1), Op: opCancel, Target: req.ID}) //nolint:errcheck — a write failure fails the conn; ch resolves either way
		select {
		case resp, ok := <-ch:
			if !ok {
				return nil, ErrClientClosed
			}
			if err := wireError(resp); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, ctx.Err()
				}
				return nil, err
			}
			return resp, nil
		case <-timeoutC:
			c.fail()
			return nil, &timeoutError{op: opName(req.Op)}
		}
	}
}

// Out places a tuple in the remote space. The ctx's span context
// travels in the wire header so the server stamps the tuple with this
// trace.
func (c *Client) Out(ctx context.Context, fields ...any) error {
	_, err := c.roundTripCtx(ctx, &request{Op: opOut, Fields: fields})
	return err
}

// OutN places a batch of tuples in the remote space in one round trip,
// with the same semantics as calling Out per tuple in order. Masters
// use it for task fan-outs, where per-tuple round trips dominate.
func (c *Client) OutN(ctx context.Context, tuples []Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	_, err := c.roundTripCtx(ctx, &request{Op: opOutN, Batch: tuples})
	return err
}

// In blocks until a matching tuple exists remotely and removes it. The
// server-side waiter is withdrawn when ctx is done, under the same
// tuple-wins rule as Space.In.
func (c *Client) In(ctx context.Context, tmplFields ...any) (Tuple, error) {
	t, _, err := c.InTraced(ctx, tmplFields...)
	return t, err
}

// Rd blocks until a matching tuple exists and returns a copy, under
// the same cancellation rules as In.
func (c *Client) Rd(ctx context.Context, tmplFields ...any) (Tuple, error) {
	t, _, err := takeOrigin(c.roundTripCtx(ctx, &request{Op: opRd, Fields: tmplFields}))
	return t, err
}

// takeOrigin unpacks a take's answer: the tuple plus the origin span
// context the server returns with it — the span under which the tuple
// was stamped by its producer, zero when untraced.
func takeOrigin(resp *response, err error) (Tuple, obs.SpanContext, error) {
	if err != nil {
		return nil, obs.SpanContext{}, err
	}
	org := obs.SpanContext{Trace: obs.ID(resp.Trace), Span: obs.ID(resp.Span)}
	return Tuple(resp.Tuple), org, nil
}

// InTraced is In plus the producer's span context for the taken tuple.
func (c *Client) InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error) {
	return takeOrigin(c.roundTripCtx(ctx, &request{Op: opIn, Fields: tmplFields}))
}

// Inp is the non-blocking destructive match. The ctx carries the probe's
// deadline and trace over the wire: an already-done ctx fails before
// any bytes are sent, and a ctx that expires in flight cancels the
// request under the tuple-wins rule, bounded by the op timeout.
func (c *Client) Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	resp, err := c.roundTripCtx(ctx, &request{Op: opInp, Fields: tmplFields})
	if err != nil {
		return nil, false, err
	}
	return Tuple(resp.Tuple), resp.OK, nil
}

// Rdp is the non-blocking non-destructive match, with the same ctx
// semantics as Inp.
func (c *Client) Rdp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	resp, err := c.roundTripCtx(ctx, &request{Op: opRdp, Fields: tmplFields})
	if err != nil {
		return nil, false, err
	}
	return Tuple(resp.Tuple), resp.OK, nil
}

// Len reports the remote tuple count.
func (c *Client) Len() (int, error) {
	resp, err := c.roundTrip(&request{Op: opLen})
	if err != nil {
		return 0, err
	}
	return resp.Len, nil
}

// Recover fetches the continuation tuple last committed under this
// session's name (see DialOptions.Name and ContCommitter). ok is false
// when no continuation was ever committed.
func (c *Client) Recover() (Tuple, bool, error) {
	resp, err := c.roundTrip(&request{Op: opRecover})
	if err != nil {
		return nil, false, err
	}
	return Tuple(resp.Tuple), resp.OK, nil
}

// Begin opens a remote transaction: takes performed through it are
// tentative server-side until Commit. A connection drop or lease
// expiry aborts it automatically. Begin writes its frame and returns:
// the client picked the id, so the answer carries nothing but an error,
// which the transaction's first operation collects (clientTxn.roundTrip).
func (c *Client) Begin() (Txn, error) {
	req := &request{Op: opTxBegin, Txn: c.txnSeq.Add(1)}
	if sc := c.parentSC(context.Background()); sc.Valid() {
		req.Trace, req.Span = uint64(sc.Trace), uint64(sc.Span)
	}
	begun, err := c.send(req)
	if err != nil {
		return nil, err
	}
	return &clientTxn{c: c, id: req.Txn, begun: begun}, nil
}

// clientTxn is a remote transaction handle. The client sends only the
// transaction ID with each operation; the tentative state lives on the
// server, which is what makes a client crash recoverable.
type clientTxn struct {
	c     *Client
	id    uint64
	begun chan *response // the begin's answer: one value, or closed with the connection
}

// roundTrip runs one operation of the transaction and collects the
// begin's answer behind it. The server handles a begin inline, in
// arrival order, so once the operation has an answer the begin's is
// already here and the receive cannot block; it finds nothing when an
// earlier operation collected it, or when this one never reached the
// wire (a done ctx) and the next one will. A failed begin is why the
// operation failed, so its error wins. Nothing is written here: an
// Abort racing a blocked In is safe.
func (tx *clientTxn) roundTrip(ctx context.Context, req *request) (*response, error) {
	req.Txn = tx.id
	resp, err := tx.c.roundTripCtx(ctx, req)
	select {
	case b, ok := <-tx.begun:
		if !ok {
			return nil, ErrClientClosed
		}
		if berr := wireError(b); berr != nil {
			return nil, berr
		}
	default:
	}
	return resp, err
}

func (tx *clientTxn) In(ctx context.Context, tmplFields ...any) (Tuple, error) {
	t, _, err := tx.InTraced(ctx, tmplFields...)
	return t, err
}

// InTraced is the transactional take with origin propagation.
func (tx *clientTxn) InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error) {
	return takeOrigin(tx.roundTrip(ctx, &request{Op: opIn, Fields: tmplFields}))
}

func (tx *clientTxn) Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	resp, err := tx.roundTrip(ctx, &request{Op: opInp, Fields: tmplFields})
	if err != nil {
		return nil, false, err
	}
	return Tuple(resp.Tuple), resp.OK, nil
}

// Commit finalizes the takes and publishes outs in one round trip,
// carrying the ctx's span context so the server-side commit span and
// the outs' trace stamps join the transaction's trace.
func (tx *clientTxn) Commit(ctx context.Context, outs []Tuple) error {
	return tx.commit(ctx, outs, nil, false)
}

// CommitCont is Commit plus a continuation tuple recorded under the
// session name, mirroring Proc.Xcommit's continuation argument.
func (tx *clientTxn) CommitCont(ctx context.Context, outs []Tuple, cont Tuple) error {
	return tx.commit(ctx, outs, cont, true)
}

func (tx *clientTxn) commit(ctx context.Context, outs []Tuple, cont Tuple, hasCont bool) error {
	req := &request{Op: opTxCommit, Batch: outs, HasCont: hasCont}
	if hasCont {
		req.Cont = cont
	}
	_, err := tx.roundTrip(ctx, req)
	return err
}

func (tx *clientTxn) Abort() error {
	_, err := tx.roundTrip(context.Background(), &request{Op: opTxAbort})
	return err
}

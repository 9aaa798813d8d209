// Package plinda implements Persistent Linda (PLinda), the robust
// distributed parallel computing runtime that "Free Parallel Data
// Mining" (Li, NYU 1998) uses as its software architecture. PLinda
// extends Linda with three mechanisms (chapter 2.4.6 and chapter 7):
//
//   - Lightweight transactions: each process executes as a series of
//     transactions (Xstart ... Xcommit). If a process fails mid
//     transaction, the runtime detects the failure, aborts the
//     transaction (undoing its tuple-space effects), and re-runs the
//     process elsewhere.
//   - Continuation committing: Xcommit takes the process's live local
//     variables as a continuation tuple; after a failure the re-spawned
//     incarnation retrieves it with Xrecover and resumes from the last
//     committed transaction.
//   - Checkpoint-protected tuple space: the server can snapshot the
//     whole tuple space plus continuations and roll back to the latest
//     checkpoint after a server failure. A checkpoint is two batches
//     in the tuple encoding of the wire and the durable WAL: the stored
//     tuples, then one (process name, continuation...) tuple per
//     process with a continuation.
//
// Workstations are modeled as process incarnations: Kill simulates an
// owner returning to (or a crash of) the machine a process runs on, at
// which point the PLinda daemon destroys the client process and the
// server re-spawns it, exactly as described in section 7.1.1.
//
// The runtime executes against any tuplespace.TxnStore: a local
// *tuplespace.Space, a write-ahead-logged durable.Space, or — in
// remote mode — a fresh *tuplespace.Client session per incarnation,
// whose lease makes the wire server abort the incarnation's open
// transaction when the process dies.
package plinda

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// Errors reported by the runtime.
var (
	ErrKilled      = errors.New("plinda: process killed")
	ErrNoProcess   = errors.New("plinda: no such process")
	ErrServerDown  = errors.New("plinda: server closed")
	errNestedTxn   = errors.New("plinda: nested transaction")
	errCommitNoTxn = errors.New("plinda: Xcommit without Xstart")
	errNoServer    = errors.New("plinda: standalone process has no server")
)

// Status enumerates the process states shown by the PLinda "Process
// Watch" window (figure 7.6 of the dissertation).
type Status int

// Process states.
const (
	Dispatched Status = iota
	Running
	Blocked
	Suspended
	FailureHandled
	Done
	Failed
)

var statusNames = [...]string{"DISPATCHED", "RUNNING", "BLOCKED", "SUSPENDED", "FAILURE HANDLED", "DONE", "FAILED"}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ProcFunc is the body of a PLinda process (a master or a worker).
// Returning nil marks the process DONE; returning ErrKilled (or being
// killed while blocked) triggers transactional recovery and re-spawn.
type ProcFunc func(p *Proc) error

// MaxRespawns bounds automatic failure recovery per logical process so
// a deterministic crasher cannot loop forever.
const MaxRespawns = 64

// respawnBackoff spaces retries after a transient store failure
// (connection refused, server restarting) so the MaxRespawns budget
// covers a realistic recovery window instead of burning out in
// microseconds.
const respawnBackoff = 20 * time.Millisecond

// procState is the server-side record for one logical process.
type procState struct {
	name         string
	fn           ProcFunc
	status       Status
	incarnation  int
	traceID      obs.ID // the logical process's trace, drawn once at Spawn; zero when unsampled
	continuation tuplespace.Tuple
	hasCont      bool
	ctx          context.Context
	cancel       context.CancelFunc
	session      io.Closer // per-incarnation remote session, nil otherwise
	done         chan struct{}
	err          error
	gate         *sync.Cond // suspend/resume
	suspended    bool
	stopped      bool              // terminally withdrawn by Stop: no recovery respawn
	exits        chan<- *procState // RunProgram's exit queue; nil when spawned alone
}

// snapshotRestorer is the optional store capability Checkpoint and
// RestoreCheckpoint need; *tuplespace.Space and durable.Space both
// provide it.
type snapshotRestorer interface {
	Snapshot() []tuplespace.Tuple
	Restore([]tuplespace.Tuple) error
}

// storeObserver lets Observe cascade instruments into stores that
// support them.
type storeObserver interface {
	Observe(reg *obs.Registry, tracer *obs.Tracer)
}

// retryableStore marks local-mode stores whose failures are worth a
// respawn: a transient error through a store that talks to the network
// (the cluster router) means a node failed, not the program, so the
// incarnation retries exactly like a dropped remote-mode session.
type retryableStore interface {
	RetryableFailures() bool
}

// Server is the PLinda runtime: a tuple-space backend, process table,
// and checkpointer.
type Server struct {
	mu     sync.Mutex
	store  tuplespace.TxnStore // nil in remote mode
	space  *tuplespace.Space   // underlying space when known, else nil
	dial   func() (tuplespace.TxnStore, error)
	procs  map[string]*procState
	closed bool
	wg     sync.WaitGroup

	// Failure/recovery accounting for tests and experiments.
	kills    int
	respawns int
	commits  int
	aborts   int

	obs atomic.Pointer[serverObs] // nil until Observe
}

// serverObs holds the server's attached instruments; individual
// instrument pointers may be nil (no-op).
type serverObs struct {
	spawns, exits, kills, respawns *obs.Counter
	xstarts, commits, aborts       *obs.Counter
	procs                          *obs.Gauge
	txnDur                         *obs.Histogram
	reg                            *obs.Registry
	tracer                         *obs.Tracer
}

// NewServer starts an empty PLinda server with a private tuple space.
func NewServer() *Server { return NewServerOnStore(tuplespace.New()) }

// NewServerOnStore starts a PLinda server on any transactional store:
// an existing *tuplespace.Space — the chapter 7 deployment shape, where
// local PLinda processes and remote tuplespace clients (via
// tuplespace.Serve on the same space) share it — or a durable.Space,
// giving every process checkpoint-protected, WAL-backed transactions.
func NewServerOnStore(store tuplespace.TxnStore) *Server {
	s := &Server{store: store, procs: make(map[string]*procState)}
	switch st := store.(type) {
	case *tuplespace.Space:
		s.space = st
	case interface{ Underlying() *tuplespace.Space }:
		s.space = st.Underlying()
	}
	return s
}

// NewServerRemote starts a PLinda runtime whose processes each run
// against their own remote session: dial is invoked once per
// incarnation (typically tuplespace.DialOpts with a lease), and the
// session is closed when the incarnation ends. A killed incarnation's
// session drop makes the remote server auto-abort its open
// transaction, which is exactly the PLinda daemon's cleanup of a
// crashed workstation. Transient session failures (connection refused
// while the remote server restarts, lease expiry, dropped connection)
// are retried as respawns within the MaxRespawns budget.
func NewServerRemote(dial func() (tuplespace.TxnStore, error)) *Server {
	return &Server{dial: dial, procs: make(map[string]*procState)}
}

// Observe attaches a metrics registry and/or tracer to the server and
// its store (either may be nil). Server metrics use the "plinda."
// prefix: transaction and lifecycle counters, a live-process gauge,
// and a transaction-duration histogram. Every trace event is an ended
// span: a process's incarnations ("proc"/"incarnation", one trace per
// logical process, sampled at Spawn), its transactions under them
// ("txn", named commit, continuation-commit or abort), and the root
// spans of Checkpoint and RestoreCheckpoint ("proc"/"checkpoint",
// "proc"/"restore"). A process spawned before Observe is not traced.
func (s *Server) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	if so, ok := s.store.(storeObserver); ok {
		so.Observe(reg, tracer)
	}
	o := &serverObs{
		spawns:   reg.Counter("plinda.spawns"),
		exits:    reg.Counter("plinda.exits"),
		kills:    reg.Counter("plinda.kills"),
		respawns: reg.Counter("plinda.respawns"),
		xstarts:  reg.Counter("plinda.xstarts"),
		commits:  reg.Counter("plinda.commits"),
		aborts:   reg.Counter("plinda.aborts"),
		procs:    reg.Gauge("plinda.live_procs"),
		txnDur:   reg.Histogram("plinda.txn"),
		reg:      reg,
		tracer:   tracer,
	}
	s.mu.Lock()
	live := 0
	for _, ps := range s.procs {
		if ps.status != Done && ps.status != Failed {
			live++
		}
	}
	o.procs.Set(int64(live))
	s.mu.Unlock()
	s.obs.Store(o)
}

// rootSpan starts the root span of a server operation's own trace,
// subject to the sample rate; nil when unobserved or unsampled.
func (o *serverObs) rootSpan(name string) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.StartRoot("proc", name)
}

// Space exposes the underlying tuple space when the server runs on one
// (the server process owns it, mirroring the centralized PLinda
// server). It is nil for remote-mode servers.
func (s *Server) Space() *tuplespace.Space { return s.space }

// Store exposes the transactional store the server runs on; nil in
// remote mode, where each incarnation dials its own session.
func (s *Server) Store() tuplespace.TxnStore { return s.store }

// Spawn registers and starts a logical process under the given unique
// name; this is PLinda's proc_eval. It returns an error if the name is
// taken or the server is closed.
func (s *Server) Spawn(name string, fn ProcFunc) error { return s.spawn(name, fn, nil) }

func (s *Server) spawn(name string, fn ProcFunc, exits chan<- *procState) error {
	// The sampling decision is made once per logical process: every
	// incarnation roots its span in this trace, or none is traced.
	o := s.obs.Load()
	var traceID obs.ID
	if o != nil {
		traceID = o.tracer.NewTrace()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerDown
	}
	if _, ok := s.procs[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("plinda: process %q already exists", name)
	}
	ps := &procState{
		name:    name,
		fn:      fn,
		status:  Dispatched,
		traceID: traceID,
		done:    make(chan struct{}),
		exits:   exits,
	}
	ps.ctx, ps.cancel = context.WithCancel(context.Background())
	ps.gate = sync.NewCond(&s.mu)
	s.procs[name] = ps
	s.wg.Add(1)
	s.mu.Unlock()

	if o != nil {
		o.spawns.Inc()
		o.procs.Add(1)
	}
	obs.Default().Debug("process spawned", "proc", name)
	go s.run(ps)
	return nil
}

// transient reports whether an incarnation error looks like a
// recoverable session/store failure rather than a program bug.
func transient(err error) bool {
	if errors.Is(err, tuplespace.ErrClientClosed) ||
		errors.Is(err, tuplespace.ErrClosed) ||
		errors.Is(err, tuplespace.ErrLeaseExpired) ||
		errors.Is(err, tuplespace.ErrTimeout) ||
		errors.Is(err, tuplespace.ErrTxnFinished) ||
		errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// run executes incarnations of a logical process until it completes,
// fails permanently, or exhausts MaxRespawns.
func (s *Server) run(ps *procState) {
	defer s.wg.Done()
	for {
		// Remote mode: each incarnation gets a fresh session, so a
		// re-spawned process is indistinguishable from a new client and
		// the old incarnation's lease cleans up its transaction.
		var session tuplespace.TxnStore
		var dialErr error
		if s.dial != nil {
			session, dialErr = s.dial()
		}

		o := s.obs.Load()
		s.mu.Lock()
		ps.status = Running
		ctx := ps.ctx
		inc := ps.incarnation
		store := s.store
		if session != nil {
			store = session
			ps.session = session
		}
		s.mu.Unlock()

		// Every incarnation roots a span in the process's trace, so the
		// spans of a crashed incarnation and of its recovery respawn
		// share a single trace. The span carries the (re)spawn, and its
		// end with its err the exit or the kill.
		var rootSp *obs.Span
		var sc obs.SpanContext
		if o != nil {
			rootSp = o.tracer.StartRootTrace(ps.traceID, "proc", "incarnation",
				"proc", ps.name, "incarnation", inc)
			if rootSp != nil {
				sc = rootSp.Context()
				ctx = obs.ContextWith(ctx, sc)
			}
		}
		if session != nil && o != nil {
			// Remote mode: cascade the server's instruments into the
			// per-incarnation session so client-side wire spans and
			// metrics land in the same registry and tracer, and give the
			// session the incarnation span as its ambient trace parent.
			if so, ok := session.(storeObserver); ok {
				so.Observe(o.reg, o.tracer)
			}
			if sess, ok := session.(interface{ SetSpanContext(obs.SpanContext) }); ok && sc.Valid() {
				sess.SetSpanContext(sc)
			}
		}

		var err error
		if dialErr != nil {
			err = dialErr
		} else {
			p := &Proc{srv: s, st: ps, ctx: ctx, store: store, incarnation: inc, sc: sc}
			err = s.runIncarnation(p)
		}
		if rootSp != nil {
			if err != nil {
				rootSp.Annotate("err", err.Error())
			}
			rootSp.End()
		}
		if session != nil {
			session.Close() //nolint:errcheck
			s.mu.Lock()
			ps.session = nil
			s.mu.Unlock()
		}

		s.mu.Lock()
		if err == nil {
			ps.status = Done
			close(ps.done)
			s.mu.Unlock()
			obs.Default().Debug("process exited", "proc", ps.name, "incarnation", ps.incarnation)
			s.recordExit(ps)
			return
		}
		rs, _ := s.store.(retryableStore)
		retryable := errors.Is(err, ErrKilled) ||
			((s.dial != nil || (rs != nil && rs.RetryableFailures())) && transient(err))
		if ps.stopped || !retryable || ps.incarnation+1 > MaxRespawns || s.closed {
			ps.status = Failed
			ps.err = err
			close(ps.done)
			s.mu.Unlock()
			obs.Default().Error("process failed",
				"proc", ps.name, "incarnation", ps.incarnation, "err", err.Error())
			s.recordExit(ps)
			return
		}
		// Failure handling: abort was already performed by the
		// incarnation's runner; arm a fresh context and re-spawn.
		ps.status = FailureHandled
		ps.incarnation++
		newInc := ps.incarnation
		ps.ctx, ps.cancel = context.WithCancel(context.Background())
		s.respawns++
		s.mu.Unlock()
		if o := s.obs.Load(); o != nil {
			o.respawns.Inc()
		}
		obs.Default().Info("process respawned",
			"proc", ps.name, "incarnation", newInc, "cause", err.Error())
		if !errors.Is(err, ErrKilled) {
			// A transient store failure: give the remote side a moment
			// to come back before redialing.
			time.Sleep(respawnBackoff)
		}
	}
}

// recordExit counts the terminal transition of a logical process and
// reports it to the process's program, if RunProgram spawned it.
func (s *Server) recordExit(ps *procState) {
	if o := s.obs.Load(); o != nil {
		o.exits.Inc()
		o.procs.Add(-1)
	}
	if ps.exits != nil {
		ps.exits <- ps
	}
}

// runIncarnation runs one incarnation, converting panics into process
// failures and aborting any open transaction on the way out.
func (s *Server) runIncarnation(p *Proc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic: %v", ErrKilled, r)
		}
		if p.txnOpen {
			p.abort()
		}
	}()
	return p.st.fn(p)
}

// Kill simulates the failure of the workstation running the named
// process (or the owner reclaiming it): the current incarnation is
// destroyed — its context canceled, unblocking any InCtx/RdCtx it sits
// in, and its remote session (if any) closed abruptly so the wire
// server's lease machinery aborts the open transaction — and the
// process re-spawned.
func (s *Server) Kill(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.procs[name]
	if !ok {
		return ErrNoProcess
	}
	if ps.status == Done || ps.status == Failed {
		return nil
	}
	s.kills++
	ps.cancel()
	if ps.session != nil {
		ps.session.Close() //nolint:errcheck — abrupt close is the point
	}
	if ps.suspended {
		ps.suspended = false
		ps.gate.Broadcast()
	}
	if o := s.obs.Load(); o != nil {
		o.kills.Inc()
	}
	obs.Default().Warn("process killed", "proc", name, "incarnation", ps.incarnation)
	return nil
}

// Stop terminally withdraws the named process: the current incarnation
// is destroyed like Kill's, but no recovery respawn follows — the
// process ends FAILED with its incarnation's error. It exists for
// programs whose processes depend on each other for liveness: when a
// master fails permanently, its workers block on a task tuple that will
// never be published, and RunProgram Stops them to surface the failure
// instead of hanging.
func (s *Server) Stop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.procs[name]
	if !ok {
		return ErrNoProcess
	}
	if ps.status == Done || ps.status == Failed {
		return nil
	}
	ps.stopped = true
	ps.cancel()
	if ps.session != nil {
		ps.session.Close() //nolint:errcheck — abrupt close is the point
	}
	if ps.suspended {
		ps.suspended = false
		ps.gate.Broadcast()
	}
	obs.Default().Warn("process stopped", "proc", name, "incarnation", ps.incarnation)
	return nil
}

// Suspend pauses a process at its next tuple-space operation.
func (s *Server) Suspend(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.procs[name]
	if !ok {
		return ErrNoProcess
	}
	ps.suspended = true
	return nil
}

// Resume lets a suspended process continue.
func (s *Server) Resume(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.procs[name]
	if !ok {
		return ErrNoProcess
	}
	ps.suspended = false
	ps.gate.Broadcast()
	return nil
}

// Wait blocks until the named process is DONE or FAILED, returning its
// terminal error (nil for DONE).
func (s *Server) Wait(name string) error {
	s.mu.Lock()
	ps, ok := s.procs[name]
	s.mu.Unlock()
	if !ok {
		return ErrNoProcess
	}
	<-ps.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return ps.err
}

// WaitAll blocks until every spawned process has terminated and
// returns the first failure, if any.
func (s *Server) WaitAll() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.procs))
	for n := range s.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := s.procs[n].err; err != nil {
			return fmt.Errorf("process %s: %w", n, err)
		}
	}
	return nil
}

// RunProgram runs a master/worker program: it spawns workers processes
// <program>-worker-i running worker and one <program>-master running
// master, and returns nil once all of them are DONE. The processes
// depend on each other for liveness — a worker blocks on a task only
// the master publishes, the master on a report only a worker commits —
// so the first permanent failure of any of them Stops the rest, and
// RunProgram returns that process's error.
func (s *Server) RunProgram(program string, workers int, worker, master ProcFunc) error {
	exits := make(chan *procState, workers+1) // one send per process: never blocks
	var names []string
	var err error
	for i := 0; i <= workers && err == nil; i++ {
		name, fn := fmt.Sprintf("%s-worker-%d", program, i), worker
		if i == workers {
			name, fn = program+"-master", master
		}
		if err = s.spawn(name, fn, exits); err == nil {
			names = append(names, name)
		}
	}
	stopAll := func() {
		for _, name := range names {
			s.Stop(name) //nolint:errcheck
		}
	}
	if err != nil {
		stopAll()
	}
	for range names {
		if ps := <-exits; ps.err != nil && err == nil {
			err = fmt.Errorf("process %s: %w", ps.name, ps.err)
			stopAll()
		}
	}
	return err
}

// ProcInfo is one row of the process-watch table.
type ProcInfo struct {
	Name        string
	Status      Status
	Incarnation int
}

// Processes returns a sorted snapshot of the process table.
func (s *Server) Processes() []ProcInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProcInfo, 0, len(s.procs))
	for _, ps := range s.procs {
		out = append(out, ProcInfo{ps.name, ps.status, ps.incarnation})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Kills reports how many failures have been injected; Respawns how
// many recoveries the server performed.
func (s *Server) Kills() int    { s.mu.Lock(); defer s.mu.Unlock(); return s.kills }
func (s *Server) Respawns() int { s.mu.Lock(); defer s.mu.Unlock(); return s.respawns }

// Commits and Aborts count transaction outcomes across all processes.
func (s *Server) Commits() int { s.mu.Lock(); defer s.mu.Unlock(); return s.commits }
func (s *Server) Aborts() int  { s.mu.Lock(); defer s.mu.Unlock(); return s.aborts }

// Close shuts the server down, unblocking every process. The store is
// closed only when the server owns one (local mode); remote sessions
// are per-incarnation and closed by their runners.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, ps := range s.procs {
		ps.cancel()
		if ps.session != nil {
			ps.session.Close() //nolint:errcheck
		}
		if ps.suspended {
			ps.suspended = false
			ps.gate.Broadcast()
		}
	}
	s.mu.Unlock()
	if s.store != nil {
		s.store.Close() //nolint:errcheck
	}
	s.wg.Wait()
}

// Checkpoint writes the current store contents and all committed
// continuations to w, as two wire-codec tuple batches: the stored
// tuples, then one (process name, continuation...) tuple per process
// with a continuation, sorted by name so that the same state always
// writes the same bytes. It pauses no processes; PLinda checkpoints are
// taken between transactions, which is safe because uncommitted
// transaction effects are not in the shared space. The server's store
// must support snapshots (local and durable stores do; remote-mode
// servers have no store to checkpoint).
func (s *Server) Checkpoint(w io.Writer) error {
	sr, ok := s.store.(snapshotRestorer)
	if !ok {
		return fmt.Errorf("plinda: store %T does not support checkpoints", s.store)
	}
	sp := s.obs.Load().rootSpan("checkpoint")
	defer sp.End()
	s.mu.Lock()
	var conts []tuplespace.Tuple
	for n, ps := range s.procs {
		if ps.hasCont {
			conts = append(conts, append(tuplespace.Tuple{n}, ps.continuation...))
		}
	}
	s.mu.Unlock()
	sort.Slice(conts, func(i, j int) bool { return conts[i][0].(string) < conts[j][0].(string) })
	tuples := sr.Snapshot()
	b, err := tuplespace.AppendWireTuples(nil, tuples)
	if err == nil {
		b, err = tuplespace.AppendWireTuples(b, conts)
	}
	if err != nil {
		return fmt.Errorf("plinda: checkpoint: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	sp.Annotate("tuples", len(tuples))
	sp.Annotate("continuations", len(conts))
	return nil
}

// RestoreCheckpoint performs rollback recovery: the store and the
// continuations are replaced by the checkpointed state, and a process
// the checkpoint holds no continuation for loses its own. The whole
// checkpoint is decoded before anything changes, so a malformed one
// fails with the server untouched.
func (s *Server) RestoreCheckpoint(r io.Reader) error {
	sr, ok := s.store.(snapshotRestorer)
	if !ok {
		return fmt.Errorf("plinda: store %T does not support checkpoints", s.store)
	}
	sp := s.obs.Load().rootSpan("restore")
	defer sp.End()
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	tuples, rest, err := tuplespace.DecodeWireTuples(b)
	if err != nil {
		return fmt.Errorf("plinda: checkpoint tuples: %w", err)
	}
	conts, rest, err := tuplespace.DecodeWireTuples(rest)
	if err != nil {
		return fmt.Errorf("plinda: checkpoint continuations: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("plinda: %d trailing bytes after the checkpoint", len(rest))
	}
	byName := make(map[string]tuplespace.Tuple, len(conts))
	for _, c := range conts {
		var name any
		if len(c) > 0 {
			name = c[0]
		}
		n, ok := name.(string)
		if !ok {
			return fmt.Errorf("plinda: checkpoint continuation %v has no process name", c)
		}
		byName[n] = c[1:]
	}
	if err := sr.Restore(tuples); err != nil {
		return err
	}
	s.mu.Lock()
	for n, ps := range s.procs {
		ps.continuation, ps.hasCont = byName[n]
	}
	s.mu.Unlock()
	sp.Annotate("tuples", len(tuples))
	sp.Annotate("continuations", len(conts))
	return nil
}

// Package durable adds crash recovery to a tuple space: a write-ahead
// log of committed operations with periodic compaction, the
// checkpoint-protected space of Li's chapter 5 rebuilt on package
// tuplespace's Snapshot/Restore.
//
// Every WAL record is a transaction commit: its takes and outs as one
// record, appended to an append-only log before it is applied, so
// after a crash Open replays the log and recovers exactly the
// committed state. Out, OutN, In and Inp each run as a transaction of
// that one operation. Tentative takes of open transactions are
// deliberately NOT logged: a crash aborts them by omission, and the
// taken tuples are simply present again in the recovered space — the
// recovery half of the transaction contract.
//
// Records are encoded with the tuplespace binary wire codec (the same
// encoding tuples take over TCP) and framed as uvarint body length +
// CRC32-C checksum + body; the checksum makes a torn or corrupt tail
// record detectable without trusting the decoder.
//
// Appends are group-committed: a commit encodes and enqueues its
// record under the apply lock (so log order is apply order), then
// waits for the record to reach the file. The first waiter becomes the
// leader and writes every queued record in one syscall; the others
// follow for free — N concurrent writers pay one write, the
// group-commit protocol of conventional database logs. Compaction and
// Close drain the queue with the same batch writer.
//
// One file per generation, wal-<g>.log. For g > 0 its first record is
// the snapshot: its outs are the whole logical state at compaction.
// Compaction writes that record alone to wal-<g+1>.log.tmp, fsyncs it,
// renames it into place and fsyncs the directory — the single commit
// point, so a crash mid-compaction is harmless — keeps appending to
// it, and deletes wal-<g>.log. A torn final record — a crash
// mid-append — is detected and truncated on replay; a damaged snapshot
// record is not a torn tail, and Open fails on it.
//
// Durability levels: by default each record is written to the OS
// before the operation returns, so the state survives process crashes
// (the kill -9 scenario the fault-injection tests exercise) but the
// last records may be lost to a machine crash; Options.Fsync adds an
// fsync to every batch write, group commit and drain alike, surviving
// power loss at the cost of one disk flush per batch. fsync always
// happens on compaction and Close. Replay is idempotent at the
// semantic level: commit records remove their takes by exact match,
// which is a no-op when the tuple is already absent.
package durable

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"freepdm/internal/faultnet"
	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// maxBatch is the group-commit batch cap: the most records a single
// leader write may cover. Bounding the batch bounds the latency a
// record can inherit from the queue ahead of it.
const maxBatch = 256

// Options configures a durable space.
type Options struct {
	// Fsync upgrades every group commit to an fsync before the
	// batched operations return, surviving machine crashes rather
	// than only process crashes.
	Fsync bool
}

// record is one WAL entry: the takes and outs of a committed
// operation, applied atomically on replay (takes first, then outs).
type record struct {
	Takes []tuplespace.Tuple
	Outs  []tuplespace.Tuple
}

// castagnoli is the CRC32-C table; the polynomial with hardware
// support on current CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Space is a write-ahead-logged tuple space. It implements
// tuplespace.TxnStore (and the wire server's backend interface), so
// PLinda programs and remote clients run against it unchanged.
//
// Two locks split the pipeline: mu serializes record encoding and
// enqueueing with physical application and with compaction, so the log
// order is the apply order and a snapshot is always consistent with
// its log position; gmu guards the pending-record queue and the
// leader/follower group-commit protocol, so the file write itself
// happens outside mu and concurrent operations coalesce their
// records into one syscall. Lock order is mu then gmu, never the
// reverse.
type Space struct {
	dir string

	mu           sync.Mutex
	s            *tuplespace.Space
	gen          uint64
	f            *os.File
	recs         int
	compactEvery int // records that trigger a compaction: 1024; tests lower it
	txns         map[*txn]struct{}
	closed       bool
	enc          []byte // record-body encode scratch, guarded by mu

	fsync bool

	gmu       sync.Mutex
	gcond     *sync.Cond
	pend      []byte // encoded frames awaiting write, in log order
	ends      []int  // end offset of each pending frame within pend
	seq       uint64 // records ever enqueued
	flushed   uint64 // records whose frames reached the file
	flushing  bool   // a leader is writing
	werr      error  // sticky: first write/fsync error; fail-stops the WAL
	slowWrite func() // test hook: runs in the leader, outside gmu, before the write

	replayed int // records replayed by Open, for tests and doctors

	appends     *obs.Counter
	walBytes    *obs.Counter
	walWrites   *obs.Counter
	compactions *obs.Counter
	batchH      *obs.Histogram
	fsyncH      *obs.Histogram
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

// walGen parses a wal-<g>.log file name, rejecting any other spelling
// of the same number and any suffix (a compaction's .tmp file).
func walGen(name string) (uint64, bool) {
	var g uint64
	_, err := fmt.Sscanf(name, "wal-%d.log", &g)
	return g, err == nil && name == fmt.Sprintf("wal-%d.log", g)
}

// Open recovers (or creates) a durable space in dir, replaying the
// newest WAL generation into s. A nil s creates a fresh space. Once
// recovery succeeds, older generations and leftover temporary files
// are removed; a damaged snapshot record fails Open before any file
// changes.
func Open(dir string, s *tuplespace.Space, opts Options) (*Space, error) {
	if s == nil {
		s = tuplespace.New()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Space{
		dir:          dir,
		s:            s,
		compactEvery: 1024,
		fsync:        opts.Fsync,
		txns:         make(map[*txn]struct{}),
	}
	d.gcond = sync.NewCond(&d.gmu)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wals []uint64
	var tmps []string
	for _, e := range entries {
		name := e.Name()
		if g, ok := walGen(name); ok {
			wals = append(wals, g)
			d.gen = max(d.gen, g)
		} else if filepath.Ext(name) == ".tmp" {
			tmps = append(tmps, name) // torn compaction leftover
		} else if strings.HasPrefix(name, "snap-") && filepath.Ext(name) == ".gob" {
			// A snapshot in a layout this package no longer reads:
			// replaying its WAL without it would silently lose state.
			return nil, fmt.Errorf("durable: %s is a snapshot file in a retired format", filepath.Join(dir, name))
		}
	}

	if err := d.recover(); err != nil {
		return nil, err
	}

	for _, name := range tmps {
		os.Remove(filepath.Join(dir, name)) //nolint:errcheck
	}
	// A generation older than the recovered one is left over from a
	// compaction that crashed between its rename and its delete.
	for _, g := range wals {
		if g != d.gen {
			os.Remove(walPath(dir, g)) //nolint:errcheck
		}
	}
	return d, nil
}

// recover replays wal-<d.gen>.log — for a generation > 0 its first
// record is the snapshot, which must be intact — truncates a torn tail
// record and leaves the file open for append. The snapshot record
// counts neither as replayed nor against the compaction budget.
func (d *Space) recover() error {
	wp := walPath(d.dir, d.gen)
	data, err := os.ReadFile(wp)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	good := 0 // offset of the last intact record boundary
	if d.gen > 0 {
		rec, n := readRecord(data)
		if n == 0 {
			return fmt.Errorf("durable: snapshot record of %s is damaged", wp)
		}
		if err := d.apply(rec); err != nil {
			return err
		}
		good = n
	}
	for good < len(data) {
		rec, n := readRecord(data[good:])
		if n == 0 {
			break // torn tail: everything past `good` is discarded
		}
		if err := d.apply(rec); err != nil {
			return err
		}
		good += n
		d.recs++
		d.replayed++
	}
	if good < len(data) {
		obs.Default().Warn("wal torn tail truncated",
			"dir", d.dir, "generation", d.gen, "discarded_bytes", len(data)-good)
	}
	if good > 0 {
		obs.Default().Info("wal recovered",
			"dir", d.dir, "generation", d.gen, "replayed", d.replayed)
	}

	f, err := os.OpenFile(wp, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	d.f = f
	return nil
}

// appendBody encodes a record body — the wire-codec takes batch, then
// the outs batch — onto b.
func appendBody(b []byte, rec record) ([]byte, error) {
	b, err := tuplespace.AppendWireTuples(b, rec.Takes)
	if err != nil {
		return nil, err
	}
	return tuplespace.AppendWireTuples(b, rec.Outs)
}

// appendFrame frames a record body onto b: uvarint body length,
// CRC32-C of the body (little-endian), body. readRecord is its inverse.
func appendFrame(b, body []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// readRecord decodes one framed record from the head of data,
// returning the bytes consumed; 0 means the data ends in a torn or
// corrupt record. The frame is appendFrame's.
func readRecord(data []byte) (record, int) {
	size, n := binary.Uvarint(data)
	if n <= 0 || len(data)-n < 4 || uint64(len(data)-n-4) < size {
		return record{}, 0
	}
	sum := binary.LittleEndian.Uint32(data[n:])
	body := data[n+4 : n+4+int(size)]
	if crc32.Checksum(body, castagnoli) != sum {
		return record{}, 0
	}
	takes, rest, err := tuplespace.DecodeWireTuples(body)
	if err != nil {
		return record{}, 0
	}
	outs, rest, err := tuplespace.DecodeWireTuples(rest)
	if err != nil || len(rest) != 0 {
		return record{}, 0
	}
	return record{Takes: takes, Outs: outs}, n + 4 + int(size)
}

// apply replays one record against the space: exact-match removal of
// each take (a no-op if absent — idempotence), then the outs.
func (d *Space) apply(rec record) error {
	ctx := context.Background()
	for _, t := range rec.Takes {
		if _, _, err := d.s.Inp(ctx, t...); err != nil {
			return err
		}
	}
	for _, t := range rec.Outs {
		if err := d.s.Out(ctx, t...); err != nil {
			return err
		}
	}
	return nil
}

// enqueue encodes one record and places its frame on the group-commit
// queue, returning the record's sequence number for flushLocked. Caller
// holds d.mu, which is what makes the queue order the apply order. An
// encoding error (a tuple carrying a non-wire-encodable field type)
// leaves the queue untouched, so the caller can refuse the operation
// before applying it.
//
// When ctx carries a span context and a tracer is attached, the
// enqueue is recorded as a "wal"/"append" child span, so a distributed
// trace shows the durability cost of each committed operation.
func (d *Space) enqueue(ctx context.Context, rec record) (uint64, error) {
	if tr := d.s.Tracer(); tr != nil {
		if sp := tr.StartChild(obs.FromContext(ctx), "wal", "append"); sp != nil {
			defer func() {
				sp.Annotate("takes", len(rec.Takes))
				sp.Annotate("outs", len(rec.Outs))
				sp.End()
			}()
		}
	}
	body, err := appendBody(d.enc[:0], rec)
	if err != nil {
		return 0, err
	}
	d.enc = body[:0] // keep the grown scratch

	d.gmu.Lock()
	if d.werr != nil {
		// The WAL is fail-stopped; refuse before applying.
		err := d.werr
		d.gmu.Unlock()
		return 0, err
	}
	frameStart := len(d.pend)
	d.pend = appendFrame(d.pend, body)
	frameLen := len(d.pend) - frameStart
	d.ends = append(d.ends, len(d.pend))
	d.seq++
	seq := d.seq
	d.gmu.Unlock()

	d.recs++
	d.appends.Inc()
	d.walBytes.Add(int64(frameLen))
	return seq, nil
}

// flushLocked blocks until record seq has reached the file (and disk,
// in fsync mode). The first waiter whose record is unwritten becomes
// the leader and runs writeBatch while followers wait on the
// condition; a finished leader hands off, so a queue longer than the
// batch cap drains in successive batches. Caller holds gmu.
func (d *Space) flushLocked(seq uint64) error {
	for d.flushed < seq {
		if d.werr != nil {
			return d.werr
		}
		if d.flushing {
			d.gcond.Wait()
			continue
		}
		d.writeBatch()
	}
	return nil
}

// writeBatch is the WAL's one batch writer: it cuts up to maxBatch
// pending frames and writes them in one syscall (plus an fsync, in
// fsync mode) outside gmu. Caller holds gmu, and no other leader is
// writing. Enqueuers meanwhile append past the cut; append may move
// d.pend to a new array, but the cut slice still aliases the old one,
// which no one else writes.
func (d *Space) writeBatch() {
	d.flushing = true
	n := min(len(d.ends), maxBatch)
	cut := d.ends[n-1]
	buf := d.pend[:cut]
	fsyncH := d.fsyncH // Observe swaps the instruments under gmu
	d.gmu.Unlock()

	if d.slowWrite != nil {
		d.slowWrite()
	}
	// Crash-timing fault points, hit outside gmu like the write
	// itself. before-write failing means the batch never reached the
	// file (callers must see the error AND the records must be gone
	// after reopen); after-write failing only on success means the
	// batch IS on disk but callers see an error — the lost-ack
	// ambiguity that turns into duplicated, never lost, work.
	werr := faultnet.Hit("durable.wal.before-write", d.dir, n)
	if werr == nil {
		_, werr = d.f.Write(buf)
	}
	if werr == nil && d.fsync {
		start := time.Now()
		werr = d.f.Sync()
		fsyncH.Observe(time.Since(start))
	}
	if werr == nil {
		werr = faultnet.Hit("durable.wal.after-write", d.dir, n)
	}

	d.gmu.Lock()
	rest := copy(d.pend, d.pend[cut:])
	d.pend = d.pend[:rest]
	d.ends = d.ends[:copy(d.ends, d.ends[n:])]
	for i := range d.ends {
		d.ends[i] -= cut
	}
	if werr != nil {
		// The batch never reached the file (or disk): leave flushed
		// where it is so every waiter in the batch — leader included
		// — observes werr instead of a false success.
		if d.werr == nil {
			d.werr = werr
		}
	} else {
		d.flushed += uint64(n)
	}
	d.flushing = false
	d.walWrites.Inc()
	// The batch-size histogram abuses duration buckets as record
	// counts; its bounds are the unitless powers of two set up in
	// Observe.
	d.batchH.Observe(time.Duration(n))
	d.gcond.Broadcast()
}

// maybeCompactLocked runs automatic compaction when the record budget
// is spent. Caller holds d.mu; called after the triggering operation
// has been applied, so the snapshot always contains it.
func (d *Space) maybeCompactLocked() error {
	if d.recs >= d.compactEvery {
		return d.compactLocked()
	}
	return nil
}

// compactLocked snapshots the logical state into the first record of
// the next generation's WAL. Caller holds d.mu, which stops new records
// from being enqueued; gmu is held across the file swap so no
// group-commit leader can write to the old file mid-roll.
func (d *Space) compactLocked() error {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	if err := d.flushLocked(d.seq); err != nil {
		return err
	}

	tuples := d.stateLocked()
	body, err := appendBody(nil, record{Outs: tuples})
	if err != nil {
		return err
	}
	next := d.gen + 1
	wp := walPath(d.dir, next)
	f, err := os.Create(wp + ".tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(appendFrame(nil, body))
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(wp+".tmp", wp)
	}
	if err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	// A rename reaches the disk only with its directory (fsync(2)).
	if err := syncDir(d.dir); err != nil {
		// The new generation may already win a reopen, so appending
		// to the old one would lose records: fail-stop instead.
		f.Close() //nolint:errcheck
		d.werr = err
		return err
	}

	d.f.Close()                      //nolint:errcheck — already drained; the snapshot supersedes it
	os.Remove(walPath(d.dir, d.gen)) //nolint:errcheck
	d.f = f
	d.recs = 0
	d.gen = next
	d.compactions.Inc()
	obs.Default().Info("wal compacted",
		"dir", d.dir, "generation", next, "tuples", len(tuples))
	return nil
}

// syncDir fsyncs a directory, making the renames in it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stateLocked returns the logical state: the stored tuples plus the
// tentative takes of open transactions, which are committed to nothing
// yet and therefore still logically present. Caller holds d.mu.
func (d *Space) stateLocked() []tuplespace.Tuple {
	tuples := d.s.Snapshot()
	for tx := range d.txns {
		tuples = append(tuples, tx.takes...)
	}
	return tuples
}

// Out stores one tuple as a transaction of that one operation. The WAL
// append becomes a child span of the ctx's span context, and the stored
// tuple is stamped with it as its origin.
func (d *Space) Out(ctx context.Context, fields ...any) error {
	return d.OutN(ctx, []tuplespace.Tuple{fields})
}

// OutN stores the batch as one transaction, logged as one record, with
// the span and origin-stamping semantics of Out.
func (d *Space) OutN(ctx context.Context, tuples []tuplespace.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	tx, err := d.begin()
	if err != nil {
		return err
	}
	return tx.commitOrAbort(ctx, tuples, nil)
}

// In is a committed take: a transaction of one take, logged the
// instant it commits.
func (d *Space) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := d.InTraced(ctx, tmplFields...)
	return t, err
}

// InTraced is the committed take additionally returning the tuple's
// origin span context.
func (d *Space) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	tx, err := d.begin()
	if err != nil {
		return nil, obs.SpanContext{}, err
	}
	t, org, err := tx.InTraced(ctx, tmplFields...)
	if err := tx.commitOrAbort(ctx, nil, err); err != nil {
		return nil, obs.SpanContext{}, err
	}
	return t, org, nil
}

// Inp is the non-blocking committed take.
func (d *Space) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	tx, err := d.begin()
	if err != nil {
		return nil, false, err
	}
	t, ok, err := tx.Inp(ctx, tmplFields...)
	if err == nil && !ok {
		tx.Abort() //nolint:errcheck — nothing was taken
		return nil, false, nil
	}
	if err := tx.commitOrAbort(ctx, nil, err); err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Rd, Rdp and Len are non-destructive and delegate directly.
func (d *Space) Rd(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	return d.s.Rd(ctx, tmplFields...)
}

func (d *Space) Rdp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	return d.s.Rdp(ctx, tmplFields...)
}

func (d *Space) Len() (int, error) { return d.s.Len() }

// Close drains and syncs the WAL, then closes the underlying space,
// releasing every blocked operation with ErrClosed. Open transactions
// are implicitly aborted by omission: their takes were never logged,
// so recovery restores the tuples.
func (d *Space) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.gmu.Lock()
	err := d.flushLocked(d.seq)
	d.gmu.Unlock()
	if serr := d.f.Sync(); err == nil {
		err = serr
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.mu.Unlock()
	d.s.Close() //nolint:errcheck — always nil
	return err
}

// Underlying exposes the in-memory space, for checkpointing and
// observation. Mutating it directly bypasses the WAL; read-only use
// (Snapshot, Len) is safe.
func (d *Space) Underlying() *tuplespace.Space { return d.s }

// Snapshot returns the logical state: stored tuples plus the tentative
// takes of open transactions (logically still present — a checkpoint
// taken now and restored later must treat unfinished transactions as
// aborted).
func (d *Space) Snapshot() []tuplespace.Tuple {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateLocked()
}

// Restore replaces the space contents and immediately compacts, so the
// restored state is the new durable baseline.
func (d *Space) Restore(tuples []tuplespace.Tuple) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return tuplespace.ErrClosed
	}
	if err := d.s.Restore(tuples); err != nil {
		return err
	}
	return d.compactLocked()
}

// Replayed reports how many WAL records Open replayed, for recovery
// tests and operational sanity checks.
func (d *Space) Replayed() int { return d.replayed }

// Observe attaches instruments to the underlying space and registers
// the WAL's own instruments: counters "wal.appends" (records),
// "wal.bytes", "wal.writes" (group-commit syscalls; appends/writes is
// the coalescing ratio), "wal.compactions"; histogram
// "wal.batch_records" (records per group-commit write, power-of-two
// buckets — the bucket unit is a record count, not a duration); and,
// in fsync mode, histogram "wal.fsync" (fsync latency, with quantiles
// in /debug/metrics like every histogram).
func (d *Space) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	d.s.Observe(reg, tracer)
	batchBounds := make([]time.Duration, 0, 9)
	for b := 1; b <= 256; b *= 2 {
		batchBounds = append(batchBounds, time.Duration(b))
	}
	// The enqueue path reads appends, walBytes and compactions under mu;
	// the batch writer reads walWrites, batchH and fsyncH under gmu.
	d.mu.Lock()
	d.appends = reg.Counter("wal.appends")
	d.walBytes = reg.Counter("wal.bytes")
	d.compactions = reg.Counter("wal.compactions")
	d.gmu.Lock()
	d.walWrites = reg.Counter("wal.writes")
	d.batchH = reg.Histogram("wal.batch_records", batchBounds...)
	d.fsyncH = reg.Histogram("wal.fsync")
	d.gmu.Unlock()
	d.mu.Unlock()
}

// Registry exposes the attached registry for the wire server.
func (d *Space) Registry() *obs.Registry { return d.s.Registry() }

// Tracer exposes the attached tracer for the wire server.
func (d *Space) Tracer() *obs.Tracer { return d.s.Tracer() }

// Begin opens a transaction whose takes stay tentative — physically
// removed, recorded nowhere — until Commit logs takes and outs as one
// atomic record. A crash or Abort before Commit leaves no trace in the
// log, so recovery restores the takes by construction.
func (d *Space) Begin() (tuplespace.Txn, error) {
	tx, err := d.begin()
	if err != nil {
		return nil, err // not a nil *txn inside a non-nil Txn
	}
	return tx, nil
}

func (d *Space) begin() (*txn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, tuplespace.ErrClosed
	}
	tx := &txn{d: d}
	d.txns[tx] = struct{}{}
	return tx, nil
}

// txn is a transaction on a durable space. Its fields are guarded by
// d.mu, which also serializes it against compaction (tentative takes
// are folded into snapshots) and against the session-expiry abort the
// wire server may issue from another goroutine.
type txn struct {
	d     *Space
	takes []tuplespace.Tuple
	done  bool
}

func (tx *txn) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	t, _, err := tx.InTraced(ctx, tmplFields...)
	return t, err
}

// InTraced is the tentative transactional take with the tuple's origin
// passed through.
func (tx *txn) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	d := tx.d
	sp := d.s.Tracer().StartChild(obs.FromContext(ctx), "tuple", "in")
	blocked := false
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			sp.End()
			return nil, obs.SpanContext{}, tuplespace.ErrClosed
		}
		if tx.done {
			d.mu.Unlock()
			sp.End()
			return nil, obs.SpanContext{}, errFinished
		}
		t, org, ok, err := d.s.InpTraced(ctx, tmplFields...)
		if err != nil {
			d.mu.Unlock()
			sp.End()
			return nil, obs.SpanContext{}, err
		}
		if ok {
			tx.takes = append(tx.takes, t)
			d.mu.Unlock()
			if sp != nil {
				sp.Annotate("blocked", blocked)
				sp.End()
			}
			return t, org, nil
		}
		d.mu.Unlock()
		blocked = true
		if _, err := d.s.Rd(ctx, tmplFields...); err != nil {
			sp.End()
			return nil, obs.SpanContext{}, err
		}
	}
}

func (tx *txn) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	d := tx.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, tuplespace.ErrClosed
	}
	if tx.done {
		return nil, false, errFinished
	}
	t, ok, err := d.s.Inp(ctx, tmplFields...)
	if err != nil || !ok {
		return nil, false, err
	}
	tx.takes = append(tx.takes, t)
	return t, true, nil
}

// Commit logs the atomic commit record, applies it and waits for the
// group commit that writes it — its WAL append is traced under the
// ctx's span context, and the published outs carry it as their origin.
func (tx *txn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	d := tx.d
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return tuplespace.ErrClosed
	}
	if tx.done {
		d.mu.Unlock()
		return errFinished
	}
	seq, err := d.enqueue(ctx, record{Takes: tx.takes, Outs: outs})
	if err != nil {
		// Nothing was logged or applied: the transaction stays open,
		// for Abort to restore its takes.
		d.mu.Unlock()
		return err
	}
	tx.done = true
	delete(d.txns, tx)
	tx.takes = nil
	if err := d.s.OutN(ctx, outs); err != nil {
		d.mu.Unlock()
		return err
	}
	cerr := d.maybeCompactLocked()
	d.mu.Unlock()
	if cerr != nil {
		return cerr
	}
	d.gmu.Lock()
	defer d.gmu.Unlock()
	return d.flushLocked(seq)
}

// commitOrAbort ends a transaction of one operation: it commits outs
// if the operation succeeded (err is nil) and aborts otherwise. A
// commit that fails before logging aborts too, so an unlogged take is
// restored; after a logged record the Abort is a no-op.
func (tx *txn) commitOrAbort(ctx context.Context, outs []tuplespace.Tuple, err error) error {
	if err == nil {
		err = tx.Commit(ctx, outs)
	}
	if err != nil {
		tx.Abort() //nolint:errcheck — restores an unlogged take
	}
	return err
}

func (tx *txn) Abort() error {
	d := tx.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if tx.done {
		return nil
	}
	tx.done = true
	delete(d.txns, tx)
	takes := tx.takes
	tx.takes = nil
	if d.closed {
		// The WAL never saw these takes; recovery restores them.
		return nil
	}
	// Physical restore only — the log still holds the records that
	// produced these tuples, and no take record, so replay agrees.
	return d.s.OutN(context.Background(), takes)
}

var errFinished = tuplespace.ErrTxnFinished

// Interface conformance, checked at compile time.
var (
	_ tuplespace.TxnStore = (*Space)(nil)
	_ tuplespace.Txn      = (*txn)(nil)
)

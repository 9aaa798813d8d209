// Package tuplespace implements a Linda tuple space: an associative,
// generative shared memory addressed by field matching rather than by
// location. It is the coordination substrate underneath the Persistent
// Linda runtime (package plinda) used by every parallel data mining
// program in this repository, following Carriero and Gelernter's Linda
// model as described in chapter 2 of Li's "Free Parallel Data Mining".
//
// A tuple is an ordered sequence of typed values. A template is a tuple
// in which some fields are formals (typed wildcards, built with Formal
// or the typed helpers such as FormalInt). The blocking operations In
// and Rd wait until a matching tuple appears; the predicate forms Inp
// and Rdp return immediately.
//
// Internally the space is partitioned twice. Tuples are grouped into
// partitions by signature (arity, field types, and the value of a
// leading string tag), and partitions are distributed over lock-striped
// shards by SignatureHash, the one signature hash of every process and
// of the cluster router, so operations on different signatures never
// contend on a lock unless their hashes share a stripe. Each shard
// keeps its own tuple lists and its own waiter list; an Out only wakes
// waiters registered for its signature.
// Every template therefore names its one partition, and so its one
// shard: a template whose first field is a formal string would match
// any tagged partition of its arity, and every operation rejects it
// with ErrCrossTemplate before it blocks or takes anything. Templates
// are compiled once per operation into a matcher with fast-path
// equality for the scalar, string and []byte field types the miners
// use, falling back to reflection only for other types.
package tuplespace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
)

// ErrClosed is returned by blocking operations when the space is closed
// while they wait, and by all operations on an already closed space.
var ErrClosed = errors.New("tuplespace: space closed")

// ErrCrossTemplate rejects a template whose first field is a formal
// string: it names no tag, so no partition, shard or cluster node is
// its home. Every Store returns it before blocking or taking anything,
// and the identity survives the wire.
var ErrCrossTemplate = errors.New("tuplespace: template leads with a formal string; lead with a constant tag")

// ErrFormalOut rejects a tuple with a formal field: a stored formal
// would match no template. Every Store returns it before anything is
// stored, logged or sent, and the wire codec refuses a formal in an
// out, outn or commit batch.
var ErrFormalOut = errors.New("tuplespace: a formal cannot be stored; formals belong in templates")

// Tuple is an ordered sequence of typed values stored in a space.
type Tuple []any

// String renders the tuple in Linda's conventional parenthesized form.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, f := range t {
		switch v := f.(type) {
		case string:
			parts[i] = fmt.Sprintf("%q", v)
		default:
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// formal is a typed wildcard field in a template.
type formal struct{ t reflect.Type }

// CopyTuple copies fields into a fresh tuple the caller may keep,
// refusing a formal field with ErrFormalOut.
func CopyTuple(fields []any) (Tuple, error) {
	t := make(Tuple, len(fields))
	for i, f := range fields {
		if _, ok := f.(formal); ok {
			return nil, ErrFormalOut
		}
		t[i] = f
	}
	return t, nil
}

func (f formal) String() string { return "?" + f.t.String() }

// Formal returns a template field that matches any tuple field whose
// dynamic type equals the dynamic type of sample. The value of sample
// itself is ignored.
func Formal(sample any) any { return formal{reflect.TypeOf(sample)} }

// Typed formal helpers for the field types used throughout the miners.
var (
	FormalInt     = Formal(int(0))
	FormalInt64   = Formal(int64(0))
	FormalFloat   = Formal(float64(0))
	FormalString  = Formal("")
	FormalBool    = Formal(false)
	FormalBytes   = Formal([]byte(nil))
	FormalInts    = Formal([]int(nil))
	FormalFloats  = Formal([]float64(nil))
	FormalStrings = Formal([]string(nil))
)

// Template is a tuple pattern: a mix of actual values and formals.
type Template []any

// Matches reports whether the template matches the tuple: same arity,
// every actual equal in type and value, every formal equal in type. It
// runs the space's own compiled matcher, so it agrees with every Store
// on every template a Store accepts; a leading formal string, which
// every Store refuses (ErrCrossTemplate), matches any string here.
func (tm Template) Matches(t Tuple) bool {
	var farr [6]compiledField
	var sbuf [88]byte
	ct, _ := compileTemplate(tm, farr[:0], sbuf[:0])
	return ct.match(t)
}

// Pre-resolved reflect.Types for the field types with fast-path
// matching.
var (
	typeInt     = reflect.TypeOf(int(0))
	typeInt64   = reflect.TypeOf(int64(0))
	typeFloat64 = reflect.TypeOf(float64(0))
	typeString  = reflect.TypeOf("")
	typeBool    = reflect.TypeOf(false)
	typeBytes   = reflect.TypeOf([]byte(nil))
)

// matchKind selects the comparison strategy for one compiled field.
type matchKind uint8

const (
	kindOther matchKind = iota // reflect.TypeOf + reflect.DeepEqual
	kindInt
	kindInt64
	kindFloat64
	kindString
	kindBool
	kindBytes
)

func kindOf(t reflect.Type) matchKind {
	switch t {
	case typeInt:
		return kindInt
	case typeInt64:
		return kindInt64
	case typeFloat64:
		return kindFloat64
	case typeString:
		return kindString
	case typeBool:
		return kindBool
	case typeBytes:
		return kindBytes
	}
	return kindOther
}

// typeName returns the signature spelling of a field type without
// calling Type.String on the common types.
func typeName(t reflect.Type) string {
	switch t {
	case typeInt:
		return "int"
	case typeInt64:
		return "int64"
	case typeFloat64:
		return "float64"
	case typeString:
		return "string"
	case typeBool:
		return "bool"
	case typeBytes:
		return "[]uint8"
	}
	return t.String()
}

// compiledField is one template field with its comparison pre-resolved
// so the inner match loop performs no repeated reflect.TypeOf calls.
type compiledField struct {
	kind    matchKind
	isForm  bool
	typ     reflect.Type // kindOther: exact dynamic type (nil for nil actuals)
	actual  any          // kindOther actuals: DeepEqual operand
	aInt    int64
	aFloat  float64
	aString string
	aBool   bool
	aBytes  []byte
}

func (cf *compiledField) match(v any) bool {
	switch cf.kind {
	case kindInt:
		x, ok := v.(int)
		return ok && (cf.isForm || int64(x) == cf.aInt)
	case kindInt64:
		x, ok := v.(int64)
		return ok && (cf.isForm || x == cf.aInt)
	case kindFloat64:
		x, ok := v.(float64)
		return ok && (cf.isForm || x == cf.aFloat)
	case kindString:
		x, ok := v.(string)
		return ok && (cf.isForm || x == cf.aString)
	case kindBool:
		x, ok := v.(bool)
		return ok && (cf.isForm || x == cf.aBool)
	case kindBytes:
		x, ok := v.([]byte)
		// nil and empty are distinct, matching reflect.DeepEqual.
		return ok && (cf.isForm || ((x == nil) == (cf.aBytes == nil) && bytes.Equal(x, cf.aBytes)))
	}
	if reflect.TypeOf(v) != cf.typ {
		return false
	}
	return cf.isForm || reflect.DeepEqual(cf.actual, v)
}

// appendTag appends the value of a leading string tag to a signature,
// length-prefixed rather than quoted: injectivity is all a partition
// key needs, and avoiding escape analysis of the tag bytes keeps the
// hot path cheap.
func appendTag(sig []byte, v string) []byte {
	sig = append(sig, "tag="...)
	sig = strconv.AppendInt(sig, int64(len(v)), 10)
	sig = append(sig, ':')
	sig = append(sig, v...)
	return append(sig, ';')
}

// compiledTemplate is a template prepared for repeated matching: the
// per-field matchers plus the signature routing information. The
// non-blocking path compiles into caller-owned stack scratch (see
// poll), so the whole compiled form lives on the caller's stack; the
// struct itself carries no arrays — a self-referential inline buffer
// would force the value to the heap (stores through a pointer
// parameter are heap stores under Go's escape analysis).
type compiledTemplate struct {
	fields []compiledField
	sig    []byte // signature partition key
}

func (ct *compiledTemplate) match(t Tuple) bool {
	if len(ct.fields) != len(t) {
		return false
	}
	for i := range ct.fields {
		if !ct.fields[i].match(t[i]) {
			return false
		}
	}
	return true
}

// compileTemplate prepares a template for matching, computing its
// signature and per-field matchers in one pass. fields and sig are
// caller-owned scratch (pass the zero-length slice of a stack array to
// keep the compiled form stack-resident, or nil to let it allocate —
// required when the result outlives the caller's frame, e.g. in a
// registered waiter). The result is returned by value so the callee
// never stores through a pointer into it, which would defeat stack
// allocation at every call site. A template leading with a formal
// string has no partition and fails with ErrCrossTemplate; its fields
// are still compiled, for Template.Matches.
func compileTemplate(tm Template, fields []compiledField, sig []byte) (compiledTemplate, error) {
	var ct compiledTemplate
	var err error
	if cap(fields) >= len(tm) {
		fields = fields[:len(tm)]
		for i := range fields {
			fields[i] = compiledField{}
		}
	} else {
		fields = make([]compiledField, len(tm))
	}
	ct.fields = fields
	sig = sig[:0]
	sig = strconv.AppendInt(sig, int64(len(tm)), 10)
	sig = append(sig, ':')
	for i, f := range tm {
		cf := &ct.fields[i]
		if fo, ok := f.(formal); ok {
			cf.isForm = true
			cf.typ = fo.t
			cf.kind = kindOf(fo.t)
			if fo.t == nil {
				sig = append(sig, "nil;"...)
				continue
			}
			if i == 0 && cf.kind == kindString {
				err = ErrCrossTemplate
			}
			sig = append(sig, typeName(fo.t)...)
			sig = append(sig, ';')
			continue
		}
		switch v := f.(type) {
		case int:
			cf.kind, cf.aInt = kindInt, int64(v)
			sig = append(sig, "int;"...)
		case int64:
			cf.kind, cf.aInt = kindInt64, v
			sig = append(sig, "int64;"...)
		case float64:
			cf.kind, cf.aFloat = kindFloat64, v
			sig = append(sig, "float64;"...)
		case string:
			cf.kind, cf.aString = kindString, v
			sig = append(sig, "string;"...)
			if i == 0 {
				sig = appendTag(sig, v)
			}
		case bool:
			cf.kind, cf.aBool = kindBool, v
			sig = append(sig, "bool;"...)
		case []byte:
			cf.kind, cf.aBytes = kindBytes, v
			sig = append(sig, "[]uint8;"...)
		default:
			cf.kind, cf.actual = kindOther, f
			cf.typ = reflect.TypeOf(f)
			if cf.typ == nil {
				sig = append(sig, "nil;"...)
				continue
			}
			sig = append(sig, cf.typ.String()...)
			sig = append(sig, ';')
		}
	}
	ct.sig = sig
	return ct, err
}

// signatureOf appends the partition key for a tuple to sig: the arity,
// the type of each field, and — following the common Linda convention
// of a leading string tag — the value of the first field when it is a
// string actual.
func signatureOf(sig []byte, fields []any) []byte {
	sig = strconv.AppendInt(sig, int64(len(fields)), 10)
	sig = append(sig, ':')
	for i, f := range fields {
		if fo, ok := f.(formal); ok {
			if fo.t == nil {
				sig = append(sig, "nil;"...)
				continue
			}
			sig = append(sig, typeName(fo.t)...)
			sig = append(sig, ';')
			continue
		}
		switch v := f.(type) {
		case int:
			sig = append(sig, "int;"...)
		case int64:
			sig = append(sig, "int64;"...)
		case float64:
			sig = append(sig, "float64;"...)
		case string:
			sig = append(sig, "string;"...)
			if i == 0 {
				sig = appendTag(sig, v)
			}
		case bool:
			sig = append(sig, "bool;"...)
		case []byte:
			sig = append(sig, "[]uint8;"...)
		default:
			t := reflect.TypeOf(f)
			if t == nil {
				sig = append(sig, "nil;"...)
				continue
			}
			sig = append(sig, t.String()...)
			sig = append(sig, ';')
		}
	}
	return sig
}

// Signature appends the partition key of a tuple (or template) to dst
// and returns it: the arity, the type of each field, and the value of
// a leading string tag. Two tuples share a partition exactly when
// their signatures are byte-equal, and a template matches only tuples
// of its own signature.
func Signature(dst []byte, fields []any) []byte {
	return signatureOf(dst, fields)
}

// SignatureHash is the 32-bit FNV-1a hash of a signature key. It has no
// seed, so a signature hashes alike in every process: the space picks a
// lock stripe by its low bits and the cluster router a home node by its
// remainder.
func SignatureHash(sig []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range sig {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// spaceObs holds a space's attached instruments. All instrument
// pointers may be nil (their methods no-op); the whole struct is
// reached through an atomic pointer that is nil until Observe, so the
// unobserved hot path pays one pointer load.
type spaceObs struct {
	outs, ins, rds, inps, rdps, blocked *obs.Counter
	tuples                              *obs.Gauge
	shardTuples                         []*obs.Gauge
	wait                                *obs.Histogram
	reg                                 *obs.Registry
	tracer                              *obs.Tracer
}

// Observe attaches a metrics registry and/or tracer to the space.
// Either may be nil. Metrics registered (under the "ts." prefix):
// per-op counters, a stored-tuple gauge, one stored-tuple gauge per
// shard ("ts.shard.<i>.tuples"), and a block→wake wait-time histogram.
// Trace events use kind "tuple". Observe may be called at any time;
// in-flight operations may be counted under the previous attachment.
func (s *Space) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	o := &spaceObs{
		outs:        reg.Counter("ts.out"),
		ins:         reg.Counter("ts.in"),
		rds:         reg.Counter("ts.rd"),
		inps:        reg.Counter("ts.inp"),
		rdps:        reg.Counter("ts.rdp"),
		blocked:     reg.Counter("ts.blocked"),
		tuples:      reg.Gauge("ts.tuples"),
		shardTuples: make([]*obs.Gauge, len(s.shards)),
		wait:        reg.Histogram("ts.wait"),
		reg:         reg,
		tracer:      tracer,
	}
	for i, sh := range s.shards {
		o.shardTuples[i] = reg.Gauge("ts.shard." + strconv.Itoa(i) + ".tuples")
		sh.mu.Lock()
		o.shardTuples[i].Set(sh.count)
		sh.mu.Unlock()
	}
	o.tuples.Set(s.tupleCnt.Load())
	s.obs.Store(o)
}

// Registry returns the registry attached by Observe, or nil. The
// networked server (net.go) uses it for wire-level metrics.
func (s *Space) Registry() *obs.Registry {
	if o := s.obs.Load(); o != nil {
		return o.reg
	}
	return nil
}

// Tracer returns the tracer attached by Observe, or nil.
func (s *Space) Tracer() *obs.Tracer {
	if o := s.obs.Load(); o != nil {
		return o.tracer
	}
	return nil
}

// stored is one tuple at rest plus its provenance: the span context of
// the operation that published it (zero when untraced). The origin
// travels with the tuple through waiter delivery and takes, which is
// what lets a consumer join the producer's trace — causality in Linda
// flows through tuples, not calls.
type stored struct {
	t   Tuple
	org obs.SpanContext
}

type waiter struct {
	ct      *compiledTemplate
	take    bool // In (destructive) vs Rd
	ch      chan stored
	removed bool // guarded by the shard lock
}

// partition is the tuple list of one signature: a FIFO whose head take
// is O(1). tuples is a window onto a backing array that Out extends at
// the tail and a take of the first tuple advances at the head; base is
// the empty slice at that array's start, which the window falls back to
// when it empties so the array's full capacity is reused. Partitions
// are held by pointer so the hot paths can mutate the list through a
// no-allocation map lookup (parts[string(sigBytes)]) without
// re-assigning the entry.
type partition struct {
	tuples []stored
	base   []stored
}

// shard is one lock stripe of the space: the partitions whose signature
// hashes here, plus the waiters blocked on those signatures.
type shard struct {
	mu      sync.Mutex
	idx     int
	parts   map[string]*partition
	waiters []*waiter // in arrival order, so FIFO among takers
	count   int64     // stored tuples in this shard
	empties int       // partitions currently holding no tuples
	closed  bool
}

// sweepThreshold bounds how many drained partitions a shard retains.
// Emptied partitions are kept rather than deleted — the Out/Inp cycle
// of a steady-state workload would otherwise recreate the partition,
// its map entry, and its key string on every round trip. A sweep
// reclaims them only when they are both numerous and the majority of
// the map, which a fixed working set of signatures never triggers.
const sweepThreshold = 512

// noteEmptiedLocked records that a take drained p's last tuple and
// sweeps the shard's empty partitions if they have accumulated.
func (sh *shard) noteEmptiedLocked() {
	sh.empties++
	if sh.empties > sweepThreshold && sh.empties*2 > len(sh.parts) {
		for k, p := range sh.parts {
			if len(p.tuples) == 0 {
				delete(sh.parts, k)
			}
		}
		sh.empties = 0
	}
}

// Space is a concurrency-safe Linda tuple space, lock-striped over
// signature shards.
//
// The zero value is not usable; create spaces with New.
type Space struct {
	shards []*shard
	mask   uint32

	tupleCnt atomic.Int64
	closed   atomic.Bool

	obs atomic.Pointer[spaceObs] // nil until Observe
}

// New returns an empty tuple space striped over four shards per
// GOMAXPROCS, rounded up to a power of two in [8, 256].
func New() *Space {
	n := min(max(4*runtime.GOMAXPROCS(0), 8), 256)
	size := 1
	for size < n {
		size <<= 1
	}
	return newStriped(size)
}

// newStriped returns an empty space of size shards, a power of two.
func newStriped(size int) *Space {
	s := &Space{shards: make([]*shard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, parts: make(map[string]*partition)}
	}
	return s
}

// shardOf routes a signature key to its shard.
func (s *Space) shardOf(sig []byte) *shard {
	return s.shards[SignatureHash(sig)&s.mask]
}

// Out places a tuple into the space, waking any blocked In/Rd whose
// template matches. It never blocks. The ctx's span context (if any)
// is stamped onto the stored tuple as its origin, so a later traced
// take can join the producer's trace.
func (s *Space) Out(ctx context.Context, fields ...any) error {
	t, err := CopyTuple(fields)
	if err != nil {
		return err
	}
	return s.out(t, obs.FromContext(ctx))
}

// OutN places a batch of tuples into the space with the origin
// stamping of Out applied to every tuple. It is equivalent to calling
// Out once per tuple (including waking waiters per tuple) and exists
// so batch producers — and the networked server's "outn" request —
// share one call. A batch with a formal anywhere stores nothing; on a
// closed space the batch stops at the first rejected tuple.
func (s *Space) OutN(ctx context.Context, tuples []Tuple) error {
	cs, err := copyTuples(tuples)
	if err != nil {
		return err
	}
	return s.outAll(cs, obs.FromContext(ctx))
}

// copyTuples copies a batch with CopyTuple, all or nothing.
func copyTuples(tuples []Tuple) ([]Tuple, error) {
	cs := make([]Tuple, len(tuples))
	for i, t := range tuples {
		c, err := CopyTuple(t)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// outAll stores tuples it owns in order, stopping at the first error.
func (s *Space) outAll(tuples []Tuple, org obs.SpanContext) error {
	for _, t := range tuples {
		if err := s.out(t, org); err != nil {
			return err
		}
	}
	return nil
}

// out stores or delivers t, taking ownership of the slice. org is the
// producer's span context (zero when untraced); it rides with the
// tuple.
func (s *Space) out(t Tuple, org obs.SpanContext) error {
	var sbuf [88]byte
	sig := signatureOf(sbuf[:0], t)
	sh := s.shardOf(sig)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosed
	}
	o := s.obs.Load()
	taken := s.deliverLocked(sh, stored{t: t, org: org})
	if !taken {
		p := sh.parts[string(sig)] // no-alloc lookup
		if p == nil {
			p = &partition{}
			sh.parts[string(sig)] = p
		} else if len(p.tuples) == 0 {
			sh.empties-- // refilling a retained empty partition
		}
		grown := len(p.tuples) == cap(p.tuples) // append moves to a new array
		p.tuples = append(p.tuples, stored{t: t, org: org})
		if grown {
			p.base = p.tuples[:0]
		}
		sh.count++
		s.tupleCnt.Add(1)
		if o != nil {
			o.tuples.Add(1)
			o.shardTuples[sh.idx].Add(1)
		}
	}
	sh.mu.Unlock()
	if o != nil {
		o.outs.Inc()
	}
	return nil
}

// deliverLocked serves st to the shard's blocked waiters: every
// matching reader is woken, then the earliest-registered matching taker
// consumes it. Called with sh.mu held.
func (s *Space) deliverLocked(sh *shard, st stored) bool {
	if len(sh.waiters) == 0 {
		return false
	}
	taken := false
	for _, w := range sh.waiters {
		if w.removed || !w.ct.match(st.t) {
			continue
		}
		if w.take {
			if !taken {
				w.removed = true
				w.ch <- st
				taken = true
			}
			continue
		}
		w.removed = true
		w.ch <- st
	}
	live := sh.waiters[:0]
	for _, w := range sh.waiters {
		if !w.removed {
			live = append(live, w)
		}
	}
	clear(sh.waiters[len(live):])
	sh.waiters = live
	return taken
}

// findInShardLocked searches the template's partition in its shard for
// a match, removing the tuple when take is set.
func (s *Space) findInShardLocked(sh *shard, ct *compiledTemplate, take bool) (stored, bool) {
	p := sh.parts[string(ct.sig)] // no-alloc lookup
	if p == nil {
		return stored{}, false
	}
	for i, st := range p.tuples {
		if !ct.match(st.t) {
			continue
		}
		if take {
			if i > 0 {
				p.tuples = append(p.tuples[:i], p.tuples[i+1:]...)
			} else {
				// The FIFO take advances the head instead of shifting
				// the rest of the bag down.
				p.tuples[0] = stored{}
				if p.tuples = p.tuples[1:]; len(p.tuples) == 0 {
					p.tuples = p.base
				}
			}
			if len(p.tuples) == 0 {
				sh.noteEmptiedLocked()
			}
			sh.count--
			s.tupleCnt.Add(-1)
			if o := s.obs.Load(); o != nil {
				o.tuples.Add(-1)
				o.shardTuples[sh.idx].Add(-1)
			}
		}
		return st, true
	}
	return stored{}, false
}

// poll is the non-blocking match: Inp (take) and Rdp. The ctx is
// consulted for early cancellation and supplies the trace parent for
// the probe's span; a probe never blocks, so a live ctx cannot expire
// mid-poll.
func (s *Space) poll(ctx context.Context, tm Template, take bool) (stored, bool, error) {
	if s.closed.Load() {
		return stored{}, false, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return stored{}, false, err
	}
	// Stack-compiled: poll never retains the template, so the scratch
	// arrays and the compiled form stay in this frame — the non-blocking
	// hot path (a worker's Inp poll loop) allocates nothing here.
	var farr [6]compiledField
	var sbuf [88]byte
	ct, err := compileTemplate(tm, farr[:0], sbuf[:0])
	if err != nil {
		return stored{}, false, err
	}
	op := "rdp"
	if take {
		op = "inp"
	}
	sh := s.shardOf(ct.sig)
	sh.mu.Lock()
	st, ok := s.findInShardLocked(sh, &ct, take)
	sh.mu.Unlock()
	if o := s.obs.Load(); o != nil {
		if take {
			o.inps.Inc()
		} else {
			o.rdps.Inc()
		}
		if o.tracer != nil {
			if sp := o.tracer.StartChild(obs.FromContext(ctx), "tuple", op); sp != nil {
				sp.Annotate("matched", ok)
				sp.End()
			}
		}
	}
	return st, ok, nil
}

// Inp is the non-blocking destructive match: if a matching tuple
// exists it is removed and returned with true, else ok is false. The
// error is non-nil only when the space is closed, the ctx already
// done, or the template leads with a formal string (ErrCrossTemplate).
func (s *Space) Inp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	st, ok, err := s.poll(ctx, Template(tmplFields), true)
	return st.t, ok, err
}

// InpTraced is Inp additionally returning the taken tuple's origin
// span context (zero when it was stored untraced). The durable space
// uses it to thread producer traces through WAL-logged takes.
func (s *Space) InpTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, bool, error) {
	st, ok, err := s.poll(ctx, Template(tmplFields), true)
	return st.t, st.org, ok, err
}

// Rdp is the non-blocking non-destructive match.
func (s *Space) Rdp(ctx context.Context, tmplFields ...any) (Tuple, bool, error) {
	st, ok, err := s.poll(ctx, Template(tmplFields), false)
	return st.t, ok, err
}

// In blocks until a matching tuple exists, removes it, and returns it.
// It returns ErrClosed if the space is closed before a match arrives,
// and ctx.Err() if the context is done first. A tuple delivered in the
// same instant as the cancellation wins — In returns it rather than
// losing a take.
func (s *Space) In(ctx context.Context, tmplFields ...any) (Tuple, error) {
	st, err := s.wait(ctx, Template(tmplFields), true)
	return st.t, err
}

// InTraced is In additionally returning the tuple's origin span
// context, so the taker can join the trace of whichever operation
// published the tuple.
func (s *Space) InTraced(ctx context.Context, tmplFields ...any) (Tuple, obs.SpanContext, error) {
	st, err := s.wait(ctx, Template(tmplFields), true)
	return st.t, st.org, err
}

// Rd blocks until a matching tuple exists and returns a copy of it,
// leaving it in the space, under the same cancellation and tuple-wins
// rules as In.
func (s *Space) Rd(ctx context.Context, tmplFields ...any) (Tuple, error) {
	st, err := s.wait(ctx, Template(tmplFields), false)
	return st.t, err
}

func (s *Space) wait(ctx context.Context, tm Template, take bool) (stored, error) {
	if s.closed.Load() {
		return stored{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return stored{}, err
	}
	// Heap-compiled (nil scratch): a registered waiter retains it.
	ct := new(compiledTemplate)
	var err error
	if *ct, err = compileTemplate(tm, nil, nil); err != nil {
		return stored{}, err
	}
	op := "rd"
	if take {
		op = "in"
	}
	o := s.obs.Load()
	if o != nil {
		if take {
			o.ins.Inc()
		} else {
			o.rds.Inc()
		}
	}
	// The match attempt (and any block under it) is traced as a span
	// under the caller's span context, or not at all.
	var sp *obs.Span
	if o != nil && o.tracer != nil {
		sp = o.tracer.StartChild(obs.FromContext(ctx), "tuple", op)
	}

	sh := s.shardOf(ct.sig)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		if sp != nil {
			sp.Annotate("err", "closed")
			sp.End()
		}
		return stored{}, ErrClosed
	}
	if st, ok := s.findInShardLocked(sh, ct, take); ok {
		sh.mu.Unlock()
		if sp != nil {
			sp.Annotate("blocked", false)
			sp.Annotate("shard", sh.idx)
			sp.End()
		}
		return st, nil
	}
	w := &waiter{ct: ct, take: take, ch: make(chan stored, 1)}
	sh.waiters = append(sh.waiters, w)
	sh.mu.Unlock()
	return s.block(ctx, sh, w, o, sp)
}

// block parks the caller on its waiter channel until an Out delivers a
// tuple, the context is canceled, or Close releases it. On
// cancellation the caller claims its waiter slot under the shard lock;
// if the claim fails a delivery (or Close) won the race and the
// channel resolves immediately — the tuple wins over cancellation so
// no take is lost.
func (s *Space) block(ctx context.Context, sh *shard, w *waiter, o *spaceObs, sp *obs.Span) (stored, error) {
	if o != nil {
		o.blocked.Inc()
	}
	// Under a traced operation the park itself becomes a child span, so
	// a trace shows the waiter-block interval distinct from the overall
	// op. bsp is nil (and its methods no-ops) when untraced.
	var bsp *obs.Span
	if sp != nil {
		bsp = o.tracer.StartChild(sp.Context(), "tuple", "block")
	}
	blockedAt := time.Now()
	var st stored
	var ok bool
	select {
	case st, ok = <-w.ch:
	case <-ctx.Done():
		sh.mu.Lock()
		claimed := !w.removed
		w.removed = true
		sh.mu.Unlock()
		if claimed {
			if o != nil {
				o.wait.Observe(time.Since(blockedAt))
			}
			if sp != nil {
				bsp.Annotate("canceled", true)
				bsp.End()
				sp.Annotate("blocked", true)
				sp.Annotate("canceled", true)
				sp.End()
			}
			return stored{}, ctx.Err()
		}
		st, ok = <-w.ch
	}
	if o != nil {
		o.wait.Observe(time.Since(blockedAt))
	}
	if sp != nil {
		bsp.Annotate("woken", ok)
		bsp.End()
		sp.Annotate("blocked", true)
		sp.Annotate("woken", ok)
		sp.End()
	}
	if !ok {
		return stored{}, ErrClosed
	}
	return st, nil
}

// Close unblocks all waiting operations with ErrClosed and rejects all
// subsequent operations. Stored tuples remain readable via Snapshot.
// The returned error is always nil; the signature matches Store.
func (s *Space) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Waiters are marked removed and their channels closed under the
	// list lock, so a concurrent InCtx cancellation (which claims the
	// removed flag under the same lock) either wins cleanly or sees the
	// closed channel.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		for _, w := range sh.waiters {
			if !w.removed {
				w.removed = true
				close(w.ch)
			}
		}
		sh.waiters = nil
		sh.mu.Unlock()
	}
	return nil
}

// Len reports the number of tuples currently stored. The error is
// always nil for a local space; the signature matches Store.
func (s *Space) Len() (int, error) { return int(s.tupleCnt.Load()), nil }

// Snapshot returns a deep-enough copy of all stored tuples in a
// deterministic order, for use by the PLinda checkpointer. Field values
// are shared, so callers must treat them as immutable (all miners in
// this repository do). All shards are locked for the duration, so the
// snapshot is a consistent cut.
func (s *Space) Snapshot() []Tuple {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	var keys []string
	byKey := make(map[string][]stored)
	for _, sh := range s.shards {
		for k, p := range sh.parts {
			keys = append(keys, k)
			byKey[k] = p.tuples
		}
	}
	sort.Strings(keys)
	var out []Tuple
	for _, k := range keys {
		for _, st := range byKey[k] {
			out = append(out, append(Tuple(nil), st.t...))
		}
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	return out
}

// Restore replaces the space contents with the given tuples, waking
// any blocked operations that now match. Used for rollback recovery.
func (s *Space) Restore(tuples []Tuple) error {
	if s.closed.Load() {
		return ErrClosed
	}
	o := s.obs.Load()
	for _, sh := range s.shards {
		sh.mu.Lock()
		removed := sh.count
		sh.parts = make(map[string]*partition)
		sh.count = 0
		sh.empties = 0
		s.tupleCnt.Add(-removed)
		if o != nil && removed != 0 {
			o.tuples.Add(-removed)
			o.shardTuples[sh.idx].Add(-removed)
		}
		sh.mu.Unlock()
	}
	for _, t := range tuples {
		if err := s.out(append(Tuple(nil), t...), obs.SpanContext{}); err != nil {
			return err
		}
	}
	return nil
}

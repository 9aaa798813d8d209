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
// shards by signature hash, so operations on different signatures never
// contend on a lock. Each shard keeps its own tuple lists and its own
// waiter list; an Out only wakes waiters registered for its signature.
// The one cross-shard case — a template whose first field is a formal
// string, which may match any tagged partition of its arity — takes a
// slow path: its waiters live on a shared list every shard consults,
// and its polls scan the shards in order. Templates are compiled once
// per operation into a matcher with fast-path equality for the scalar,
// string and []byte field types the miners use, falling back to
// reflection only for other types.
package tuplespace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
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
// every actual equal in type and value, every formal equal in type.
// This is the reference semantics; the space itself matches through
// compiled templates, which agree with Matches on every input.
func (tm Template) Matches(t Tuple) bool {
	if len(tm) != len(t) {
		return false
	}
	for i, f := range tm {
		if fo, ok := f.(formal); ok {
			if reflect.TypeOf(t[i]) != fo.t {
				return false
			}
			continue
		}
		if reflect.TypeOf(f) != reflect.TypeOf(t[i]) {
			return false
		}
		if !reflect.DeepEqual(f, t[i]) {
			return false
		}
	}
	return true
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
	cross  bool   // leading formal string: may match any tagged partition
	prefix string // cross templates: "<arity>:string;" candidate-key prefix
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
// allocation at every call site.
func compileTemplate(tm Template, fields []compiledField, sig []byte) compiledTemplate {
	var ct compiledTemplate
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
			sig = append(sig, typeName(fo.t)...)
			sig = append(sig, ';')
			if i == 0 && cf.kind == kindString {
				ct.cross = true
			}
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
	if ct.cross {
		// A cross signature starts with "<arity>:string;" — the prefix
		// every matchable partition key shares.
		ct.prefix = string(sig[:bytes.IndexByte(sig, ';')+1])
	}
	return ct
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
// their signatures are byte-equal, and a non-cross template matches
// only tuples of its own signature. External routers (the cluster
// package) partition by a deterministic hash of this key — unlike the
// in-process shard routing, which hashes with a per-process seed and
// so must never leak across processes.
func Signature(dst []byte, fields []any) []byte {
	return signatureOf(dst, fields)
}

// CrossTemplate reports whether a template's leading field is a formal
// string — the one shape that can match tuples in any tagged partition
// of its arity, and therefore cannot be routed to a single home (shard
// or cluster node) by signature.
func CrossTemplate(tmplFields []any) bool {
	if len(tmplFields) == 0 {
		return false
	}
	fo, ok := tmplFields[0].(formal)
	return ok && fo.t == typeString
}

// Stats counts operations on a space; useful for tests and for the
// communication-cost accounting in the NOW experiments. Ins/Rds count
// the blocking forms only; the predicate forms have their own
// counters. Blocked counts operations that had to wait, and
// BlockedNanos accumulates the total time they spent waiting.
type Stats struct {
	Outs, Ins, Rds, Inps, Rdps, Blocked int64
	BlockedNanos                        int64
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
	seq     int64
	removed bool // guarded by the lock of the list holding the waiter
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
	waiters []*waiter
	sorted  []string // sorted partition keys; nil = stale, rebuilt on demand
	count   int64    // stored tuples in this shard
	empties int      // partitions currently holding no tuples
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
		sh.sorted = nil
		sh.empties = 0
	}
}

// sortedKeysLocked returns the shard's partition keys in sorted order,
// rebuilding the cache only after a partition was created or deleted.
func (sh *shard) sortedKeysLocked() []string {
	if sh.sorted == nil {
		sh.sorted = make([]string, 0, len(sh.parts))
		for k := range sh.parts {
			sh.sorted = append(sh.sorted, k)
		}
		sort.Strings(sh.sorted)
	}
	return sh.sorted
}

// Space is a concurrency-safe Linda tuple space, lock-striped over
// signature shards.
//
// The zero value is not usable; create spaces with New or NewSharded.
type Space struct {
	shards []*shard
	mask   uint64

	// xwait holds waiters whose template has a leading formal string —
	// the only templates that can match tuples on more than one shard.
	// Every Out consults this list (cheaply skipped via the atomic
	// counter when empty). Lock order: shard.mu before xwait.mu.
	xwait struct {
		mu     sync.Mutex
		list   []*waiter
		n      atomic.Int64 // live (non-removed) entries
		closed bool
	}

	seq      atomic.Int64 // waiter arrival order, for FIFO fairness
	tupleCnt atomic.Int64
	closed   atomic.Bool

	stOuts, stIns, stRds, stInps, stRdps atomic.Int64
	stBlocked, stBlockedNanos            atomic.Int64

	obs atomic.Pointer[spaceObs] // nil until Observe
}

// New returns an empty tuple space with a shard count derived from
// GOMAXPROCS.
func New() *Space { return NewSharded(0) }

// NewSharded returns an empty tuple space striped over n shards,
// rounded up to a power of two and capped at 256. n <= 0 selects the
// default (at least 8, growing with GOMAXPROCS).
func NewSharded(n int) *Space {
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
	}
	if n > 256 {
		n = 256
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Space{shards: make([]*shard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, parts: make(map[string]*partition)}
	}
	return s
}

// Shards reports the number of lock stripes in the space.
func (s *Space) Shards() int { return len(s.shards) }

// shardSeed keys signature hashing for shard routing; per-process like
// the runtime's own map seed.
var shardSeed = maphash.MakeSeed()

// shardOf routes a signature key to its shard.
func (s *Space) shardOf(sig []byte) *shard {
	return s.shards[maphash.Bytes(shardSeed, sig)&s.mask]
}

// Out places a tuple into the space, waking any blocked In/Rd whose
// template matches. It never blocks. The ctx's span context (if any)
// is stamped onto the stored tuple as its origin, so a later traced
// take can join the producer's trace.
func (s *Space) Out(ctx context.Context, fields ...any) error {
	return s.out(Tuple(append([]any(nil), fields...)), obs.FromContext(ctx))
}

// OutN places a batch of tuples into the space with the origin
// stamping of Out applied to every tuple. It is equivalent to calling
// Out once per tuple (including waking waiters per tuple) and exists
// so batch producers — and the networked server's "outn" request —
// share one call. On a closed space the batch stops at the first
// rejected tuple.
func (s *Space) OutN(ctx context.Context, tuples []Tuple) error {
	org := obs.FromContext(ctx)
	for _, t := range tuples {
		if err := s.out(append(Tuple(nil), t...), org); err != nil {
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
	s.stOuts.Add(1)
	o := s.obs.Load()
	taken := s.deliverLocked(sh, stored{t: t, org: org})
	if !taken {
		p := sh.parts[string(sig)] // no-alloc lookup
		if p == nil {
			p = &partition{}
			sh.parts[string(sig)] = p
			sh.sorted = nil
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
		if o.tracer != nil {
			o.tracer.Record("tuple", "out", 0, "arity", len(t))
		}
	}
	return nil
}

// deliverLocked serves st to blocked waiters: every matching reader is
// woken, then the earliest-registered matching taker consumes it. The
// shard's own waiters and the cross-shard list are walked merged in
// arrival order, preserving FIFO fairness between them. Called with
// sh.mu held; takes xwait.mu only when cross-shard waiters exist.
func (s *Space) deliverLocked(sh *shard, st stored) bool {
	var xs []*waiter
	xlocked := false
	if s.xwait.n.Load() > 0 {
		s.xwait.mu.Lock()
		xlocked = true
		xs = s.xwait.list
	}
	taken := false
	ws := sh.waiters
	if len(ws) > 0 || len(xs) > 0 {
		i, j := 0, 0
		for i < len(ws) || j < len(xs) {
			var w *waiter
			switch {
			case i >= len(ws):
				w = xs[j]
				j++
			case j >= len(xs) || ws[i].seq < xs[j].seq:
				w = ws[i]
				i++
			default:
				w = xs[j]
				j++
			}
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
		compactWaiters(&sh.waiters)
	}
	if xlocked {
		n := compactWaiters(&s.xwait.list)
		s.xwait.n.Store(int64(n))
		s.xwait.mu.Unlock()
	}
	return taken
}

func compactWaiters(ws *[]*waiter) int {
	live := (*ws)[:0]
	for _, w := range *ws {
		if !w.removed {
			live = append(live, w)
		}
	}
	for i := len(live); i < len(*ws); i++ {
		(*ws)[i] = nil
	}
	*ws = live
	return len(live)
}

// findInShardLocked searches one shard for a match, removing the tuple
// when take is set. Cross-shard templates consult only the partitions
// whose key carries the template's arity-and-leading-string prefix,
// through the shard's cached sorted key list.
func (s *Space) findInShardLocked(sh *shard, ct *compiledTemplate, take bool) (stored, bool) {
	if len(ct.fields) == 0 {
		return stored{}, false
	}
	if !ct.cross {
		p := sh.parts[string(ct.sig)] // no-alloc lookup
		if p == nil {
			return stored{}, false
		}
		st, ok := s.scanPartitionLocked(sh, p, ct, take)
		if ok && take && len(p.tuples) == 0 {
			sh.noteEmptiedLocked()
		}
		return st, ok
	}
	keys := sh.sortedKeysLocked()
	for _, k := range keys[sort.SearchStrings(keys, ct.prefix):] {
		if !strings.HasPrefix(k, ct.prefix) {
			break
		}
		p := sh.parts[k]
		if p == nil {
			continue // swept since the sorted cache was built
		}
		if st, ok := s.scanPartitionLocked(sh, p, ct, take); ok {
			if take && len(p.tuples) == 0 {
				sh.noteEmptiedLocked()
			}
			return st, ok
		}
	}
	return stored{}, false
}

func (s *Space) scanPartitionLocked(sh *shard, p *partition, ct *compiledTemplate, take bool) (stored, bool) {
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
	ct := compileTemplate(tm, farr[:0], sbuf[:0])
	op := "rdp"
	if take {
		s.stInps.Add(1)
		op = "inp"
	} else {
		s.stRdps.Add(1)
	}
	var st stored
	var ok bool
	if ct.cross {
		for _, sh := range s.shards {
			sh.mu.Lock()
			st, ok = s.findInShardLocked(sh, &ct, take)
			sh.mu.Unlock()
			if ok {
				break
			}
		}
	} else {
		sh := s.shardOf(ct.sig)
		sh.mu.Lock()
		st, ok = s.findInShardLocked(sh, &ct, take)
		sh.mu.Unlock()
	}
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
			} else {
				o.tracer.Record("tuple", op, 0, "matched", ok)
			}
		}
	}
	return st, ok, nil
}

// Inp is the non-blocking destructive match: if a matching tuple
// exists it is removed and returned with true, else ok is false. The
// error is non-nil only when the space is closed or the ctx already
// done.
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
	*ct = compileTemplate(tm, nil, nil)
	op := "rd"
	if take {
		s.stIns.Add(1)
		op = "in"
	} else {
		s.stRds.Add(1)
	}
	o := s.obs.Load()
	if o != nil {
		if take {
			o.ins.Inc()
		} else {
			o.rds.Inc()
		}
	}
	// When the caller's context carries a span context and a tracer is
	// attached, the match attempt (and any block under it) is recorded
	// as a span under that parent; otherwise the flat trace events are
	// kept, so untraced callers see exactly the old event stream.
	var sp *obs.Span
	if o != nil && o.tracer != nil {
		sp = o.tracer.StartChild(obs.FromContext(ctx), "tuple", op)
	}

	if !ct.cross {
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
			} else if o != nil && o.tracer != nil {
				o.tracer.Record("tuple", op, 0, "blocked", false)
			}
			return st, nil
		}
		w := &waiter{ct: ct, take: take, ch: make(chan stored, 1), seq: s.seq.Add(1)}
		sh.waiters = append(sh.waiters, w)
		sh.mu.Unlock()
		unregister := func() bool {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if w.removed {
				return false
			}
			w.removed = true
			return true
		}
		return s.block(ctx, w, unregister, op, o, sp)
	}

	// Cross-shard template: register on the shared waiter list first so
	// a concurrent Out on any shard can find us, then scan the shards
	// for an already stored match, claiming our waiter slot before
	// taking a tuple so at most one of {scan, Out} fulfills us.
	s.xwait.mu.Lock()
	if s.xwait.closed {
		s.xwait.mu.Unlock()
		if sp != nil {
			sp.Annotate("err", "closed")
			sp.End()
		}
		return stored{}, ErrClosed
	}
	w := &waiter{ct: ct, take: take, ch: make(chan stored, 1), seq: s.seq.Add(1)}
	s.xwait.list = append(s.xwait.list, w)
	s.xwait.n.Add(1)
	s.xwait.mu.Unlock()

	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			break // closing: our channel is (being) closed
		}
		if _, ok := s.findInShardLocked(sh, ct, false); !ok {
			sh.mu.Unlock()
			continue
		}
		s.xwait.mu.Lock()
		claimed := !w.removed && !s.xwait.closed
		if claimed {
			w.removed = true
			s.xwait.n.Add(-1)
		}
		s.xwait.mu.Unlock()
		if !claimed {
			sh.mu.Unlock()
			break // an Out delivered concurrently; consume the channel
		}
		// The shard lock was held across the probe, so the match is
		// still present.
		st, ok := s.findInShardLocked(sh, ct, take)
		sh.mu.Unlock()
		if ok {
			if sp != nil {
				sp.Annotate("blocked", false)
				sp.Annotate("shard", sh.idx)
				sp.End()
			} else if o != nil && o.tracer != nil {
				o.tracer.Record("tuple", op, 0, "blocked", false)
			}
			return st, nil
		}
		break
	}
	unregister := func() bool {
		s.xwait.mu.Lock()
		defer s.xwait.mu.Unlock()
		if w.removed {
			return false
		}
		w.removed = true
		s.xwait.n.Add(-1)
		return true
	}
	return s.block(ctx, w, unregister, op, o, sp)
}

// block parks the caller on its waiter channel until an Out delivers a
// tuple, the context is canceled, or Close releases it. On
// cancellation, unregister claims the waiter slot under the list lock;
// if the claim fails a delivery (or Close) won the race and the
// channel resolves immediately — the tuple wins over cancellation so
// no take is lost.
func (s *Space) block(ctx context.Context, w *waiter, unregister func() bool, op string, o *spaceObs, sp *obs.Span) (stored, error) {
	s.stBlocked.Add(1)
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
		if unregister() {
			waited := time.Since(blockedAt)
			s.stBlockedNanos.Add(int64(waited))
			if o != nil {
				o.wait.Observe(waited)
				if sp != nil {
					bsp.Annotate("canceled", true)
					bsp.End()
					sp.Annotate("blocked", true)
					sp.Annotate("canceled", true)
					sp.End()
				} else if o.tracer != nil {
					o.tracer.Record("tuple", op, waited, "blocked", true, "canceled", true)
				}
			}
			return stored{}, ctx.Err()
		}
		st, ok = <-w.ch
	}
	waited := time.Since(blockedAt)
	s.stBlockedNanos.Add(int64(waited))
	if o != nil {
		o.wait.Observe(waited)
		if sp != nil {
			bsp.Annotate("woken", ok)
			bsp.End()
			sp.Annotate("blocked", true)
			sp.Annotate("woken", ok)
			sp.End()
		} else if o.tracer != nil {
			o.tracer.Record("tuple", op, waited, "blocked", true, "woken", ok)
		}
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
	s.xwait.mu.Lock()
	s.xwait.closed = true
	for _, w := range s.xwait.list {
		if !w.removed {
			w.removed = true
			close(w.ch)
		}
	}
	s.xwait.list = nil
	s.xwait.n.Store(0)
	s.xwait.mu.Unlock()
	return nil
}

// Len reports the number of tuples currently stored. The error is
// always nil for a local space; the signature matches Store.
func (s *Space) Len() (int, error) { return int(s.tupleCnt.Load()), nil }

// Stats returns a copy of the operation counters.
func (s *Space) Stats() Stats {
	return Stats{
		Outs:         s.stOuts.Load(),
		Ins:          s.stIns.Load(),
		Rds:          s.stRds.Load(),
		Inps:         s.stInps.Load(),
		Rdps:         s.stRdps.Load(),
		Blocked:      s.stBlocked.Load(),
		BlockedNanos: s.stBlockedNanos.Load(),
	}
}

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
		sh.sorted = nil
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

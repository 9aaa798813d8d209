package tuplespace

// The binary wire codec. Both hot paths of the runtime — the TCP
// protocol in net.go and the durable WAL in internal/durable — encode
// through this file, and so do plinda checkpoints: the field types a
// tuple can carry form a closed set (the scalar and slice types the
// miners use, plus formals of those types), so a hand-rolled tag-byte
// format needs no per-message type dictionary, no reflection on the
// fast path and no intermediate wireField slice, and its encode
// buffers come from a sync.Pool instead of the heap. A field outside
// the set fails to encode, so it is refused before anything is sent or
// logged.
//
// Framing: every message is one frame, a uvarint byte length followed
// by the body. The body layouts for requests and responses are
// documented field by field on appendRequest and appendResponse (and
// as a byte-level table in DESIGN.md).
//
// Values are encoded as one tag byte plus a tag-specific payload:
//
//	vNil                      — nothing
//	vInt, vInt64              — zigzag varint
//	vFloat64                  — 8 bytes little-endian IEEE 754
//	vString                   — uvarint length + bytes
//	vBool                     — 1 byte
//	vBytes                    — uvarint length+1 + bytes (0 = nil,
//	                            keeping nil and empty apart)
//	vInts, vFloats, vStrings  — uvarint count+1 + elements
//	vFormal                   — 1 type byte (a vNil..vStrings tag)
//
// The handshake is a 5-byte banner ("FPDM" + one version byte) each
// side sends on connect, so a version mismatch fails loudly at dial
// time instead of as a garbled frame.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"

	"freepdm/internal/obs"
)

// wireMagic and wireVersion form the connection banner. Version 3
// opens a transaction with its first operation; version 2 sent a
// txbegin frame of its own, and version 1 was the gob protocol.
const (
	wireMagic   = "FPDM"
	wireVersion = 3
)

// Value tag bytes. The vNil..vStrings range doubles as the formal type
// code carried after vFormal.
const (
	vNil byte = iota
	vInt
	vInt64
	vFloat64
	vString
	vBool
	vBytes
	vInts
	vFloats
	vStrings
	vFormal
)

// Request op codes. opInvalid is zero so a zeroed request never aliases
// a real operation.
const (
	opInvalid byte = iota
	opOut
	opOutN
	opIn
	opInp
	opRd
	opRdp
	opLen
	opHello
	opPing
	opTxCommit
	opTxAbort
	opCancel
	opRecover
	opMax // sentinel: number of op codes
)

// opNames maps op codes to the names used in metrics, spans and
// errors.
var opNames = [opMax]string{
	opOut: "out", opOutN: "outn", opIn: "in", opInp: "inp",
	opRd: "rd", opRdp: "rdp", opLen: "len", opHello: "hello",
	opPing: "ping", opTxCommit: "txcommit",
	opTxAbort: "txabort", opCancel: "cancel", opRecover: "recover",
}

func opName(op byte) string {
	if op < opMax && opNames[op] != "" {
		return opNames[op]
	}
	return "op" + strconv.Itoa(int(op))
}

// Request flag bits: each set bit announces one optional section of the
// request body, in this order.
const (
	rfFields byte = 1 << iota
	rfBatch
	rfTxn
	rfTarget
	rfLease
	rfName
	rfCont
	rfTrace
)

// Response flag bits, same scheme.
const (
	pfOK byte = 1 << iota
	pfTuple
	pfLen
	pfErr
	pfTrace
)

// maxFrame bounds a single frame; a length beyond it means a corrupt
// or hostile stream, not a tuple.
const maxFrame = 64 << 20

// errTruncated is the generic decoder error for a frame that ends
// mid-value. The decoder returns errors — it never panics — which is
// what the fuzz targets assert.
var errTruncated = errors.New("tuplespace: truncated wire frame")

// Slice fast-path types not already resolved in tuplespace.go.
var (
	typeInts    = reflect.TypeOf([]int(nil))
	typeFloats  = reflect.TypeOf([]float64(nil))
	typeStrings = reflect.TypeOf([]string(nil))
)

// formalTag maps a formal's type to its one-byte wire code; ok is
// false for types outside the built-in set, which cannot be encoded.
func formalTag(t reflect.Type) (byte, bool) {
	switch t {
	case nil:
		return vNil, true
	case typeInt:
		return vInt, true
	case typeInt64:
		return vInt64, true
	case typeFloat64:
		return vFloat64, true
	case typeString:
		return vString, true
	case typeBool:
		return vBool, true
	case typeBytes:
		return vBytes, true
	case typeInts:
		return vInts, true
	case typeFloats:
		return vFloats, true
	case typeStrings:
		return vStrings, true
	}
	return 0, false
}

// tagFormalType is the inverse of formalTag, indexed by tag byte.
var tagFormalType = [vStrings + 1]reflect.Type{
	vInt: typeInt, vInt64: typeInt64, vFloat64: typeFloat64,
	vString: typeString, vBool: typeBool, vBytes: typeBytes,
	vInts: typeInts, vFloats: typeFloats, vStrings: typeStrings,
}

// appendValue encodes one tuple or template field; a formal in a tuple
// is refused with ErrFormalOut.
func appendValue(b []byte, v any, tuple bool) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case int:
		b = append(b, vInt)
		return binary.AppendVarint(b, int64(x)), nil
	case int64:
		b = append(b, vInt64)
		return binary.AppendVarint(b, x), nil
	case float64:
		b = append(b, vFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, vString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case bool:
		if x {
			return append(b, vBool, 1), nil
		}
		return append(b, vBool, 0), nil
	case []byte:
		b = append(b, vBytes)
		if x == nil {
			return binary.AppendUvarint(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(len(x))+1)
		return append(b, x...), nil
	case []int:
		b = append(b, vInts)
		if x == nil {
			return binary.AppendUvarint(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(len(x))+1)
		for _, e := range x {
			b = binary.AppendVarint(b, int64(e))
		}
		return b, nil
	case []float64:
		b = append(b, vFloats)
		if x == nil {
			return binary.AppendUvarint(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(len(x))+1)
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
		return b, nil
	case []string:
		b = append(b, vStrings)
		if x == nil {
			return binary.AppendUvarint(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(len(x))+1)
		for _, e := range x {
			b = binary.AppendUvarint(b, uint64(len(e)))
			b = append(b, e...)
		}
		return b, nil
	case formal:
		if tuple {
			return nil, ErrFormalOut
		}
		if tag, ok := formalTag(x.t); ok {
			return append(b, vFormal, tag), nil
		}
		return nil, fmt.Errorf("tuplespace: formal of type %v is not wire-encodable", x.t)
	}
	return nil, fmt.Errorf("tuplespace: field type %T is not wire-encodable", v)
}

// appendFields encodes a field list: uvarint count + values. tuple
// marks a tuple to store, which may carry no formal.
func appendFields(b []byte, fields []any, tuple bool) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(fields)))
	var err error
	for _, f := range fields {
		if b, err = appendValue(b, f, tuple); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// wireReader is a bounds-checked cursor over one frame body.
type wireReader struct {
	b []byte
}

func (r *wireReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, errTruncated
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s, nil
}

func (r *wireReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	s, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(s), nil
}

// count reads a uvarint element count and rejects counts that cannot
// fit in the remaining bytes at minSize bytes per element — the guard
// that keeps a corrupt length from becoming a giant allocation.
func (r *wireReader) count(minSize int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)/minSize) {
		return 0, errTruncated
	}
	return int(n), nil
}

// elems reads a count+1-encoded slice length: -1 means a nil slice,
// otherwise the element count, bounds-checked like count.
func (r *wireReader) elems(minSize int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return -1, nil
	}
	if n-1 > uint64(len(r.b)/minSize) {
		return 0, errTruncated
	}
	return int(n - 1), nil
}

// value decodes one field; like appendValue it refuses a formal in a
// tuple. Corrupt input yields an error, never a panic and never an
// unbounded allocation.
func (r *wireReader) value(tuple bool) (any, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vInt:
		v, err := r.varint()
		return int(v), err
	case vInt64:
		return r.varint()
	case vFloat64:
		s, err := r.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(s)), nil
	case vString:
		return r.str()
	case vBool:
		c, err := r.byte()
		return c != 0, err
	case vBytes:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []byte(nil), nil
		}
		s, err := r.take(n - 1)
		if err != nil {
			return nil, err
		}
		// make (not append) so a non-nil empty []byte{} stays non-nil:
		// tuple matching distinguishes nil from empty.
		out := make([]byte, n-1)
		copy(out, s)
		return out, nil
	case vInts:
		n, err := r.elems(1)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return []int(nil), nil
		}
		out := make([]int, n)
		for i := range out {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case vFloats:
		n, err := r.elems(8)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return []float64(nil), nil
		}
		out := make([]float64, n)
		for i := range out {
			s, err := r.take(8)
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s))
		}
		return out, nil
	case vStrings:
		n, err := r.elems(1)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return []string(nil), nil
		}
		out := make([]string, n)
		for i := range out {
			s, err := r.str()
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	case vFormal:
		if tuple {
			return nil, ErrFormalOut
		}
		code, err := r.byte()
		if err != nil {
			return nil, err
		}
		if code == vNil {
			return formal{}, nil
		}
		if int(code) >= len(tagFormalType) || tagFormalType[code] == nil {
			return nil, fmt.Errorf("tuplespace: bad formal type code %d", code)
		}
		return formal{tagFormalType[code]}, nil
	}
	return nil, fmt.Errorf("tuplespace: unknown value tag %d", tag)
}

// fields decodes a field list, a tuple when tuple is set.
func (r *wireReader) fields(tuple bool) ([]any, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = r.value(tuple); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendRequest encodes one request body:
//
//	op(1) flags(1) id(uvarint)
//	[rfTxn]    txn(uvarint: id<<1 | begin bit)
//	[rfTarget] target(uvarint)
//	[rfLease]  lease(varint ns)
//	[rfName]   name(string)
//	[rfTrace]  trace(uvarint) span(uvarint)
//	[rfFields] fields(count + values)
//	[rfBatch]  batch(count + tuples, each count + values)
//	[rfCont]   cont(count + values)
func appendRequest(b []byte, req *request) ([]byte, error) {
	var flags byte
	if len(req.Fields) > 0 {
		flags |= rfFields
	}
	if len(req.Batch) > 0 {
		flags |= rfBatch
	}
	if req.Txn != 0 || req.Begin {
		flags |= rfTxn
	}
	if req.Target != 0 {
		flags |= rfTarget
	}
	if req.Lease != 0 {
		flags |= rfLease
	}
	if req.Name != "" {
		flags |= rfName
	}
	if req.HasCont {
		flags |= rfCont
	}
	if req.Trace != 0 || req.Span != 0 {
		flags |= rfTrace
	}
	b = append(b, req.Op, flags)
	b = binary.AppendUvarint(b, req.ID)
	if flags&rfTxn != 0 {
		txn := req.Txn << 1
		if req.Begin {
			txn |= 1
		}
		b = binary.AppendUvarint(b, txn)
	}
	if flags&rfTarget != 0 {
		b = binary.AppendUvarint(b, req.Target)
	}
	if flags&rfLease != 0 {
		b = binary.AppendVarint(b, req.Lease)
	}
	if flags&rfName != 0 {
		b = binary.AppendUvarint(b, uint64(len(req.Name)))
		b = append(b, req.Name...)
	}
	if flags&rfTrace != 0 {
		b = binary.AppendUvarint(b, req.Trace)
		b = binary.AppendUvarint(b, req.Span)
	}
	var err error
	if flags&rfFields != 0 {
		if b, err = appendFields(b, req.Fields, req.Op == opOut); err != nil {
			return nil, err
		}
	}
	if flags&rfBatch != 0 {
		b = binary.AppendUvarint(b, uint64(len(req.Batch)))
		for _, t := range req.Batch {
			if b, err = appendFields(b, t, true); err != nil {
				return nil, err
			}
		}
	}
	if flags&rfCont != 0 {
		if b, err = appendFields(b, req.Cont, true); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeRequest decodes a frame body into req. The header (op, flags,
// ID) is decoded first, so on a body error the caller still has the ID
// to route an error response to.
func decodeRequest(body []byte, req *request) error {
	r := wireReader{b: body}
	op, err := r.byte()
	if err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	id, err := r.uvarint()
	if err != nil {
		return err
	}
	req.Op, req.ID = op, id
	if flags&rfTxn != 0 {
		txn, err := r.uvarint()
		if err != nil {
			return err
		}
		req.Txn, req.Begin = txn>>1, txn&1 != 0
	}
	if flags&rfTarget != 0 {
		if req.Target, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&rfLease != 0 {
		if req.Lease, err = r.varint(); err != nil {
			return err
		}
	}
	if flags&rfName != 0 {
		if req.Name, err = r.str(); err != nil {
			return err
		}
	}
	if flags&rfTrace != 0 {
		if req.Trace, err = r.uvarint(); err != nil {
			return err
		}
		if req.Span, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&rfFields != 0 {
		if req.Fields, err = r.fields(req.Op == opOut); err != nil {
			return err
		}
	}
	if flags&rfBatch != 0 {
		n, err := r.count(1)
		if err != nil {
			return err
		}
		req.Batch = make([]Tuple, n)
		for i := range req.Batch {
			fs, err := r.fields(true)
			if err != nil {
				return err
			}
			req.Batch[i] = Tuple(fs)
		}
	}
	if flags&rfCont != 0 {
		if req.Cont, err = r.fields(true); err != nil {
			return err
		}
		req.HasCont = true
	}
	if len(r.b) != 0 {
		return fmt.Errorf("tuplespace: %d trailing bytes in request frame", len(r.b))
	}
	return nil
}

// appendResponse encodes one response body:
//
//	id(uvarint) code(1) flags(1)
//	[pfLen]   len(varint)
//	[pfErr]   err(string)
//	[pfTrace] trace(uvarint) span(uvarint)
//	[pfTuple] tuple(count + values)
func appendResponse(b []byte, resp *response) ([]byte, error) {
	var flags byte
	if resp.OK {
		flags |= pfOK
	}
	if resp.Tuple != nil {
		flags |= pfTuple
	}
	if resp.Len != 0 {
		flags |= pfLen
	}
	if resp.Err != "" {
		flags |= pfErr
	}
	if resp.Trace != 0 || resp.Span != 0 {
		flags |= pfTrace
	}
	b = binary.AppendUvarint(b, resp.ID)
	b = append(b, resp.Code, flags)
	if flags&pfLen != 0 {
		b = binary.AppendVarint(b, int64(resp.Len))
	}
	if flags&pfErr != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Err)))
		b = append(b, resp.Err...)
	}
	if flags&pfTrace != 0 {
		b = binary.AppendUvarint(b, resp.Trace)
		b = binary.AppendUvarint(b, resp.Span)
	}
	if flags&pfTuple != 0 {
		var err error
		if b, err = appendFields(b, resp.Tuple, true); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeResponse decodes a frame body into resp.
func decodeResponse(body []byte, resp *response) error {
	r := wireReader{b: body}
	id, err := r.uvarint()
	if err != nil {
		return err
	}
	code, err := r.byte()
	if err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	resp.ID, resp.Code = id, code
	resp.OK = flags&pfOK != 0
	if flags&pfLen != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		resp.Len = int(v)
	}
	if flags&pfErr != 0 {
		if resp.Err, err = r.str(); err != nil {
			return err
		}
	}
	if flags&pfTrace != 0 {
		if resp.Trace, err = r.uvarint(); err != nil {
			return err
		}
		if resp.Span, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&pfTuple != 0 {
		if resp.Tuple, err = r.fields(true); err != nil {
			return err
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("tuplespace: %d trailing bytes in response frame", len(r.b))
	}
	return nil
}

// AppendWireTuples encodes a tuple batch (uvarint count, then each
// tuple as a field list) onto b. The durable WAL uses it so log
// records share the wire codec; see DecodeWireTuples.
func AppendWireTuples(b []byte, tuples []Tuple) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(tuples)))
	var err error
	for _, t := range tuples {
		if b, err = appendFields(b, t, true); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeWireTuples decodes a tuple batch from the head of b, returning
// the remaining bytes. Corrupt input yields an error, never a panic.
func DecodeWireTuples(b []byte) ([]Tuple, []byte, error) {
	r := wireReader{b: b}
	n, err := r.count(1)
	if err != nil {
		return nil, nil, err
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		fs, err := r.fields(true)
		if err != nil {
			return nil, nil, err
		}
		tuples[i] = Tuple(fs)
	}
	return tuples, r.b, nil
}

// writeHandshake sends the protocol banner.
func writeHandshake(w io.Writer) error {
	var h [5]byte
	copy(h[:], wireMagic)
	h[4] = wireVersion
	_, err := w.Write(h[:])
	return err
}

// expectHandshake reads and validates the peer's banner.
func expectHandshake(r io.Reader) error {
	var h [5]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return fmt.Errorf("tuplespace: reading wire handshake: %w", err)
	}
	if string(h[:4]) != wireMagic {
		return fmt.Errorf("tuplespace: bad wire magic %q", h[:4])
	}
	if h[4] != wireVersion {
		return fmt.Errorf("tuplespace: peer speaks wire version %d, this build speaks %d", h[4], wireVersion)
	}
	return nil
}

// writeFrame writes one length-prefixed frame to bw without flushing;
// flush policy (coalescing) belongs to the caller.
func writeFrame(bw *bufio.Writer, body []byte) error {
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(body)))
	if _, err := bw.Write(lb[:n]); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// readFrame reads one frame into *scratch (grown as needed and reused
// across calls — the decode-scratch half of the pooling story; each
// connection's reader goroutine owns its scratch exclusively).
func readFrame(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("tuplespace: %d-byte wire frame exceeds the %d limit", size, maxFrame)
	}
	if uint64(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frameBuffered reports whether br already holds a whole frame, so
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	size, n := binary.Uvarint(b)
	return n > 0 && uint64(len(b)-n) >= size
}

// encBuf is a pooled encode buffer. Both ends encode a frame into one
// outside the connection's write lock; frameWriter.write returns it to
// the pool once the frame is written.
type encBuf struct {
	b []byte
}

// maxPooledBuf keeps one giant tuple from pinning a giant buffer in
// the pool forever.
const maxPooledBuf = 1 << 20

var encBufPool sync.Pool

// getEncBuf returns an empty encode buffer and whether it was a pool
// hit; the caller reports the flag to its codecMetrics (the pool has
// no New so hits and misses are observable).
func getEncBuf() (*encBuf, bool) {
	if v := encBufPool.Get(); v != nil {
		e := v.(*encBuf)
		e.b = e.b[:0]
		return e, true
	}
	return &encBuf{b: make([]byte, 0, 512)}, false
}

func putEncBuf(e *encBuf) {
	if cap(e.b) > maxPooledBuf {
		return
	}
	encBufPool.Put(e)
}

// codecMetrics aggregates the codec's observability: bytes through the
// encoder and decoder and the encode-buffer pool hit rate. A nil
// *codecMetrics (unobserved endpoint) no-ops.
type codecMetrics struct {
	encBytes *obs.Counter
	decBytes *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
}

func newCodecMetrics(reg *obs.Registry) *codecMetrics {
	if reg == nil {
		return nil
	}
	return &codecMetrics{
		encBytes: reg.Counter("codec.enc_bytes"),
		decBytes: reg.Counter("codec.dec_bytes"),
		hits:     reg.Counter("codec.pool_hits"),
		misses:   reg.Counter("codec.pool_misses"),
	}
}

func (m *codecMetrics) enc(n int) {
	if m != nil {
		m.encBytes.Add(int64(n))
	}
}

func (m *codecMetrics) dec(n int) {
	if m != nil {
		m.decBytes.Add(int64(n))
	}
}

func (m *codecMetrics) pool(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
}

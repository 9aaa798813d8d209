package tuplespace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Fuzz targets for the binary wire codec. The decoder's contract is:
// corrupt input yields an error, never a panic and never an
// allocation bomb (element counts are bounds-checked against the
// remaining bytes before any make). On inputs it accepts, encoding is
// a fixpoint: decode → encode → decode → encode must reproduce the
// same bytes, which proves the decoded form loses nothing the encoder
// cares about — without tripping over DeepEqual's blind spots (NaN,
// nil vs empty slices).

// seedRequests are representative frames covering every op shape and
// value tag; they seed the fuzzers and generate the checked-in corpus.
func seedRequests() []*request {
	return []*request{
		{ID: 1, Op: opPing},
		{ID: 2, Op: opHello, Lease: int64(5e9), Name: "worker-1"},
		{ID: 3, Op: opOut, Fields: []any{"k", 7, int64(-9), 3.14, true, []byte{1, 2}, []int{3, 4}, []float64{0.5}, []string{"a", ""}}},
		{ID: 4, Op: opIn, Fields: []any{"k", Formal(0), FormalString, Formal(nil)}, Txn: 9, Trace: 0xabc, Span: 0xdef},
		{ID: 5, Op: opOutN, Batch: []Tuple{{"a", 1}, {"b", nil, []int(nil)}}},
		{ID: 6, Op: opTxCommit, Txn: 2, Batch: []Tuple{{"a", 1}}, HasCont: true, Cont: []any{"cont", 3}},
		{ID: 7, Op: opCancel, Target: 4},
		{ID: 8, Op: opInp, Fields: []any{"p", FormalFloats}},
		// A transaction's first operation carries the begin bit.
		{ID: 9, Op: opIn, Fields: []any{"k", Formal(0)}, Txn: 3, Begin: true},
		{ID: 10, Op: opTxCommit, Txn: 4, Begin: true},
	}
}

func seedResponses() []*response {
	return []*response{
		{ID: 1, OK: true},
		{ID: 2, Tuple: []any{"k", 7, 3.14, []string{"x"}}, OK: true, Trace: 1, Span: 2},
		{ID: 3, Err: "tuplespace: boom", Code: codeGeneric},
		{ID: 4, Code: codeLeaseExpired, Err: ErrLeaseExpired.Error()},
		{ID: 5, OK: true, Len: 42},
		{ID: 6, Tuple: []any{}, OK: true},
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range seedRequests() {
		b, err := appendRequest(nil, req)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if err := decodeRequest(data, &req); err != nil {
			return // rejected, and did not panic: contract held
		}
		b1, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		var req2 request
		if err := decodeRequest(b1, &req2); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		b2, err := appendRequest(nil, &req2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode is not a fixpoint:\n b1=%x\n b2=%x", b1, b2)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range seedResponses() {
		b, err := appendResponse(nil, resp)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp response
		if err := decodeResponse(data, &resp); err != nil {
			return
		}
		b1, err := appendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		var resp2 response
		if err := decodeResponse(b1, &resp2); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		b2, err := appendResponse(nil, &resp2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode is not a fixpoint:\n b1=%x\n b2=%x", b1, b2)
		}
	})
}

var genCorpus = flag.Bool("gen-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// TestGenFuzzCorpus regenerates the checked-in seed corpus from the
// seed frames (run with -gen-corpus). Checked-in seeds let CI's short
// -fuzztime smoke start from meaningful frames instead of rediscovering
// the format from zero each run.
func TestGenFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("run with -gen-corpus to regenerate testdata/fuzz")
	}
	write := func(fuzzName string, i int, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range seedRequests() {
		b, err := appendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzDecodeRequest", i, b)
	}
	for i, resp := range seedResponses() {
		b, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzDecodeResponse", i, b)
	}
}

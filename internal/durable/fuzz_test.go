package durable

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"freepdm/internal/tuplespace"
)

// encodeRecord frames one record exactly as the group-commit pipeline
// does.
func encodeRecord(t testing.TB, rec record) []byte {
	body, err := appendBody(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return appendFrame(nil, body)
}

// FuzzWALTail is the torn-tail property test: whatever bytes a crash
// leaves at the end of a WAL — a partial record, garbage, or even a
// stray well-formed record — Open must recover without panicking, keep
// every record before the tail, and leave the file in a state where a
// second recovery is byte-for-byte stable (the truncation is itself
// durable).
func FuzzWALTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(encodeRecord(f, record{Outs: []tuplespace.Tuple{{"extra", 99}}}))
	f.Add(encodeRecord(f, record{Takes: []tuplespace.Tuple{{"a", 1}}})[:5]) // torn mid-frame
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		d, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Out(context.Background(), "a", 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Out(context.Background(), "b", "two"); err != nil {
			t.Fatal(err)
		}
		gen := generation(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		wf, err := os.OpenFile(walPath(dir, gen), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wf.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := wf.Close(); err != nil {
			t.Fatal(err)
		}

		// First recovery: must not panic or error, and the two committed
		// records must replay — the tail can only append records (which
		// may themselves out or take tuples, when CRC-valid), never
		// corrupt the intact prefix.
		d2, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("recovery with fuzzed tail: %v", err)
		}
		if d2.Replayed() < 2 {
			t.Fatalf("replayed %d records, committed prefix lost", d2.Replayed())
		}
		replayed := d2.Replayed()
		n1, err := d2.Len()
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}

		// Second recovery: the first one truncated any torn tail, so
		// this replay must be identical — recovery is idempotent.
		d3, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		defer d3.Close() //nolint:errcheck
		if d3.Replayed() != replayed {
			t.Fatalf("second recovery replayed %d records, first replayed %d", d3.Replayed(), replayed)
		}
		if n2, _ := d3.Len(); n2 != n1 {
			t.Fatalf("second recovery Len = %d, first = %d", n2, n1)
		}
	})
}

var genCorpus = flag.Bool("gen-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// TestGenFuzzCorpus writes the checked-in WAL-tail seed corpus (run
// with -gen-corpus); see the tuplespace package's equivalent.
func TestGenFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("run with -gen-corpus to regenerate testdata/fuzz")
	}
	seeds := [][]byte{
		{},
		{0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff},
		encodeRecord(t, record{Outs: []tuplespace.Tuple{{"extra", 99}}}),
		encodeRecord(t, record{Takes: []tuplespace.Tuple{{"a", 1}}, Outs: []tuplespace.Tuple{{"c", 3.5}}}),
		encodeRecord(t, record{Takes: []tuplespace.Tuple{{"a", 1}}})[:5],
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALTail")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

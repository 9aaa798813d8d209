package tuplespace

import (
	"errors"
	"testing"
)

// TestCodecBytesNilEmptyRoundTrip pins the reason the []byte count+1
// encoding exists: tuple matching distinguishes a nil []byte from an
// empty []byte{} (see matchField), so both must survive encode→decode
// unchanged — over the wire and through WAL replay.
func TestCodecBytesNilEmptyRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"nil", nil},
		{"empty", []byte{}},
		{"data", []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		b, err := appendValue(nil, tc.in, true)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		r := &wireReader{b: b}
		v, err := r.value(true)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		got, ok := v.([]byte)
		if !ok && v != nil {
			t.Fatalf("%s: decoded %T, want []byte", tc.name, v)
		}
		if (got == nil) != (tc.in == nil) {
			t.Errorf("%s: nil-ness changed through codec: in nil=%v, out nil=%v",
				tc.name, tc.in == nil, got == nil)
		}
		if string(got) != string(tc.in) {
			t.Errorf("%s: content changed: %v -> %v", tc.name, tc.in, got)
		}
		if len(r.b) != 0 {
			t.Errorf("%s: %d trailing bytes after decode", tc.name, len(r.b))
		}
	}
}

// TestCodecFormalOnlyInTemplates: a formal encodes and decodes in a
// template, but an out, outn or commit frame with one fails
// ErrFormalOut on both sides of the codec, so a peer that sends one
// gets a per-request decode error.
func TestCodecFormalOnlyInTemplates(t *testing.T) {
	if _, err := appendRequest(nil, &request{Op: opIn, Fields: []any{"k", FormalInt}}); err != nil {
		t.Fatalf("template with a formal: %v", err)
	}
	for _, req := range []*request{
		{Op: opOut, Fields: []any{"k", FormalInt}},
		{Op: opOutN, Batch: []Tuple{{"k", 1}, {"k", FormalInt}}},
		{Op: opTxCommit, Txn: 1, Batch: []Tuple{{"k", FormalInt}}},
		{Op: opTxCommit, Txn: 1, HasCont: true, Cont: []any{"cont", FormalInt}},
	} {
		if _, err := appendRequest(nil, req); !errors.Is(err, ErrFormalOut) {
			t.Errorf("encode %s with a formal in a tuple: %v, want ErrFormalOut", opName(req.Op), err)
		}
	}
	// Hand-build what an older encoder sent: an out frame whose second
	// field is a formal int.
	frame := []byte{opOut, rfFields, 1, 2, vString, 1, 'k', vFormal, vInt}
	var req request
	if err := decodeRequest(frame, &req); !errors.Is(err, ErrFormalOut) {
		t.Fatalf("decode of an out frame with a formal: %v, want ErrFormalOut", err)
	}
	frame[0] = opIn
	if err := decodeRequest(frame, &req); err != nil {
		t.Fatalf("decode of the same fields as an in template: %v", err)
	}
}

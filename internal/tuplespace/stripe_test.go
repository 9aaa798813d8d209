package tuplespace_test

import (
	"context"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// miningTuples holds one tuple of each signature the mining programs
// use, in the shapes internal/core/tags.go documents.
var miningTuples = []struct {
	name string
	t    tuplespace.Tuple
}{
	{"PLET task", tuplespace.Tuple{core.TagTask, []string{"k"}}},
	{"PLED task", tuplespace.Tuple{core.TagTask, 1, 0, []string{"p"}, []string{"g"}}},
	{"result", tuplespace.Tuple{core.TagResult, 1, 0, []string{"g"}, []float64{1}}},
	{"ctl", tuplespace.Tuple{core.TagCtl, core.CtlExpanded, "k", []string(nil), []string{"g"}, []float64{1}}},
}

// fnv32a is the reference the stripe map and the cluster router's homes
// are pinned to: hash/fnv's 32-bit FNV-1a over the signature.
func fnv32a(sig []byte) uint32 {
	h := fnv.New32a()
	h.Write(sig)
	return h.Sum32()
}

// TestSignatureHashIsFNV1a pins SignatureHash to hash/fnv's New32a, so
// a cluster router's homes stay where they were.
func TestSignatureHashIsFNV1a(t *testing.T) {
	fields := [][]any{
		{},
		{"x"},
		{1, 2.5, true, []byte("b")},
		{"tag", tuplespace.FormalInt, tuplespace.FormalStrings},
	}
	for _, mt := range miningTuples {
		fields = append(fields, mt.t)
	}
	for _, f := range fields {
		sig := tuplespace.Signature(nil, f)
		if got, want := tuplespace.SignatureHash(sig), fnv32a(sig); got != want {
			t.Errorf("SignatureHash(%q) = %#x, FNV-1a = %#x", sig, got, want)
		}
	}
}

// TestStripeMapPinned holds the stripe map to SignatureHash's low bits
// in a live space at every stripe count New can derive, and the four
// mining signatures to four distinct stripes at each of them. The stripe
// a tuple lands in is read off the per-shard gauges, so a seed mixed back
// into the space's hashing fails the comparison with FNV-1a.
func TestStripeMapPinned(t *testing.T) {
	ctx := context.Background()
	for n := 8; n <= 256; n *= 2 {
		s := tuplespace.NewStriped(n)
		reg := obs.NewRegistry()
		s.Observe(reg, nil)
		owner := map[string]string{} // shard gauge -> mining signature
		for _, mt := range miningTuples {
			before := reg.Snapshot().Gauges
			if err := s.Out(ctx, mt.t...); err != nil {
				t.Fatal(err)
			}
			var stripe string
			for name, v := range reg.Snapshot().Gauges {
				if strings.HasPrefix(name, "ts.shard.") && v > before[name] {
					stripe = name
				}
			}
			want := "ts.shard." + strconv.Itoa(int(fnv32a(tuplespace.Signature(nil, mt.t))&uint32(n-1))) + ".tuples"
			if stripe != want {
				t.Errorf("%d stripes: %s tuple landed in %s, FNV-1a says %s", n, mt.name, stripe, want)
			}
			if other, ok := owner[stripe]; ok {
				t.Errorf("%d stripes: %s and %s share %s", n, other, mt.name, stripe)
			}
			owner[stripe] = mt.name
		}
		s.Close()
	}
}

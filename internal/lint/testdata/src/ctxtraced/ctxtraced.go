// Package ctxtraced proves the analyzer understands the Store v2
// ctx-first surface and the traced operation variants: templates are
// read past the leading context argument, the package-level non-ctx
// convenience wrappers resolve with the store as argument zero, and
// the traced ops participate in the tag contract like their plain
// counterparts with their error results checked.
package ctxtraced

import (
	"context"

	"freepdm/internal/tuplespace"
)

// Emit and Take agree on ("job", int) through the ctx-first ops: no
// finding.
func Emit(ctx context.Context, s tuplespace.Store) error {
	return s.Out(ctx, "job", 7)
}

func Take(ctx context.Context, s tuplespace.Store) (tuplespace.Tuple, error) {
	t, _, err := s.InTraced(ctx, "job", tuplespace.FormalInt)
	return t, err
}

// EmitResult and TakeResult disagree on field 1 (float64 vs string):
// both sides of the broken contract are found through the ctx-first
// ops, and the templates are read past the leading context argument.
// EmitResult goes through the package-level wrapper, so the analyzer
// must also skip the store occupying argument zero.
func EmitResult(s tuplespace.Store) error {
	return tuplespace.Out(s, "result", 1.5)
}

func TakeResult(ctx context.Context, s *tuplespace.Space) (tuplespace.Tuple, error) {
	t, _, err := s.InTraced(ctx, "result", tuplespace.FormalString)
	return t, err
}

// Probe leads the traced non-blocking take with a formal string,
// which every Store rejects.
func Probe(ctx context.Context, s *tuplespace.Space) (tuplespace.Tuple, bool, error) {
	t, _, ok, err := s.InpTraced(ctx, tuplespace.FormalString, tuplespace.FormalInt)
	return t, ok, err
}

// DropBatch discards OutN's error result through the wrapper.
func DropBatch(s tuplespace.Store) {
	tuplespace.OutN(s, []tuplespace.Tuple{{"job", 8}})
}

// Package crossshard is what a check's deletion leaves behind. Its
// consumer templates lead with a formal string, which the deleted
// cross-shard check reported; every Store now rejects them at run
// time with ErrCrossTemplate. tuple-contract treats such a template
// as dynamic — it may match any producer, so it is never reported —
// and the old directive, naming a check that no longer exists, is
// reported stale.
package crossshard

import (
	"context"

	"freepdm/internal/tuplespace"
)

// Drain tries to sweep every partition with an any-tag template.
func Drain(s *tuplespace.Space) (int, error) {
	n := 0
	for {
		_, ok, err := s.Inp(context.Background(), tuplespace.FormalString, tuplespace.FormalInt)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// DrainQuietly expects the rejection and still carries the directive
// that silenced the deleted check.
func DrainQuietly(s *tuplespace.Space) (tuplespace.Tuple, bool, error) {
	// lint:ignore cross-shard the ErrCrossTemplate rejection is the point here
	return s.Inp(context.Background(), tuplespace.FormalString, tuplespace.FormalInt)
}

// Package crossshard leads consumer templates with a formal string,
// which names no tag and which every Store rejects with
// ErrCrossTemplate.
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

// DrainQuietly expects the rejection, so the finding is suppressed.
func DrainQuietly(s *tuplespace.Space) (tuplespace.Tuple, bool, error) {
	// lint:ignore cross-shard the ErrCrossTemplate rejection is the point here
	return s.Inp(context.Background(), tuplespace.FormalString, tuplespace.FormalInt)
}

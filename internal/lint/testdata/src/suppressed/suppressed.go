// Package suppressed exercises the ignore directives: a reasoned
// directive suppresses, a reasonless one does not, the repository's
// pre-existing nolint:errcheck convention maps to tuple-errcheck, and
// a directive that names no check or suppresses nothing is reported
// as stale.
package suppressed

import (
	"context"

	"freepdm/internal/tuplespace"
)

// WaitExternal's counterpart lives in another program; the directive
// names the check and gives a reason, so the finding is dropped.
func WaitExternal(s *tuplespace.Space) error {
	// lint:ignore tuple-contract produced by the coordinator process, a separate package
	_, err := s.In(context.Background(), "external", tuplespace.FormalInt)
	return err
}

// WaitUnexplained carries a directive with no reason: it does not
// suppress, and the finding survives into the golden file.
func WaitUnexplained(s *tuplespace.Space) error {
	// lint:ignore tuple-contract
	_, err := s.In(context.Background(), "unexplained", tuplespace.FormalInt)
	return err
}

// Fire discards the Out error under the errcheck convention; the
// directive above it covers the tag no package here consumes.
func Fire(c *tuplespace.Client) {
	// lint:ignore tuple-contract consumed by the coordinator process, a separate package
	c.Out(context.Background(), "fired", 1) //nolint:errcheck
}

// Pair's directives are both stale: the first misspells its check,
// and the Out the second covers has a consumer, so it suppresses
// nothing.
func Pair(s *tuplespace.Space) error {
	// lint:ignore tuple-contracts misspelled
	// lint:ignore tuple-contract left behind when the consumer below was written
	if err := s.Out(context.Background(), "pair", 1); err != nil {
		return err
	}
	_, err := s.In(context.Background(), "pair", tuplespace.FormalInt)
	return err
}

// Package contractbad holds deliberate contract violations for the
// lindalint golden test: a tag typo, an arity drift, and a field-type
// mismatch. testdata is invisible to the go tool, so this package is
// only ever type-checked by the analyzer's own loader.
package contractbad

import (
	"context"

	"freepdm/internal/tuplespace"
)

// CollectTypo spells the "result" tag wrong; the In can never match.
func CollectTypo(s *tuplespace.Space) (int, error) {
	tu, err := s.In(context.Background(), "resutl", tuplespace.FormalInt)
	if err != nil {
		return 0, err
	}
	return tu[1].(int), nil
}

// ProduceResult is the counterpart the typo orphans.
func ProduceResult(s *tuplespace.Space) error {
	return s.Out(context.Background(), "result", 7)
}

// ArityDrift grew the producer a field the consumer never learned of.
func ArityDrift(s *tuplespace.Space) error {
	if err := s.Out(context.Background(), "job", 1, "payload"); err != nil {
		return err
	}
	_, err := s.In(context.Background(), "job", tuplespace.FormalInt)
	return err
}

// TypeDrift sends an int where the consumer expects a string.
func TypeDrift(s *tuplespace.Space) error {
	if err := s.Out(context.Background(), "val", 1); err != nil {
		return err
	}
	_, err := s.In(context.Background(), "val", tuplespace.FormalString)
	return err
}

// StaleCtlTemplate is a consumer left on the four-field control tuple
// after the producer grew the good keys and scores.
func StaleCtlTemplate(s *tuplespace.Space, key string, spilled, goods []string, scores []float64) error {
	if err := s.Out(context.Background(), "ctl", "expanded", key, spilled, goods, scores); err != nil {
		return err
	}
	_, err := s.In(context.Background(), "ctl", tuplespace.FormalString, tuplespace.FormalString, tuplespace.FormalStrings)
	return err
}

// StaleChunkTemplates are a worker and a master left on the chunk-grain
// PLED tuples after the producers grew the level, the chunk number and
// the level's good set. The goodness report goes under "report" here:
// this fixture's "result" tag belongs to the typo case above.
func StaleChunkTemplates(s *tuplespace.Space, parents, good, goods []string, scores []float64) error {
	if err := s.Out(context.Background(), "task", 3, 0, parents, good); err != nil {
		return err
	}
	if _, err := s.In(context.Background(), "task", tuplespace.FormalStrings); err != nil {
		return err
	}
	if err := s.Out(context.Background(), "report", 3, 0, goods, scores); err != nil {
		return err
	}
	_, err := s.In(context.Background(), "report", tuplespace.FormalStrings, tuplespace.FormalFloats)
	return err
}

// StaleKeyTemplates are a worker and a start-up drain left on the
// one-key PLET task after the producer moved to bundles of keys: the
// arity still agrees, the field type does not. The bundle goes under
// "frontier" here: this fixture's "task" tag belongs to the chunk case
// above.
func StaleKeyTemplates(s *tuplespace.Space, keys []string) error {
	if err := s.Out(context.Background(), "frontier", keys); err != nil {
		return err
	}
	if _, err := s.In(context.Background(), "frontier", tuplespace.FormalString); err != nil {
		return err
	}
	_, _, err := s.Inp(context.Background(), "frontier", "\x00poison")
	return err
}

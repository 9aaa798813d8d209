// Package contractok exercises the shapes the contract check must
// accept without a finding: matched pairs, dynamic tags, forwarding
// calls, and Tuple literals with a matching consumer.
package contractok

import (
	"context"

	"freepdm/internal/tuplespace"
)

func RoundTrip(s *tuplespace.Space) (int, error) {
	if err := s.Out(context.Background(), "task", 3); err != nil {
		return 0, err
	}
	tu, err := s.In(context.Background(), "task", tuplespace.FormalInt)
	if err != nil {
		return 0, err
	}
	return tu[1].(int), nil
}

// DynamicTag producers are never reported: the tag is unknowable
// statically, so the call only participates as a potential match.
func DynamicTag(s *tuplespace.Space, name string) error {
	return s.Out(context.Background(), name+"-trial", 1)
}

// Forward spreads an existing tuple and contributes nothing.
func Forward(s *tuplespace.Space, fields tuplespace.Tuple) error {
	return s.Out(context.Background(), fields...)
}

// Batch builds Tuple literals — producers, they exist to be passed to
// OutN — that Drain consumes.
func Batch(s *tuplespace.Space, n int) error {
	batch := make([]tuplespace.Tuple, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, tuplespace.Tuple{"batch", i})
	}
	return s.OutN(context.Background(), batch)
}

func Drain(s *tuplespace.Space) (int, error) {
	n := 0
	for {
		_, ok, err := s.Inp(context.Background(), "batch", tuplespace.FormalInt)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// Report and Collect are the PLET control contract at its six-field
// arity: a task's frontier and its good patterns on one tuple, slices
// against slice formals.
func Report(s *tuplespace.Space, key string, spilled, goods []string, scores []float64) error {
	return s.Out(context.Background(), "ctl", "expanded", key, spilled, goods, scores)
}

func Collect(s *tuplespace.Space) ([]string, error) {
	tu, err := s.In(context.Background(), "ctl", tuplespace.FormalString, tuplespace.FormalString,
		tuplespace.FormalStrings, tuplespace.FormalStrings, tuplespace.FormalFloats)
	if err != nil {
		return nil, err
	}
	return tu[4].([]string), nil
}

// Bundles, Explore and DrainPoison are the PLET task contract: a bundle
// of frontier keys against a slice formal, and the poison bundle a
// start-up drain takes with a slice actual. The two-field "task" shares
// its tag and arity with RoundTrip's; field 1's type tells them apart.
func Bundles(s *tuplespace.Space, bundles [][]string) error {
	tasks := make([]tuplespace.Tuple, len(bundles))
	for i, keys := range bundles {
		tasks[i] = tuplespace.Tuple{"task", keys}
	}
	return s.OutN(context.Background(), tasks)
}

func Explore(s *tuplespace.Space) ([]string, error) {
	tu, err := s.In(context.Background(), "task", tuplespace.FormalStrings)
	if err != nil {
		return nil, err
	}
	return tu[1].([]string), nil
}

func DrainPoison(s *tuplespace.Space) (bool, error) {
	_, ok, err := s.Inp(context.Background(), "task", []string{"\x00poison"})
	return ok, err
}

// Deal, Expand and Union are the PLED contracts at their five-field
// arity: a chunk of a level's good set next to the whole set one way,
// the good children and their scores back, ints and slices against int
// and slice formals. The five-field "task" shares its tag with the
// two-field ones above; neither template matches the other's tuple.
func Deal(s *tuplespace.Space, level int, chunks [][]string, good []string) error {
	tasks := make([]tuplespace.Tuple, len(chunks))
	for i, parents := range chunks {
		tasks[i] = tuplespace.Tuple{"task", level, i, parents, good}
	}
	return s.OutN(context.Background(), tasks)
}

func Expand(s *tuplespace.Space, goods []string, scores []float64) error {
	tu, err := s.In(context.Background(), "task", tuplespace.FormalInt, tuplespace.FormalInt,
		tuplespace.FormalStrings, tuplespace.FormalStrings)
	if err != nil {
		return err
	}
	return s.Out(context.Background(), "result", tu[1].(int), tu[2].(int), goods, scores)
}

func Union(s *tuplespace.Space) ([]string, error) {
	tu, err := s.In(context.Background(), "result", tuplespace.FormalInt, tuplespace.FormalInt,
		tuplespace.FormalStrings, tuplespace.FormalFloats)
	if err != nil {
		return nil, err
	}
	return tu[3].([]string), nil
}

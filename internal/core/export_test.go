package core

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"freepdm/internal/tuplespace"
)

// Test-only exports for the external test package (core_test), which
// has to be external to import the mining packages that import core.

// ExpandTask is expandTask, unobserved.
func ExpandTask(pr Problem, task Pattern, budget int) (goods []string, scores []float64, spilled []string) {
	return expandTask(nil, pr, task, budget)
}

// PLETBudget returns the PLET task grain in force.
func PLETBudget() int { return pletBudget }

// NewToyProblem is the package's toy itemset problem.
func NewToyProblem(n, txnCount int, minSupp float64, seed uint64) Problem {
	return newToyProblem(n, txnCount, minSupp, seed)
}

// ReplayPLED drives the PLED master's scheduling state alone, on one
// goroutine: every key seed and apply release is decoded and evaluated
// inline, as a worker would, and applied in release order. It returns
// the master's results and the number of events it applied.
func ReplayPLED(pr Problem) ([]Result, int, error) {
	dec := pr.(Decoder)
	m := newPLEDMaster(pr, dec)
	queue := m.seed()
	for i := 0; i < len(queue); i++ {
		pat, err := dec.Decode(queue[i])
		if err != nil {
			return nil, 0, err
		}
		if queue, _, err = m.apply(queue[i], pr.Goodness(pat), queue); err != nil {
			return nil, 0, err
		}
	}
	return m.results, m.done, nil
}

// CountingStore decorates a TxnStore with what a program did to it:
// calls by operation, and tuples published by tag, whether through a
// plain Out/OutN or a transaction's commit. In, Rd, Rdp and Len pass
// through uncounted.
type CountingStore struct {
	tuplespace.TxnStore
	Begins, Inps, Commits atomic.Int64

	mu   sync.Mutex
	outs map[string]int
}

// Outs returns a copy of the published-tuple counts by tag.
func (s *CountingStore) Outs() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.outs)
}

func (s *CountingStore) published(tuples ...tuplespace.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outs == nil {
		s.outs = map[string]int{}
	}
	for _, t := range tuples {
		s.outs[fmt.Sprint(t[0])]++
	}
}

func (s *CountingStore) Out(ctx context.Context, fields ...any) error {
	s.published(fields)
	return s.TxnStore.Out(ctx, fields...)
}

func (s *CountingStore) OutN(ctx context.Context, tuples []tuplespace.Tuple) error {
	s.published(tuples...)
	return s.TxnStore.OutN(ctx, tuples)
}

func (s *CountingStore) Inp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	s.Inps.Add(1)
	return s.TxnStore.Inp(ctx, tmpl...)
}

func (s *CountingStore) Begin() (tuplespace.Txn, error) {
	s.Begins.Add(1)
	tx, err := s.TxnStore.Begin()
	if err != nil {
		return nil, err
	}
	return &countingTxn{tx, s}, nil
}

type countingTxn struct {
	tuplespace.Txn
	s *CountingStore
}

func (tx *countingTxn) Inp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	tx.s.Inps.Add(1)
	return tx.Txn.Inp(ctx, tmpl...)
}

func (tx *countingTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	tx.s.Commits.Add(1)
	tx.s.published(outs...)
	return tx.Txn.Commit(ctx, outs)
}

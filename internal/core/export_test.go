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

// ExpandChunk is expandChunk, unobserved.
func ExpandChunk(pr Problem, level int, parents, good []string) (goods []string, scores []float64, err error) {
	return expandChunk(nil, pr, pr.(Decoder), level, parents, good)
}

// LevelParents is the parents field of every task levelTasks deals for
// a level's good set.
func LevelParents(good []string, workers int) [][]string {
	var parents [][]string
	for _, tu := range levelTasks(0, good, workers) {
		parents = append(parents, tu[3].([]string))
	}
	return parents
}

// PLEDChunks is what a PLED run's task and commit counts are a function
// of, read off the sequential results rather than off the program: the
// good set of level k is the root alone at k = 0 and the good patterns
// of length k above it, and a level with a good set is dealt into
// min(len, 2·workers) chunks. It returns the number of such levels and
// of chunks over all of them.
func PLEDChunks(seqRes []Result, workers int) (levels, chunks int) {
	good := map[int]int{0: 1}
	for _, r := range seqRes {
		good[r.Pattern.Len()]++
	}
	for ; good[levels] > 0; levels++ {
		chunks += min(good[levels], 2*workers)
	}
	return levels, chunks
}

// CountingStore decorates a TxnStore with what a program did to it:
// calls by operation, and tuples published by tag, whether through a
// plain Out/OutN or a transaction's commit. In and Len pass through
// uncounted.
type CountingStore struct {
	tuplespace.TxnStore
	Begins, Inps, Rds, Commits atomic.Int64 // Rds counts Rd and Rdp

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

func (s *CountingStore) Rd(ctx context.Context, tmpl ...any) (tuplespace.Tuple, error) {
	s.Rds.Add(1)
	return s.TxnStore.Rd(ctx, tmpl...)
}

func (s *CountingStore) Rdp(ctx context.Context, tmpl ...any) (tuplespace.Tuple, bool, error) {
	s.Rds.Add(1)
	return s.TxnStore.Rdp(ctx, tmpl...)
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

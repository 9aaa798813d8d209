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

// A PLETTask is one task of a PLET run replayed without a store: its
// bundle, what expandTask reports for it, and the patterns it evaluated,
// in order. Spilled is the unexplored stack, top first, before it is
// dealt into bundles; Parent indexes the task that spilled this one in
// PLETTasks' slice, -1 for a seed.
type PLETTask struct {
	Keys      []string
	Goods     []string
	Scores    []float64
	Spilled   []string
	Evaluated []string
	Parent    int
}

// ID is the task's identity on the ctl tuple: its bundle's first key.
func (t PLETTask) ID() string { return t.Keys[0] }

// Spills is the bundles PLETWorker deals the task's unexplored stack
// into.
func (t PLETTask) Spills() [][]string { return deal(t.Spilled, 2) }

// Ctl is the control tuple PLETWorker publishes for the task.
func (t PLETTask) Ctl() tuplespace.Tuple {
	_, ids := taskTuples(t.Spills())
	kind := CtlExpanded
	if len(ids) == 0 {
		kind = CtlPruned
	}
	return tuplespace.Tuple{TagCtl, kind, t.ID(), ids, t.Goods, t.Scores}
}

type evalRecorder struct {
	Problem
	keys []string
}

func (r *evalRecorder) Goodness(pat Pattern) float64 {
	r.keys = append(r.keys, pat.Key())
	return r.Problem.Goodness(pat)
}

// ExpandTask runs one PLET task on its bundle the way PLETWorker does,
// unobserved.
func ExpandTask(pr Problem, keys []string, budget int) PLETTask {
	stack := make([]Pattern, len(keys))
	for i, key := range keys {
		var err error
		if stack[len(keys)-1-i], err = pr.(Decoder).Decode(key); err != nil {
			panic(err) // keys the problem itself made
		}
	}
	rec := &evalRecorder{Problem: pr}
	t := PLETTask{Keys: keys, Parent: -1}
	t.Goods, t.Scores, t.Spilled = expandTask(nil, rec, stack, budget)
	t.Evaluated = rec.keys
	return t
}

// PLETSeeds is the seed bundles RunPLET's master deals the root's
// children into.
func PLETSeeds(pr Problem, workers int) [][]string {
	var keys []string
	for _, c := range pr.Children(pr.Root()) {
		keys = append(keys, c.Key())
	}
	return deal(keys, 2*workers)
}

// PLETTasks replays the task graph of a PLET run: tasks are pure
// functions of their tuples, so one ExpandTask per task, the seeds
// first and every task's spilled bundles behind them, yields it. spill
// is how many bundles a spent budget deals its stack into; the
// program's is 2.
func PLETTasks(pr Problem, workers, budget, spill int) []PLETTask {
	var tasks []PLETTask
	for _, b := range PLETSeeds(pr, workers) {
		tasks = append(tasks, PLETTask{Keys: b, Parent: -1})
	}
	for i := 0; i < len(tasks); i++ {
		parent := tasks[i].Parent
		tasks[i] = ExpandTask(pr, tasks[i].Keys, budget)
		tasks[i].Parent = parent
		for _, b := range deal(tasks[i].Spilled, spill) {
			tasks = append(tasks, PLETTask{Keys: b, Parent: i})
		}
	}
	return tasks
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

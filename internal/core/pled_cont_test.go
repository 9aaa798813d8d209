package core

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// masterHooks is a Space whose transactions call back around the PLED
// master's store operations, on the master's own goroutine: before each
// of its result takes, after each, and after each of its commits (the
// ones that publish task tuples, the seed included — the continuation
// reaches the process table right after the hook returns). A hook that
// calls Server.Kill stops the incarnation at exactly that point: the
// master notices at its next operation.
type masterHooks struct {
	*tuplespace.Space
	beforeTake func()
	took       func(tuplespace.Tuple)
	committed  func(tasks []tuplespace.Tuple)
}

func (s *masterHooks) Begin() (tuplespace.Txn, error) {
	tx, err := s.Space.Begin()
	if err != nil {
		return nil, err
	}
	return &hookedTxn{tx, s}, nil
}

type hookedTxn struct {
	tuplespace.Txn
	s *masterHooks
}

func (tx *hookedTxn) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	if tmpl[0] != TagResult {
		return tx.Txn.InTraced(ctx, tmpl...)
	}
	if tx.s.beforeTake != nil {
		tx.s.beforeTake()
	}
	tu, org, err := tx.Txn.InTraced(ctx, tmpl...)
	if err == nil && tx.s.took != nil {
		tx.s.took(tu)
	}
	return tu, org, err
}

func (tx *hookedTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	err := tx.Txn.Commit(ctx, outs)
	if err == nil && len(outs) > 0 && outs[0][0] == TagTask && tx.s.committed != nil {
		tx.s.committed(outs)
	}
	return err
}

// TestPLEDMasterKillRecovers kills the PLED master at every point the
// level protocol has: right after every one of its commits — the seed
// and every level boundary, the poison's included — and once inside
// every level, with its first report taken and not committed (at a level
// of several chunks that is some of the reports, not all). Every
// incarnation reads the committed continuation and carries on appending
// to the slices the process table and the task tuples in the space still
// alias, while a checkpointer reads both concurrently — under -race that
// is the append-only invariant of pledCont, observed. No evaluation is
// made twice (the workers were not touched, and a master redoes none),
// and the results equal SolveSequential's.
func TestPLEDMasterKillRecovers(t *testing.T) {
	base := newToyProblem(12, 200, 0.04, 91)
	seqRes, st := SolveSequential(base)
	const workers = 2
	levels, _ := PLEDChunks(seqRes, workers)
	p := &countedToy{toyProblem: base}

	space := &masterHooks{Space: tuplespace.New()}
	srv := plinda.NewServerOnStore(space)
	defer srv.Close()
	kill := func() {
		if err := srv.Kill("pled-master"); err != nil {
			t.Error(err)
		}
	}
	var boundary, mid int
	midKilled := map[int]bool{}
	space.committed = func([]tuplespace.Tuple) {
		boundary++
		kill()
	}
	space.took = func(tu tuplespace.Tuple) {
		if level := tu[1].(int); !midKilled[level] {
			midKilled[level] = true
			mid++
			kill()
		}
	}

	done := make(chan struct{})
	var cps sync.WaitGroup
	cps.Add(1)
	go func() {
		defer cps.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := srv.Checkpoint(io.Discard); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	res, err := RunPLED(srv, p, workers)
	close(done)
	cps.Wait()
	if err != nil {
		t.Fatalf("RunPLED with a repeatedly-killed master: %v", err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED-master-kill")
	if boundary != 1+levels || mid != levels {
		t.Errorf("killed the master after %d commits and inside %d levels; the run has the seed, %d levels and a take in each", boundary, mid, levels)
	}
	// The kill after the poison commit finds the master with no store
	// operation left to notice it at: it decodes its log and returns.
	if r := srv.Respawns(); r != boundary+mid-1 {
		t.Errorf("%d kills respawned the master %d times", boundary+mid, r)
	}
	if got := int(p.evals.Load()); got != st.Evaluated {
		t.Errorf("%d evaluations with a killed master, sequential makes %d", got, st.Evaluated)
	}
}

// A continuation of any other shape is a loud error, never a panic: a
// respawned master must not start from a state it cannot trust.
func TestDecodePLEDContRejectsMalformed(t *testing.T) {
	keys, scores := []string{"a", "b"}, []float64{1, 2}
	for name, tu := range map[string]tuplespace.Tuple{
		"empty":                {},
		"arity 1 (blob)":       {[]byte("gob")},
		"arity 3 (event log)":  {keys, scores, false},
		"arity 5":              {keys, scores, 1, 2, 3},
		"arity 7":              {keys, scores, 1, 2, 3, false, 0},
		"keys type":            {[]int{1, 2}, scores, 1, 2, 3, false},
		"scores type":          {keys, []string{"1", "2"}, 1, 2, 3, false},
		"level start type":     {keys, scores, "1", 2, 3, false},
		"level type":           {keys, scores, 1, int64(2), 3, false},
		"chunks type":          {keys, scores, 1, 2, 3.0, false},
		"poisoned type":        {keys, scores, 1, 2, 3, 0},
		"nil fields":           {nil, nil, nil, nil, nil, nil},
		"fewer scores":         {keys, scores[:1], 1, 2, 3, false},
		"fewer keys":           {keys[:1], scores, 1, 2, 3, true},
		"scores for none":      {[]string(nil), scores, 0, 2, 3, false},
		"level start negative": {keys, scores, -1, 2, 3, false},
		"level start past log": {keys, scores, 3, 2, 3, false},
		"level negative":       {keys, scores, 1, -2, 3, false},
		"chunks negative":      {keys, scores, 1, 2, -3, false},
	} {
		var c pledCont
		if err := decodePLEDCont(tu, &c); err == nil {
			t.Errorf("%s: decodePLEDCont(%v) accepted a malformed continuation", name, tu)
		}
	}
	var c pledCont
	if err := decodePLEDCont(tuplespace.Tuple{keys, scores, 1, 2, 3, true}, &c); err != nil {
		t.Fatalf("well-formed continuation rejected: %v", err)
	}
	if len(c.keys) != 2 || c.keys[1] != "b" || c.scores[1] != 2 || c.levelStart != 1 || c.level != 2 || c.chunks != 3 || !c.poisoned {
		t.Fatalf("decoded %+v", c)
	}
	if err := decodePLEDCont(tuplespace.Tuple{keys, scores, 2, 3, 0, true}, &c); err != nil {
		t.Fatalf("the poison commit's continuation (an empty last level) rejected: %v", err)
	}
	if err := decodePLEDCont(tuplespace.Tuple{[]string(nil), []float64(nil), 0, 0, 1, false}, &c); err != nil {
		t.Fatalf("the seed commit's empty log rejected: %v", err)
	}
}

// TestPLEDCommitCostIndependentOfLogLength is the clock-free guard on
// the master's per-level cost: the bytes one continuation commit
// allocates must not grow with the log. Re-encoding the log on every
// commit (the gob blob the slice headers replaced) reads ~30x here.
func TestPLEDCommitCostIndependentOfLogLength(t *testing.T) {
	const commits = 200
	perCommit := func(p *plinda.Proc, n int) (float64, error) {
		cont := pledCont{keys: make([]string, n, n+commits), scores: make([]float64, n, n+commits)}
		for i := range cont.keys {
			cont.keys[i] = strconv.Itoa(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < commits; i++ {
			if err := p.Xstart(); err != nil {
				return 0, err
			}
			cont.levelStart = len(cont.keys)
			cont.keys, cont.scores = append(cont.keys, "k"), append(cont.scores, 1)
			cont.level++
			if err := cont.commit(p); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / commits, nil
	}

	srv := plinda.NewServer()
	defer srv.Close()
	var short, long float64
	err := srv.Spawn("master", func(p *plinda.Proc) (err error) {
		if _, err = perCommit(p, 64); err != nil { // warm-up
			return err
		}
		if short, err = perCommit(p, 64); err != nil {
			return err
		}
		long, err = perCommit(p, 4096)
		return err
	})
	if err == nil {
		err = srv.WaitAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bytes allocated per commit: %.0f at log length 64, %.0f at 4096", short, long)
	if long > 2*short {
		t.Fatalf("a commit allocates %.0f B at log length 4096 against %.0f B at 64: its cost grows with the log", long, short)
	}
}

// callCounter counts every call into a problem, whichever method.
type callCounter struct {
	*toyProblem
	calls atomic.Int64
}

func (p *callCounter) Root() Pattern { p.calls.Add(1); return p.toyProblem.Root() }
func (p *callCounter) Children(pat Pattern) []Pattern {
	p.calls.Add(1)
	return p.toyProblem.Children(pat)
}
func (p *callCounter) Subpatterns(pat Pattern) []Pattern {
	p.calls.Add(1)
	return p.toyProblem.Subpatterns(pat)
}
func (p *callCounter) Goodness(pat Pattern) float64 {
	p.calls.Add(1)
	return p.toyProblem.Goodness(pat)
}
func (p *callCounter) Good(pat Pattern, g float64) bool {
	p.calls.Add(1)
	return p.toyProblem.Good(pat, g)
}
func (p *callCounter) Decode(key string) (Pattern, error) {
	p.calls.Add(1)
	return p.toyProblem.Decode(key)
}

// TestPLEDRespawnedMasterCallsNoProblem pins what O(1) replay means: a
// respawned master reads its continuation and goes straight back to
// taking reports, with no call into the Problem at all — no Children, no
// Subpatterns, no Decode of the log, however long the log is. The master
// is killed as it takes the last report of the third level: every task
// out has been reported, so both workers sit in In(task) and any Problem
// call between the kill and the next incarnation's first take would be
// the master's. Replaying an event log (what this protocol replaced)
// makes one Decode, Children and Subpatterns round per logged key here.
func TestPLEDRespawnedMasterCallsNoProblem(t *testing.T) {
	base := newToyProblem(12, 200, 0.04, 91)
	seqRes, _ := SolveSequential(base)
	const workers, killLevel = 2, 2
	if levels, _ := PLEDChunks(seqRes, workers); levels <= killLevel {
		t.Fatalf("scenario too small: %d levels", levels)
	}
	p := &callCounter{toyProblem: base}

	space := &masterHooks{Space: tuplespace.New()}
	srv := plinda.NewServerOnStore(space)
	defer srv.Close()
	chunks, taken := 1, 0 // of the level the master is collecting
	atKill, atTake := int64(-1), int64(-1)
	space.committed = func(tasks []tuplespace.Tuple) { chunks, taken = len(tasks), 0 }
	space.beforeTake = func() {
		if atKill >= 0 && atTake < 0 {
			atTake = p.calls.Load()
		}
	}
	space.took = func(tu tuplespace.Tuple) {
		if taken++; tu[1].(int) == killLevel && taken == chunks && atKill < 0 {
			atKill = p.calls.Load()
			if err := srv.Kill("pled-master"); err != nil {
				t.Error(err)
			}
		}
	}
	res, err := RunPLED(srv, p, workers)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED-master-kill")
	if srv.Respawns() != 1 || atKill < 0 || atTake < 0 {
		t.Fatalf("the kill missed: %d respawns, calls at the kill %d, at the next take %d", srv.Respawns(), atKill, atTake)
	}
	if atTake != atKill {
		t.Errorf("the respawned master made %d Problem calls before its first take, want none", atTake-atKill)
	}
}

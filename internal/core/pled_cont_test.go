package core

import (
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"

	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// TestPLEDMasterKillRecovers kills the PLED master several times
// mid-run on a local space. Every incarnation replays the committed
// event log and carries on appending to the slices the process table
// still aliases, while a checkpointer reads the committed prefix
// concurrently — under -race that is the append-only invariant of
// pledCont, observed. The results must equal SolveSequential's.
func TestPLEDMasterKillRecovers(t *testing.T) {
	base := newToyProblem(12, 200, 0.04, 91)
	seqRes, st := SolveSequential(base)
	p := &countingProblem{slowProblem: &slowProblem{toyProblem: base, delay: 2 * time.Millisecond}}

	srv := plinda.NewServer()
	defer srv.Close()
	done := make(chan struct{})
	faults := make(chan error, 1)
	go func() {
		defer close(faults)
		for _, share := range []int64{5, 4, 3, 2} {
			for p.evals.Load() < int64(st.Evaluated)/share {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
			if err := srv.Checkpoint(io.Discard); err != nil {
				faults <- err
				return
			}
			if err := srv.Kill("pled-master"); err != nil {
				faults <- err
				return
			}
		}
	}()
	res, err := RunPLED(srv, p, 2)
	close(done)
	if err != nil {
		t.Fatalf("RunPLED with a repeatedly-killed master: %v", err)
	}
	if err := <-faults; err != nil {
		t.Fatalf("checkpoint/kill: %v", err)
	}
	if srv.Respawns() < 1 {
		t.Fatal("the master was never respawned: the kills missed the run")
	}
	t.Logf("master respawned %d times", srv.Respawns())
	sameResults(t, seqRes, res, "sequential", "PLED-master-kill")
}

// A continuation of any other shape is a loud error, never a panic: a
// respawned master must not start from a log it cannot trust.
func TestDecodePLEDContRejectsMalformed(t *testing.T) {
	keys, scores := []string{"a", "b"}, []float64{1, 2}
	for name, tu := range map[string]tuplespace.Tuple{
		"empty":           {},
		"arity 1 (blob)":  {[]byte("gob")},
		"arity 2":         {keys, scores},
		"arity 4":         {keys, scores, false, 0},
		"keys type":       {[]int{1, 2}, scores, false},
		"scores type":     {keys, []string{"1", "2"}, false},
		"poisoned type":   {keys, scores, 0},
		"nil fields":      {nil, nil, nil},
		"fewer scores":    {keys, scores[:1], false},
		"fewer keys":      {keys[:1], scores, true},
		"scores for none": {[]string(nil), scores, false},
	} {
		var c pledCont
		if err := decodePLEDCont(tu, &c); err == nil {
			t.Errorf("%s: decodePLEDCont(%v) accepted a malformed continuation", name, tu)
		}
	}
	var c pledCont
	if err := decodePLEDCont(tuplespace.Tuple{keys, scores, true}, &c); err != nil {
		t.Fatalf("well-formed continuation rejected: %v", err)
	}
	if len(c.keys) != 2 || c.keys[1] != "b" || c.scores[1] != 2 || !c.poisoned {
		t.Fatalf("decoded %+v", c)
	}
	if err := decodePLEDCont(tuplespace.Tuple{[]string(nil), []float64(nil), false}, &c); err != nil {
		t.Fatalf("the seed commit's empty log rejected: %v", err)
	}
}

// TestPLEDCommitCostIndependentOfLogLength is the clock-free guard on
// the master's per-task cost: the bytes one continuation commit
// allocates must not grow with the event log. Re-encoding the log on
// every commit (the gob blob this replaced) reads ~30x here.
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
			cont.keys, cont.scores = append(cont.keys, "k"), append(cont.scores, 1)
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

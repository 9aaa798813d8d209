package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// keyedToy is a countedToy that also counts the calls per key.
type keyedToy struct {
	countedToy
	mu    sync.Mutex
	byKey map[string]int
}

func (p *keyedToy) Goodness(pat Pattern) float64 {
	p.mu.Lock()
	p.byKey[pat.Key()]++
	p.mu.Unlock()
	return p.countedToy.Goodness(pat)
}

// levelOneTasks is the task bag a PLED master commits when the level-0
// report is in: a run's tasks are a function of its input, so a test can
// know them before the run.
func levelOneTasks(t *testing.T, pr *toyProblem, workers int) []tuplespace.Tuple {
	t.Helper()
	root := []string{pr.Root().Key()}
	goods, _, err := expandChunk(nil, pr, pr, 0, root, root)
	if err != nil {
		t.Fatal(err)
	}
	return levelTasks(1, goods, workers)
}

// TestPLEDWorkerKilledMidChunk kills the only worker while it is
// evaluating the first chunk of level 1, on a local Space and over
// per-incarnation dialed sessions. The chunk must vanish and reappear
// whole: when the re-spawned incarnation starts evaluating, the space
// holds no result tuple — not for the patterns the dead incarnation had
// already found good either — only the level's task tuples less the one
// in hand; the run returns exactly SolveSequential's results, and the
// only evaluations made twice are those of the aborted chunk.
func TestPLEDWorkerKilledMidChunk(t *testing.T) {
	const killAt = 2
	for name, backend := range killBackends {
		t.Run(name, func(t *testing.T) {
			base := newToyProblem(10, 200, 0.04, 82)
			seqRes, st := SolveSequential(base)
			tasks := levelOneTasks(t, base, 1)
			rootEvals := int64(len(base.Children(base.Root())))
			// The single worker takes the level's first chunk first (a
			// partition is a FIFO); what it evaluates there:
			first := &keyedToy{byKey: map[string]int{}, countedToy: countedToy{toyProblem: base}}
			goods, _, err := expandChunk(nil, first, base, 1, tasks[0][3].([]string), tasks[0][4].([]string))
			firstEvals := first.evals.Load()
			if err != nil || len(tasks) < 2 || firstEvals <= killAt || len(goods) == 0 {
				t.Fatalf("scenario too small: %d level-1 chunks, the first makes %d evaluations and finds %d good (err %v)",
					len(tasks), firstEvals, len(goods), err)
			}

			mid, respawned := make(chan struct{}), make(chan struct{})
			killed, inspected := make(chan struct{}), make(chan struct{})
			p := &keyedToy{byKey: map[string]int{}}
			p.countedToy = countedToy{toyProblem: base, hook: func(n int64) {
				switch n {
				case rootEvals + killAt: // inside the first chunk
					close(mid)
					<-killed
				case rootEvals + firstEvals + 1: // first evaluation of the re-spawned incarnation
					close(respawned)
					<-inspected
				}
			}}

			srv, space := backend(t)
			defer srv.Close()
			type outcome struct {
				res []Result
				err error
			}
			doneCh := make(chan outcome, 1)
			go func() {
				res, err := RunPLED(srv, p, 1)
				doneCh <- outcome{res, err}
			}()

			<-mid
			if err := srv.Kill("pled-worker-0"); err != nil {
				t.Fatal(err)
			}
			close(killed)
			<-respawned
			// The aborted chunk is back (a dropped session's abort runs
			// on the server's side, so give it a moment) and the
			// re-spawned incarnation holds one chunk tentatively:
			// nothing else may be there.
			waitFor(t, "the aborted chunk to reappear", func() bool {
				n, _ := space.Len()
				return n == len(tasks)-1
			})
			if tu, ok, err := space.Rdp(context.Background(), TagResult, tuplespace.FormalInt, tuplespace.FormalInt,
				tuplespace.FormalStrings, tuplespace.FormalFloats); err != nil || ok {
				t.Errorf("result tuple of the aborted chunk is visible: %v (err %v)", tu, err)
			}
			close(inspected)

			var o outcome
			select {
			case o = <-doneCh:
			case <-time.After(60 * time.Second):
				t.Fatal("PLED run did not finish")
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			sameResults(t, seqRes, o.res, "sequential", "PLED-killed-mid-chunk")
			if srv.Respawns() < 1 {
				t.Error("the kill re-spawned nothing: the scenario asserted nothing")
			}
			if redone := p.evals.Load() - int64(st.Evaluated); redone < 1 || redone > firstEvals {
				t.Errorf("%d evaluations were redone, want at least 1 and at most the aborted chunk's %d", redone, firstEvals)
			}
			for k, n := range p.byKey {
				if n > 1 && first.byKey[k] == 0 {
					t.Errorf("%s was evaluated %d times and is not a candidate of the aborted chunk", k, n)
				}
			}
		})
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pledLog reads the PLED master's committed continuation out of a
// checkpoint of its server.
func pledLog(t *testing.T, srv *plinda.Server) pledCont {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var cp struct{ Continuations map[string]tuplespace.Tuple }
	if err := gob.NewDecoder(&buf).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	var cont pledCont
	if err := decodePLEDCont(cp.Continuations["pled-master"], &cont); err != nil {
		t.Fatal(err)
	}
	return cont
}

// TestPLEDDuplicateResultBatch plants the two kinds of report the master
// must consume and count nowhere, before the run starts. One is a second
// copy of a report a worker will also make — level 1, chunk 1, as an
// interrupted two-phase commit publishes it — so that chunk reports
// twice, and whichever copy comes second is the duplicate (a report is a
// pure function of its task: the copies are equal). The other is a
// report of a level that is not open, carrying a key and a chunk number
// that would show if it were counted. Results, the log (every good key
// once, in a log exactly as long as the result list) and the core.*
// counters must see neither: a chunk counted twice would close its level
// with another chunk's goods missing.
func TestPLEDDuplicateResultBatch(t *testing.T) {
	base := newToyProblem(10, 200, 0.04, 82)
	seqRes, st := SolveSequential(base)
	const workers = 2
	_, chunks := PLEDChunks(seqRes, workers)
	tasks := levelOneTasks(t, base, workers)
	if len(tasks) < 2 {
		t.Fatalf("scenario too small: %d level-1 chunks", len(tasks))
	}
	dupGoods, dupScores, err := expandChunk(nil, base, base, 1, tasks[1][3].([]string), tasks[1][4].([]string))
	if err != nil || len(dupGoods) == 0 {
		t.Fatalf("scenario too small: level 1 chunk 1 reports %v (err %v)", dupGoods, err)
	}

	space := tuplespace.New()
	srv := plinda.NewServerOn(space)
	defer srv.Close()
	reg := obs.NewRegistry()
	SetObserver(reg, nil)
	defer SetObserver(nil, nil)
	ctx := context.Background()
	if err := space.Out(ctx, TagResult, 1, 1, dupGoods, dupScores); err != nil {
		t.Fatal(err)
	}
	if err := space.Out(ctx, TagResult, -1, 0, []string{"{0,1,2,3,4,5,6,7,8,9}"}, []float64{1e9}); err != nil {
		t.Fatal(err)
	}

	res, err := RunPLED(srv, base, workers)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED-duplicate-results")
	cont := pledLog(t, srv)
	if len(cont.keys) != st.Good || !cont.poisoned || cont.levelStart != len(cont.keys) {
		t.Errorf("the final continuation logs %d good keys from %d on, poisoned %v; the traversal finds %d and ends on an empty level",
			len(cont.keys), cont.levelStart, cont.poisoned, st.Good)
	}
	logged := map[string]bool{}
	for _, k := range cont.keys {
		if logged[k] {
			t.Errorf("%s is in the log twice", k)
		}
		logged[k] = true
	}
	c := reg.Snapshot().Counters
	if c["core.tasks"] != int64(chunks) || c["core.results"] != int64(st.Good) || c["core.good"] != int64(st.Good) || c["core.evaluated"] != int64(st.Evaluated) {
		t.Errorf("observer read core.tasks %d, core.results %d, core.good %d, core.evaluated %d; want %d task tuples, %d result and good keys and %d evaluations",
			c["core.tasks"], c["core.results"], c["core.good"], c["core.evaluated"], chunks, st.Good, st.Evaluated)
	}
}

// TestPLEDMasterTerminalFailureIsLoud fails the master for good — a
// result tuple with a score missing — while the workers sit in In(task)
// or evaluate. RunPLED must stop them and report the master's error;
// before runProgram it waited forever for workers that waited forever
// for poison.
func TestPLEDMasterTerminalFailureIsLoud(t *testing.T) {
	base := newToyProblem(6, 120, 0.15, 21)
	space := tuplespace.New()
	srv := plinda.NewServerOn(space)
	defer srv.Close()
	if err := space.Out(context.Background(), TagResult, 0, 0, []string{"{0}", "{1}"}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := RunPLED(srv, &slowProblem{toyProblem: base, delay: time.Millisecond}, 2)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "process pled-master") || !strings.Contains(err.Error(), "malformed result tuple") {
			t.Fatalf("RunPLED returned %v, want the master's terminal error", err)
		}
	case <-time.After(20 * time.Second):
		var procs []string
		for _, pi := range srv.Processes() {
			procs = append(procs, pi.Name+"="+pi.Status.String())
		}
		t.Fatalf("RunPLED hangs on a failed master; procs: %v", procs)
	}
	for _, pi := range srv.Processes() {
		if pi.Status != plinda.Done && pi.Status != plinda.Failed {
			t.Errorf("%s is left %s", pi.Name, pi.Status)
		}
	}
}

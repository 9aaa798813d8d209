package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
	"time"

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

// seedChunks is the task bag a fresh PLED master commits first.
func seedChunks(pr Problem, workers int) [][]string {
	var chunks [][]string
	for _, tu := range chunkTasks(newPLEDMaster(pr, pr.(Decoder)).seed(), 2*workers) {
		chunks = append(chunks, tu[1].([]string))
	}
	return chunks
}

// TestPLEDWorkerKilledMidChunk kills the only worker while it is
// evaluating its first chunk, on a local Space and over per-incarnation
// dialed sessions. The chunk must vanish and reappear whole: when the
// re-spawned incarnation starts evaluating, the space holds no result
// tuple — not for the keys the dead incarnation had already scored
// either — only the seeded chunks less the one in hand; the run returns
// exactly SolveSequential's results, and the only evaluations made twice
// are those of the aborted chunk.
func TestPLEDWorkerKilledMidChunk(t *testing.T) {
	const killAt = 2
	for name, backend := range killBackends {
		t.Run(name, func(t *testing.T) {
			base := newToyProblem(10, 200, 0.04, 82)
			seqRes, st := SolveSequential(base)
			chunks := seedChunks(base, 1)
			// The single worker takes the first seeded chunk first (a
			// partition is a FIFO).
			first := chunks[0]
			if len(chunks) < 2 || len(first) <= killAt {
				t.Fatalf("scenario too small: %d seeded chunks, the first of %d keys", len(chunks), len(first))
			}

			mid, respawned := make(chan struct{}), make(chan struct{})
			killed, inspected := make(chan struct{}), make(chan struct{})
			p := &keyedToy{byKey: map[string]int{}}
			p.countedToy = countedToy{toyProblem: base, hook: func(n int64) {
				switch n {
				case killAt: // inside the first chunk
					close(mid)
					<-killed
				case int64(len(first)) + 1: // first evaluation of the re-spawned incarnation
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
			deadline := time.Now().Add(10 * time.Second)
			for n, _ := space.Len(); n != len(chunks)-1; n, _ = space.Len() {
				if time.Now().After(deadline) {
					t.Fatalf("space holds %d tuples after the abort, want the %d seeded chunks less the one in hand", n, len(chunks))
				}
				time.Sleep(time.Millisecond)
			}
			if tu, ok, err := space.Rdp(context.Background(), TagResult, tuplespace.FormalStrings, tuplespace.FormalFloats); err != nil || ok {
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
			if redone := int(p.evals.Load()) - st.Evaluated; redone < 1 || redone > len(first) {
				t.Errorf("%d evaluations were redone, want at least 1 and at most the aborted chunk's %d", redone, len(first))
			}
			aborted := map[string]bool{}
			for _, k := range first {
				aborted[k] = true
			}
			for k, n := range p.byKey {
				if n > 1 && !aborted[k] {
					t.Errorf("%s was evaluated %d times and is not in the aborted chunk %v", k, n, first)
				}
			}
		})
	}
}

// pledLog reads the PLED master's committed event log out of a
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

// TestPLEDDuplicateResultBatch replays result tuples the way an
// interrupted two-phase commit does — a whole tuple at a time — with
// some of a tuple's keys already classified and some fresh: before the
// run starts the space already holds the result of half of the first
// seeded chunk, so the worker's own report of that chunk is half
// duplicate, and the second chunk's report is in there twice. Only
// fresh keys may reach the event log (each evaluated key once, in a log
// exactly as long as the traversal), or done would outrun sent and the
// master stop with results missing.
func TestPLEDDuplicateResultBatch(t *testing.T) {
	base := newToyProblem(10, 200, 0.04, 82)
	seqRes, st := SolveSequential(base)
	const workers = 2
	chunks := seedChunks(base, workers)
	if len(chunks) < 2 || len(chunks[0]) < 2 {
		t.Fatalf("scenario too small: seeded chunks %v", chunks)
	}
	report := func(keys []string) []float64 {
		scores := make([]float64, len(keys))
		for i, k := range keys {
			pat, err := base.Decode(k)
			if err != nil {
				t.Fatal(err)
			}
			scores[i] = base.Goodness(pat)
		}
		return scores
	}
	space := tuplespace.New()
	srv := plinda.NewServerOn(space)
	defer srv.Close()
	ctx := context.Background()
	half := chunks[0][:len(chunks[0])/2]
	for _, keys := range [][]string{half, chunks[1]} {
		if err := space.Out(ctx, TagResult, keys, report(keys)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := RunPLED(srv, base, workers)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED-duplicate-results")
	cont := pledLog(t, srv)
	if len(cont.keys) != st.Evaluated {
		t.Errorf("the event log holds %d events, the traversal evaluates %d patterns", len(cont.keys), st.Evaluated)
	}
	logged := map[string]bool{}
	for _, k := range cont.keys {
		if logged[k] {
			t.Errorf("%s is in the event log twice", k)
		}
		logged[k] = true
	}

	// The same at the scheduling state: a duplicate event moves nothing.
	m := newPLEDMaster(base, base)
	seeded := m.seed()
	score := report(seeded[:1])[0]
	if _, fresh, err := m.apply(seeded[0], score, nil); err != nil || !fresh {
		t.Fatalf("first result for %s: fresh %v, err %v", seeded[0], fresh, err)
	}
	sent, done, results := m.sent, m.done, len(m.results)
	newKeys, fresh, err := m.apply(seeded[0], score, nil)
	if err != nil || fresh || len(newKeys) != 0 || m.sent != sent || m.done != done || len(m.results) != results {
		t.Errorf("duplicate result for %s: fresh %v, queued %v, sent %d→%d, done %d→%d, results %d→%d, err %v",
			seeded[0], fresh, newKeys, sent, m.sent, done, m.done, results, len(m.results), err)
	}
}

// TestPLEDMasterTerminalFailureIsLoud fails the master for good — a
// result tuple whose key no Decoder accepts — while both workers sit in
// In(task). RunPLED must stop them and report the master's error; before
// runProgram it waited forever for workers that waited forever for
// poison.
func TestPLEDMasterTerminalFailureIsLoud(t *testing.T) {
	base := newToyProblem(6, 120, 0.15, 21)
	space := tuplespace.New()
	srv := plinda.NewServerOn(space)
	defer srv.Close()
	if err := space.Out(context.Background(), TagResult, []string{"{not-an-item}"}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := RunPLED(srv, &slowProblem{toyProblem: base, delay: time.Millisecond}, 2)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "process pled-master") {
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

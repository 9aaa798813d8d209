package core

import (
	"context"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// withPLETBudget sets the PLET task grain for the rest of one test.
// Workers read it when PLETWorker builds their body, so it must be set
// before RunPLET; tests that use it do not run in parallel.
func withPLETBudget(t *testing.T, budget int) {
	t.Helper()
	old := pletBudget
	pletBudget = budget
	t.Cleanup(func() { pletBudget = old })
}

// A faultGrain is a PLET task grain a fault suite runs at, with a toy
// problem sized for it. The suites run twice: at budget 1, one
// transaction per pattern, on the small trees they were written for —
// the densest protocol, where a fault has the most transaction
// boundaries to land on — and at the default budget on a tree of ~3.5k
// patterns, large enough that bundles still spill (10–14 worker
// transactions a run, two or three of them a full budget) so faults land
// between and inside real batches.
// Every "the fault actually fired" assertion holds at both.
type faultGrain struct {
	budget int
	toy    func(seed uint64) *toyProblem
	delay  time.Duration // per Goodness call, so a run outlasts the choreography
}

var (
	grainBudget1 = faultGrain{1, func(seed uint64) *toyProblem { return newToyProblem(6, 120, 0.15, seed) }, 2 * time.Millisecond}
	grainDefault = faultGrain{pletBudget, func(seed uint64) *toyProblem { return newToyProblem(20, 400, 0.005, seed) }, 100 * time.Microsecond}
)

// problem sets the grain's budget for the test and returns its toy
// problem, bare (for the sequential reference) and slowed and counted
// (for the PLET run).
func (g faultGrain) problem(t *testing.T, seed uint64) (*toyProblem, *countingProblem) {
	t.Helper()
	withPLETBudget(t, g.budget)
	base := g.toy(seed)
	return base, &countingProblem{slowProblem: &slowProblem{toyProblem: base, delay: g.delay}}
}

// countedToy counts Goodness calls without slowing them down and, when
// hook is set, calls it with the running number of each call before
// evaluating, so a test can stop a (single) worker at an exact point of
// its local expansion.
type countedToy struct {
	*toyProblem
	evals atomic.Int64
	hook  func(n int64)
}

func (p *countedToy) Goodness(pat Pattern) float64 {
	if n := p.evals.Add(1); p.hook != nil {
		p.hook(n)
	}
	return p.toyProblem.Goodness(pat)
}

// TestPLETGrainGuard is the clock-free guard on the PLET task grain: at
// every budget a run evaluates exactly the E-tree (nothing missed,
// nothing evaluated twice), returns SolveSequential's results and
// commits exactly twice per task (worker and master) plus the seed and
// the poison exits; at budget 1 a task is a pattern, which is the
// protocol the grain replaced, and at the default it commits at most
// once per eight patterns. A change that quietly puts the per-pattern
// round trip, or a transaction of its own for the poison, back fails
// here, on any machine.
func TestPLETGrainGuard(t *testing.T) {
	base := newToyProblem(16, 400, 0.005, 82)
	seqRes, _ := SolveSequential(base)
	_, ett := SolveETTSequential(base)
	if ett.Evaluated < 64*8 {
		t.Fatalf("E-tree has %d nodes: too small to tell the grains apart", ett.Evaluated)
	}
	const workers = 3
	for _, tc := range []struct {
		name   string
		budget int
	}{{"budget=1", 1}, {"budget=7", 7}, {"default", pletBudget}, {"unbounded", math.MaxInt}} {
		t.Run(tc.name, func(t *testing.T) {
			withPLETBudget(t, tc.budget)
			p := &countedToy{toyProblem: base}
			srv := plinda.NewServer()
			defer srv.Close()
			res, err := RunPLET(srv, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, seqRes, res, "sequential", "PLET")
			if got := int(p.evals.Load()); got != ett.Evaluated {
				t.Errorf("PLET evaluated %d patterns, the E-tree has %d", got, ett.Evaluated)
			}
			// One worker and one master transaction per task (the last
			// control transaction publishes the poison), the master's
			// seed, and each worker's poison exit.
			commits, tasks := srv.Commits(), pletTasks(base, workers, tc.budget)
			t.Logf("%d evaluations, %d tasks, %d commits", ett.Evaluated, tasks, commits)
			if want := 2*tasks + 1 + workers; commits != want {
				t.Errorf("%d tasks made %d commits, the protocol makes %d", tasks, commits, want)
			}
			switch tc.name {
			case "budget=1":
				if tasks != ett.Evaluated {
					t.Errorf("budget 1 made %d tasks for %d patterns, the per-pattern protocol makes one each", tasks, ett.Evaluated)
				}
			case "default":
				if commits > ett.Evaluated/8 {
					t.Errorf("default grain made %d commits for %d evaluations, want at most one per 8", commits, ett.Evaluated)
				}
			}
		})
	}
}

// killBackends are the stores the killed-mid-transaction tests run on: a
// local Space, and one dialed session per incarnation to a served Space,
// where a kill drops the session and the server's side aborts.
var killBackends = map[string]func(*testing.T) (*plinda.Server, *tuplespace.Space){
	"space": func(t *testing.T) (*plinda.Server, *tuplespace.Space) {
		space := tuplespace.New()
		return plinda.NewServerOn(space), space
	},
	"remote-dial": func(t *testing.T) (*plinda.Server, *tuplespace.Space) {
		space := tuplespace.New()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close(); space.Close() }) //nolint:errcheck
		go tuplespace.ServeTCP(ln, space)               //nolint:errcheck
		return plinda.NewServerRemote(func() (tuplespace.TxnStore, error) {
			return tuplespace.DialOpts(ln.Addr().String(), tuplespace.DialOptions{
				DialTimeout: time.Second,
				OpTimeout:   2 * time.Second,
				Lease:       2 * time.Second,
			})
		}), space
	},
}

// TestPLETWorkerKilledMidBatch kills the only worker while it is inside
// the local expansion of its first batch, on a local Space and over
// per-incarnation dialed sessions. The batch must vanish whole and its
// bundle reappear whole: when the re-spawned incarnation starts
// evaluating, the space holds no ctl and no spilled bundle of the
// aborted batch — only the seeded bundles, every key of the aborted one
// among them again — and the run still returns exactly SolveSequential's
// results, having redone the aborted batch and nothing else: at most one
// budget of work. The observer counts what committed, not what was
// attempted: core.tasks is the run's task tuples and core.good its good
// patterns, exactly, the aborted batch in neither.
func TestPLETWorkerKilledMidBatch(t *testing.T) {
	const budget, killAt = 16, 5
	for name, backend := range killBackends {
		t.Run(name, func(t *testing.T) {
			withPLETBudget(t, budget)
			base := newToyProblem(8, 120, 0.06, 82)
			seqRes, _ := SolveSequential(base)
			_, ett := SolveETTSequential(base)

			// The single worker takes the first seeded bundle first (a
			// partition is a FIFO); what that batch would have
			// committed, had it lived:
			tasks := PLETTasks(base, 1, budget, 2)
			seeds, first := [][]string{tasks[0].Keys, tasks[1].Keys}, tasks[0]
			firstEvals := int64(len(first.Evaluated))
			if tasks[1].Parent != -1 || len(first.Keys) < 2 || firstEvals <= killAt || len(first.Goods) == 0 || len(first.Spilled) == 0 {
				t.Fatalf("scenario too small: seeds %v, first batch makes %d evaluations, %d goods, %d spilled keys",
					seeds, firstEvals, len(first.Goods), len(first.Spilled))
			}

			mid, respawned := make(chan struct{}), make(chan struct{})
			killed, inspected := make(chan struct{}), make(chan struct{})
			p := &countedToy{toyProblem: base, hook: func(n int64) {
				switch n {
				case killAt: // inside the first batch
					close(mid)
					<-killed
				case firstEvals + 1: // first evaluation of the re-spawned incarnation
					close(respawned)
					<-inspected
				}
			}}

			reg := obs.NewRegistry()
			SetObserver(reg, nil)
			defer SetObserver(nil, nil)
			srv, space := backend(t)
			defer srv.Close()
			type outcome struct {
				res []Result
				err error
			}
			doneCh := make(chan outcome, 1)
			go func() {
				res, err := RunPLET(srv, p, 1)
				doneCh <- outcome{res, err}
			}()

			<-mid
			if err := srv.Kill("plet-worker-0"); err != nil {
				t.Fatal(err)
			}
			close(killed)
			<-respawned
			// The aborted bundle is back (a dropped session's abort runs on
			// the server's side, so give it a moment) and the re-spawned
			// incarnation holds one bundle tentatively: nothing else may
			// be there.
			deadline := time.Now().Add(10 * time.Second)
			for n, _ := space.Len(); n != len(seeds)-1; n, _ = space.Len() {
				if time.Now().After(deadline) {
					t.Fatalf("space holds %d tuples after the abort, want the %d seeded bundles less the one in hand", n, len(seeds))
				}
				time.Sleep(time.Millisecond)
			}
			ctx := context.Background()
			if tu, ok, err := space.Rdp(ctx, TagTask, tuplespace.FormalStrings); err != nil || !ok ||
				!slices.ContainsFunc(seeds, func(b []string) bool { return slices.Equal(b, tu[1].([]string)) }) {
				t.Errorf("the task left in the space is %v (ok %v, err %v), want one of the seeded bundles %v, whole", tu, ok, err, seeds)
			}
			if tu, ok, err := space.Rdp(ctx, TagCtl, tuplespace.FormalString, tuplespace.FormalString,
				tuplespace.FormalStrings, tuplespace.FormalStrings, tuplespace.FormalFloats); err != nil || ok {
				t.Errorf("control tuple of the aborted batch is visible: %v (err %v)", tu, err)
			}
			for _, b := range first.Spills() {
				if _, ok, err := space.Rdp(ctx, TagTask, b); err != nil || ok {
					t.Errorf("spilled bundle %v of the aborted batch is visible (err %v)", b, err)
				}
			}
			close(inspected)

			var o outcome
			select {
			case o = <-doneCh:
			case <-time.After(60 * time.Second):
				t.Fatal("PLET run did not finish")
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			sameResults(t, seqRes, o.res, "sequential", "PLET-killed-mid-batch")
			eachResultOnce(t, o.res)
			if srv.Respawns() < 1 {
				t.Error("the kill re-spawned nothing: the scenario asserted nothing")
			}
			if redone := p.evals.Load() - int64(ett.Evaluated); redone != firstEvals || redone > budget {
				t.Errorf("%d evaluations were redone, want the aborted batch's %d (at most one budget, %d)", redone, firstEvals, budget)
			}
			c := reg.Snapshot().Counters
			if tasks := int64(pletTasks(base, 1, budget)); c["core.tasks"] != tasks || c["core.good"] != int64(ett.Good) || c["core.results"] != int64(ett.Good) {
				t.Errorf("observer read core.tasks %d, core.good %d, core.results %d; want the run's %d task tuples and %d good patterns, the aborted batch not counted",
					c["core.tasks"], c["core.good"], c["core.results"], tasks, ett.Good)
			}
		})
	}
}

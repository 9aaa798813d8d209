package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

func testData(t *testing.T, name string, seed int64) (*dataset.Dataset, []int, []int) {
	t.Helper()
	d, err := dataset.Benchmark(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	train, test := d.StratifiedHalves(rng)
	return d, train, test
}

func samePredictions(t *testing.T, d *dataset.Dataset, test []int,
	a, b func(vals []float64) int, la, lb string) {
	t.Helper()
	for _, i := range test {
		if pa, pb := a(d.Instances[i].Vals), b(d.Instances[i].Vals); pa != pb {
			t.Fatalf("%s and %s disagree on case %d: %d vs %d", la, lb, i, pa, pb)
		}
	}
}

// nyuMinerCVMatchesSequential runs Parallel NyuMiner-CV on srv and
// holds it to the sequential CVPrune result for the same folds.
func nyuMinerCVMatchesSequential(t *testing.T, srv *plinda.Server) {
	t.Helper()
	d, train, test := testData(t, "diabetes", 31)
	cfg := nyuminer.Config{}
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree {
		return nyuminer.Grow(dd, ii, cfg)
	}
	seqPT, _ := classify.CVPrune(d, train, 4, grow, rand.New(rand.NewSource(99)))

	parPT, err := NyuMinerCV(srv, d, train, 4, 3, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if parPT.LeafCount != seqPT.LeafCount || parPT.Resub != seqPT.Resub {
		t.Fatalf("selected subtree differs: parallel (%d leaves, %d errs) vs sequential (%d, %d)",
			parPT.LeafCount, parPT.Resub, seqPT.LeafCount, seqPT.Resub)
	}
	samePredictions(t, d, test, parPT.Classify, seqPT.Classify, "parallel", "sequential")
}

func TestParallelNyuMinerCVMatchesSequential(t *testing.T) {
	srv := plinda.NewServer()
	defer srv.Close()
	nyuMinerCVMatchesSequential(t, srv)
}

// The same program with every process on its own dialed session to a
// served space: each tuple field crosses the wire codec, which carries
// no custom types — the fold curve must travel as plain slices.
func TestParallelNyuMinerCVOverDial(t *testing.T) {
	space := tuplespace.New()
	defer space.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go tuplespace.Serve(ln, space) //nolint:errcheck

	srv := plinda.NewServerRemote(func() (tuplespace.TxnStore, error) {
		return tuplespace.Dial(ln.Addr().String())
	})
	defer srv.Close()
	nyuMinerCVMatchesSequential(t, srv)
}

func TestParallelC45MatchesSequential(t *testing.T) {
	d, train, test := testData(t, "vote", 32)
	seqTree := c45.TrainTrialsSeeded(d, train, 4, 500)

	srv := plinda.NewServer()
	defer srv.Close()
	parTree, err := C45Trials(srv, d, train, 4, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, d, test, parTree.Classify, seqTree.Classify, "parallel", "sequential")
}

func TestParallelNyuMinerRSMatchesSequential(t *testing.T) {
	d, train, test := testData(t, "diabetes", 33)
	cfg := nyuminer.Config{}
	seqRL := nyuminer.TrainRSSeeded(d, train, 3, 0.7, 0.02, cfg, 700)

	srv := plinda.NewServer()
	defer srv.Close()
	parRL, err := NyuMinerRS(srv, d, train, 3, 2, 0.7, 0.02, cfg, 700)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRL.Rules) != len(seqRL.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(parRL.Rules), len(seqRL.Rules))
	}
	a := func(v []float64) int { c, _ := parRL.Classify(v); return c }
	b := func(v []float64) int { c, _ := seqRL.Classify(v); return c }
	samePredictions(t, d, test, a, b, "parallel", "sequential")
}

var errReportTake = errors.New("injected: report take fails")

// failTakeStore fails every transactional In of one tag with a
// non-transient error, which no respawn retries.
type failTakeStore struct {
	tuplespace.TxnStore
	tag string
}

func (s failTakeStore) Begin() (tuplespace.Txn, error) {
	tx, err := s.TxnStore.Begin()
	if err != nil {
		return nil, err
	}
	return failTakeTxn{tx, s.tag}, nil
}

type failTakeTxn struct {
	tuplespace.Txn
	tag string
}

func (t failTakeTxn) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	if tmpl[0] == t.tag {
		return nil, obs.SpanContext{}, errReportTake
	}
	return t.Txn.InTraced(ctx, tmpl...)
}

// TestParallelMasterFailureIsLoud fails each program's master for good
// on its first take of a worker's report. The program must stop its
// workers and return the master's error: waiting for every process
// would leave the workers blocked on a task tuple that never comes.
func TestParallelMasterFailureIsLoud(t *testing.T) {
	d, train, _ := testData(t, "vote", 35)
	for _, tc := range []struct {
		program, reportTag string
		run                func(*plinda.Server) error
	}{
		{"nmcv", "nmcv-report", func(srv *plinda.Server) error {
			_, err := NyuMinerCV(srv, d, train, 4, 2, nyuminer.Config{}, rand.New(rand.NewSource(1)))
			return err
		}},
		{"pc45", "pc45-report", func(srv *plinda.Server) error {
			_, err := C45Trials(srv, d, train, 4, 2, 500)
			return err
		}},
		{"nmrs", "nmrs-report", func(srv *plinda.Server) error {
			_, err := NyuMinerRS(srv, d, train, 3, 2, 0.7, 0.02, nyuminer.Config{}, 700)
			return err
		}},
	} {
		t.Run(tc.program, func(t *testing.T) {
			srv := plinda.NewServerOnStore(failTakeStore{tuplespace.New(), tc.reportTag})
			defer srv.Close()
			errCh := make(chan error, 1)
			go func() { errCh <- tc.run(srv) }()
			select {
			case err := <-errCh:
				if !errors.Is(err, errReportTake) || !strings.Contains(err.Error(), tc.program+"-master") {
					t.Fatalf("got %v, want the master's terminal error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s hangs on a failed master; procs: %v", tc.program, srv.Processes())
			}
			for _, pi := range srv.Processes() {
				if pi.Status != plinda.Done && pi.Status != plinda.Failed {
					t.Errorf("%s is left %s", pi.Name, pi.Status)
				}
			}
		})
	}
}

// takeKiller decorates the store of a farm program. It counts the
// workers' takes of the program's real tasks, and kills victim right
// after every k-th take of a tuple tagged tag, at most kills times. The
// kill lands inside the transaction that made the take, before the
// taker's next operation, so that transaction aborts and everything it
// took comes back.
type takeKiller struct {
	srv                  *plinda.Server
	program, tag, victim string
	k, kills             int32
	tasks, takes, fired  atomic.Int32
}

func (w *takeKiller) wrap(s tuplespace.TxnStore) tuplespace.TxnStore { return killerStore{s, w} }

type killerStore struct {
	tuplespace.TxnStore
	w *takeKiller
}

func (s killerStore) Begin() (tuplespace.Txn, error) {
	tx, err := s.TxnStore.Begin()
	if err != nil {
		return nil, err
	}
	return killerTxn{tx, s.w}, nil
}

type killerTxn struct {
	tuplespace.Txn
	w *takeKiller
}

func (tx killerTxn) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	tu, org, err := tx.Txn.InTraced(ctx, tmpl...)
	if err != nil {
		return tu, org, err
	}
	w := tx.w
	if tu[0] == w.program+"-task" && tu[1].(int) >= 0 {
		w.tasks.Add(1)
	}
	if tu[0] == w.tag && w.takes.Add(1)%w.k == 0 && w.fired.Load() < w.kills {
		w.fired.Add(1)
		if err := w.srv.Kill(w.victim); err != nil {
			return nil, obs.SpanContext{}, err
		}
	}
	return tu, org, nil
}

// killBackends are the stores the kill tests run on, each decorated by
// wrap: a local Space, and one dialed session per process incarnation
// to a served Space, where a kill drops the session and the serving
// side aborts its transaction.
var killBackends = map[string]func(*testing.T, func(tuplespace.TxnStore) tuplespace.TxnStore) *plinda.Server{
	"space": func(_ *testing.T, wrap func(tuplespace.TxnStore) tuplespace.TxnStore) *plinda.Server {
		return plinda.NewServerOnStore(wrap(tuplespace.New()))
	},
	"dial": func(t *testing.T, wrap func(tuplespace.TxnStore) tuplespace.TxnStore) *plinda.Server {
		space := tuplespace.New()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close(); space.Close() }) //nolint:errcheck
		go tuplespace.Serve(ln, space)                  //nolint:errcheck
		return plinda.NewServerRemote(func() (tuplespace.TxnStore, error) {
			cl, err := tuplespace.Dial(ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return wrap(cl), nil
		})
	},
}

// within runs a program and fails the test if it errs or has not
// returned after 10 s.
func within(t *testing.T, srv *plinda.Server, run func() error) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- run() }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the program hangs; procs: %v", srv.Processes())
	}
}

func samePrunedTree(t *testing.T, d *dataset.Dataset, test []int, got, want *classify.PrunedTree) {
	t.Helper()
	if got.LeafCount != want.LeafCount || got.Resub != want.Resub {
		t.Fatalf("selected subtree differs: parallel (%d leaves, %d errs) vs sequential (%d, %d)",
			got.LeafCount, got.Resub, want.LeafCount, want.Resub)
	}
	samePredictions(t, d, test, got.Classify, want.Classify, "parallel", "sequential")
}

// TestParallelCVSurvivesWorkerFailure kills NyuMiner-CV's one worker
// right after its k-th task take, for every k. Its transaction aborts,
// so the task comes back whole, the respawned worker runs it again, and
// the result is still CVPrune's.
func TestParallelCVSurvivesWorkerFailure(t *testing.T) {
	d, train, test := testData(t, "diabetes", 34)
	cfg := nyuminer.Config{}
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return nyuminer.Grow(dd, ii, cfg) }
	const v = 4
	want, _ := classify.CVPrune(d, train, v, grow, rand.New(rand.NewSource(1)))
	for k := int32(1); k <= v; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			w := &takeKiller{program: "nmcv", tag: "nmcv-task", victim: "nmcv-worker-0", k: k, kills: 1}
			srv := killBackends["space"](t, w.wrap)
			defer srv.Close()
			w.srv = srv
			var got *classify.PrunedTree
			within(t, srv, func() (err error) {
				got, err = NyuMinerCV(srv, d, train, v, 1, cfg, rand.New(rand.NewSource(1)))
				return err
			})
			samePrunedTree(t, d, test, got, want)
			if srv.Respawns() != 1 || w.tasks.Load() != v+1 {
				t.Errorf("%d respawns and %d task takes, want the one killed worker respawned and its task taken twice (%d takes)",
					srv.Respawns(), w.tasks.Load(), v+1)
			}
		})
	}
}

// TestParallelMasterKillSweep kills each chapter 6 program's master
// right after its k-th report take, for every k, once or twice a run
// (the second time at the respawn's k-th take). Each kill aborts the
// master's collecting transaction, so every report it took comes back;
// the respawn recovers its seed's continuation and seeds nothing. The
// run must return its sequential twin's result, and the workers must
// have taken each task exactly once.
func TestParallelMasterKillSweep(t *testing.T) {
	cfg := nyuminer.Config{}
	cvD, cvTrain, cvTest := testData(t, "diabetes", 31)
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return nyuminer.Grow(dd, ii, cfg) }
	seqPT, _ := classify.CVPrune(cvD, cvTrain, 4, grow, rand.New(rand.NewSource(99)))
	c45D, c45Train, c45Test := testData(t, "vote", 32)
	seqTree := c45.TrainTrialsSeeded(c45D, c45Train, 4, 500)
	rsD, rsTrain, rsTest := testData(t, "diabetes", 33)
	seqRL := nyuminer.TrainRSSeeded(rsD, rsTrain, 3, 0.7, 0.02, cfg, 700)

	// A tree does not cross the wire codec, so only NyuMiner-CV, whose
	// reports are plain slices, also runs over dialed sessions.
	for _, tc := range []struct {
		program  string
		tasks    int32
		backends []string
		run      func(*plinda.Server) (check func(*testing.T), err error)
	}{
		{"nmcv", 4, []string{"space", "dial"}, func(srv *plinda.Server) (func(*testing.T), error) {
			pt, err := NyuMinerCV(srv, cvD, cvTrain, 4, 3, cfg, rand.New(rand.NewSource(99)))
			return func(t *testing.T) { samePrunedTree(t, cvD, cvTest, pt, seqPT) }, err
		}},
		{"pc45", 4, []string{"space"}, func(srv *plinda.Server) (func(*testing.T), error) {
			tree, err := C45Trials(srv, c45D, c45Train, 4, 2, 500)
			return func(t *testing.T) {
				samePredictions(t, c45D, c45Test, tree.Classify, seqTree.Classify, "parallel", "sequential")
			}, err
		}},
		{"nmrs", 3, []string{"space"}, func(srv *plinda.Server) (func(*testing.T), error) {
			rl, err := NyuMinerRS(srv, rsD, rsTrain, 3, 2, 0.7, 0.02, cfg, 700)
			return func(t *testing.T) {
				if len(rl.Rules) != len(seqRL.Rules) {
					t.Fatalf("rule counts differ: %d vs %d", len(rl.Rules), len(seqRL.Rules))
				}
				a := func(v []float64) int { c, _ := rl.Classify(v); return c }
				b := func(v []float64) int { c, _ := seqRL.Classify(v); return c }
				samePredictions(t, rsD, rsTest, a, b, "parallel", "sequential")
			}, err
		}},
	} {
		for _, backend := range tc.backends {
			for kills := int32(1); kills <= 2; kills++ {
				for k := int32(1); k <= tc.tasks; k++ {
					t.Run(fmt.Sprintf("%s/%s/kills=%d/k=%d", tc.program, backend, kills, k), func(t *testing.T) {
						w := &takeKiller{program: tc.program, tag: tc.program + "-report", victim: tc.program + "-master", k: k, kills: kills}
						srv := killBackends[backend](t, w.wrap)
						defer srv.Close()
						w.srv = srv
						var check func(*testing.T)
						within(t, srv, func() (err error) {
							check, err = tc.run(srv)
							return err
						})
						check(t)
						if w.fired.Load() != kills || srv.Respawns() != int(kills) {
							t.Errorf("%d kills and %d respawns, want %d of each", w.fired.Load(), srv.Respawns(), kills)
						}
						if got := w.tasks.Load(); got != tc.tasks {
							t.Errorf("the workers took %d tasks, want each of the %d once: a respawned master seeded again", got, tc.tasks)
						}
					})
				}
			}
		}
	}
}

func TestSingleWorkerDegenerate(t *testing.T) {
	d, train, _ := testData(t, "vote", 35)
	srv := plinda.NewServer()
	defer srv.Close()
	tree, err := C45Trials(srv, d, train, 1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil {
		t.Fatal("nil tree")
	}
}

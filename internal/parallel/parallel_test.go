package parallel

import (
	"math/rand"
	"net"
	"testing"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
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
	cfg := c45.Config{}
	seqTree := c45.TrainTrialsSeeded(d, train, 4, cfg, 500)

	srv := plinda.NewServer()
	defer srv.Close()
	parTree, err := C45Trials(srv, d, train, 4, 2, cfg, 500)
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

func TestParallelCVSurvivesWorkerFailure(t *testing.T) {
	d, train, _ := testData(t, "diabetes", 34)
	cfg := nyuminer.Config{}
	// The program can legitimately win the race and finish before the
	// kill lands (warm caches make the CV folds very fast). Retry with a
	// fresh server until a kill actually causes a recovery, rather than
	// failing on a lucky fast run.
	for attempt := 0; attempt < 5; attempt++ {
		srv := plinda.NewServer()
		done := make(chan struct{})
		var pt *classify.PrunedTree
		var err error
		go func() {
			pt, err = NyuMinerCV(srv, d, train, 4, 2, cfg, rand.New(rand.NewSource(1)))
			close(done)
		}()
		// Wait until the worker exists, then shoot it. Kill also
		// succeeds (as a no-op) on an already-finished process, so
		// whether the failure was really injected is decided by
		// Respawns() below.
	kill:
		for {
			if err := srv.Kill("nmcv-worker-0"); err == nil {
				break
			}
			select {
			case <-done:
				break kill
			default:
			}
		}
		<-done
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		if pt == nil {
			srv.Close()
			t.Fatal("no result after recovery")
		}
		recovered := srv.Respawns() >= 1
		srv.Close()
		if recovered {
			return
		}
		t.Logf("attempt %d: program finished before the kill; retrying", attempt)
	}
	t.Fatal("kill never landed in 5 attempts")
}

func TestSingleWorkerDegenerate(t *testing.T) {
	d, train, _ := testData(t, "vote", 35)
	srv := plinda.NewServer()
	defer srv.Close()
	tree, err := C45Trials(srv, d, train, 1, 0, c45.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil {
		t.Fatal("nil tree")
	}
}

// Package parallel implements the data-parallel classification tree
// programs of chapter 6 of "Free Parallel Data Mining" as Persistent
// Linda master/worker programs, all three on one task farm (farm):
//
//   - Parallel NyuMiner-CV (section 6.1.1, figures 6.1/6.2): one task
//     per fold reports its auxiliary tree's alpha/error curve while the
//     caller grows the main tree, then picks the complexity parameter.
//   - Parallel C4.5 (section 6.2.1): windowing trials run as parallel
//     tasks; the caller keeps the tree with the fewest errors.
//   - Parallel NyuMiner-RS (section 6.2.2): multiple incremental
//     sampling episodes run as parallel tasks; the caller combines all
//     trees' rules into the classifying rule list.
//
// Per-trial seeding makes every result equal its sequential twin's,
// with or without the master killed; the tests assert both.
package parallel

import (
	"fmt"
	"math/rand"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// farm runs tasks 0..n-1 of program on `workers` worker processes and
// returns each task's report, the fields work(i) (whose formals are
// templates), in task order. A worker transaction takes (program-task,
// i) and commits (program-report, i, work(i)...); the task -1 is the
// poison. The master seeds under a continuation, so an incarnation that
// Xrecovers one does not seed again, then takes reports in one
// transaction until every task has one, dropping repeats whole (work is
// pure), and commits the poison with the last take. A killed master's
// takes come back; the caller gets the reports only after that commit.
func farm(srv *plinda.Server, program string, n, workers int, work func(i int) []any, templates ...any) ([]tuplespace.Tuple, error) {
	if workers < 1 {
		workers = 1
	}
	taskTag, reportTag := program+"-task", program+"-report"
	worker := func(p *plinda.Proc) error {
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In(taskTag, tuplespace.FormalInt)
			if err != nil {
				return err
			}
			i := tu[1].(int)
			if i < 0 {
				return p.Xcommit()
			}
			if err := p.Out(append([]any{reportTag, i}, work(i)...)...); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
		}
	}
	var reports []tuplespace.Tuple
	master := func(p *plinda.Proc) error {
		if _, seeded := p.Xrecover(); !seeded {
			if err := p.Xstart(); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := p.Out(taskTag, i); err != nil {
					return err
				}
			}
			if err := p.Xcommit(n); err != nil {
				return err
			}
		}
		if err := p.Xstart(); err != nil {
			return err
		}
		got := make([]tuplespace.Tuple, n)
		report := append([]any{reportTag, tuplespace.FormalInt}, templates...)
		for left := n; left > 0; {
			tu, err := p.In(report...)
			if err != nil {
				return err
			}
			i := tu[1].(int)
			if i < 0 || i >= n {
				return fmt.Errorf("parallel: %s report for task %d of %d", program, i, n)
			}
			if got[i] == nil {
				got[i] = tu[2:]
				left--
			}
		}
		for w := 0; w < workers; w++ {
			if err := p.Out(taskTag, -1); err != nil {
				return err
			}
		}
		if err := p.Xcommit(); err != nil {
			return err
		}
		reports = got
		return nil
	}
	if err := srv.RunProgram(program, workers, worker, master); err != nil {
		return nil, err
	}
	return reports, nil
}

// NyuMinerCV runs Parallel NyuMiner-CV on a PLinda server: `workers`
// worker processes grow the V auxiliary trees, one task per fold, while
// the caller grows the main tree (figures 6.1/6.2). The pruned tree
// equals classify.CVPrune's for the same fold assignment.
func NyuMinerCV(srv *plinda.Server, d *dataset.Dataset, idx []int, v, workers int, cfg nyuminer.Config, rng *rand.Rand) (*classify.PrunedTree, error) {
	folds := d.Folds(idx, v, rng)
	mainSeq := make(chan []*classify.PrunedTree, 1)
	go func() { mainSeq <- classify.CCPSequence(nyuminer.Grow(d, idx, cfg)) }()
	// A curve crosses as two wire-native slices: the program runs over TCP.
	reports, err := farm(srv, "nmcv", len(folds), workers, func(i int) []any {
		aux := nyuminer.Grow(d, dataset.WithoutFold(idx, folds[i]), cfg)
		curve := classify.NewFoldCurve(classify.CCPSequence(aux), d, folds[i])
		return []any{curve.Alphas, curve.Errs}
	}, tuplespace.FormalFloats, tuplespace.FormalInts)
	seq := <-mainSeq
	if err != nil {
		return nil, err
	}
	curves := make([]classify.FoldCurve, len(reports))
	for i, r := range reports {
		curves[i] = classify.FoldCurve{Alphas: r[0].([]float64), Errs: r[1].([]int)}
	}
	pt, _ := classify.SelectByCurves(seq, curves, len(idx))
	return pt, nil
}

// trees runs one tree-building task per trial on the farm and returns
// the trees in trial order.
func trees(srv *plinda.Server, program string, trials, workers int, build func(trial int) *classify.Tree) ([]*classify.Tree, error) {
	work := func(t int) []any { return []any{build(t)} }
	reports, err := farm(srv, program, trials, workers, work, tuplespace.Formal((*classify.Tree)(nil)))
	if err != nil {
		return nil, err
	}
	ts := make([]*classify.Tree, len(reports))
	for t, r := range reports {
		ts[t] = r[0].(*classify.Tree)
	}
	return ts, nil
}

// C45Trials runs Parallel C4.5: each windowing trial is a tuple-space
// task; the best tree (fewest training errors) wins, matching
// c45.TrainTrialsSeeded for the same base seed.
func C45Trials(srv *plinda.Server, d *dataset.Dataset, idx []int, trials, workers int, base int64) (*classify.Tree, error) {
	ts, err := trees(srv, "pc45", trials, workers, func(t int) *classify.Tree {
		return c45.TrialTree(d, idx, base, t)
	})
	if err != nil {
		return nil, err
	}
	var best *classify.Tree
	bestAcc := -1.0
	for _, tree := range ts {
		if acc := tree.Accuracy(d, idx); acc > bestAcc {
			bestAcc = acc
			best = tree
		}
	}
	return best, nil
}

// NyuMinerRS runs Parallel NyuMiner-RS: each multiple-incremental-
// sampling episode is a tuple-space task; the rules are selected from
// all the trees, matching nyuminer.TrainRSSeeded for the same base seed.
func NyuMinerRS(srv *plinda.Server, d *dataset.Dataset, idx []int, trials, workers int, cmin, smin float64, cfg nyuminer.Config, base int64) (*classify.RuleList, error) {
	ts, err := trees(srv, "nmrs", trials, workers, func(t int) *classify.Tree {
		return nyuminer.TrialTree(d, idx, cfg, base, t)
	})
	if err != nil {
		return nil, err
	}
	maj, _ := d.MajorityClass(idx)
	return classify.SelectRules(ts, cmin, smin, maj), nil
}

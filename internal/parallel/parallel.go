// Package parallel implements the data-parallel classification tree
// programs of chapter 6 of "Free Parallel Data Mining" as Persistent
// Linda master/worker programs:
//
//   - Parallel NyuMiner-CV (section 6.1.1, figures 6.1/6.2): the
//     master partitions the training set into V folds, outs one
//     learning-set task per fold, grows the main tree itself, then
//     collects the workers' alpha/error curves and picks the right
//     complexity parameter.
//   - Parallel C4.5 (section 6.2.1): windowing trials run as parallel
//     tasks; the master keeps the tree with the fewest errors.
//   - Parallel NyuMiner-RS (section 6.2.2): multiple incremental
//     sampling episodes run as parallel tasks; the master combines all
//     trees' rules into the classifying rule list.
//
// Per-trial deterministic seeding makes every parallel result
// identical to its sequential counterpart, which the tests assert.
package parallel

import (
	"math/rand"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// Formal templates for the typed payloads crossing the tuple space.
var (
	formalInts = tuplespace.FormalInts
	formalTree = tuplespace.Formal((*classify.Tree)(nil))
)

// NyuMinerCV runs Parallel NyuMiner-CV on a PLinda server: V auxiliary
// trees are grown by `workers` worker processes while the master grows
// the main tree, exactly the figure 6.1/6.2 structure. The returned
// pruned tree equals the sequential classify.CVPrune result for the
// same fold assignment.
func NyuMinerCV(srv *plinda.Server, d *dataset.Dataset, idx []int, v, workers int, cfg nyuminer.Config, rng *rand.Rand) (*classify.PrunedTree, error) {
	if workers < 1 {
		workers = 1
	}
	folds := d.Folds(idx, v, rng)

	worker := func(p *plinda.Proc) error {
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In("learning-set", tuplespace.FormalInt, formalInts)
			if err != nil {
				return err
			}
			i := tu[1].(int)
			if i < 0 { // poison
				return p.Xcommit()
			}
			fold := tu[2].([]int)
			learn := dataset.WithoutFold(idx, fold)
			aux := nyuminer.Grow(d, learn, cfg)
			curve := classify.NewFoldCurve(classify.CCPSequence(aux), d, fold)
			// The curve crosses as its two wire-native slices, so the
			// program runs on a dialed store as well as a local one.
			if err := p.Out("alpha-list", i, curve.Alphas, curve.Errs); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
		}
	}

	var result *classify.PrunedTree
	master := func(p *plinda.Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		for i, fold := range folds {
			if err := p.Out("learning-set", i, fold); err != nil {
				return err
			}
		}
		if err := p.Xcommit(); err != nil {
			return err
		}
		// Grow the main tree while workers build the auxiliary trees.
		main := nyuminer.Grow(d, idx, cfg)
		seq := classify.CCPSequence(main)

		curves := make([]classify.FoldCurve, len(folds))
		if err := p.Xstart(); err != nil {
			return err
		}
		for range folds {
			tu, err := p.In("alpha-list", tuplespace.FormalInt, tuplespace.FormalFloats, formalInts)
			if err != nil {
				return err
			}
			curves[tu[1].(int)] = classify.FoldCurve{Alphas: tu[2].([]float64), Errs: tu[3].([]int)}
		}
		for w := 0; w < workers; w++ {
			if err := p.Out("learning-set", -1, []int(nil)); err != nil {
				return err
			}
		}
		if err := p.Xcommit(); err != nil {
			return err
		}
		result, _ = classify.SelectByCurves(seq, curves, len(idx))
		return nil
	}

	if err := srv.RunProgram("nmcv", workers, worker, master); err != nil {
		return nil, err
	}
	return result, nil
}

// trialProgram runs `trials` numbered tasks on `workers` workers, each
// producing a tree via build; the master collects them in trial order.
func trialProgram(srv *plinda.Server, name string, trials, workers int, build func(trial int) *classify.Tree) ([]*classify.Tree, error) {
	if workers < 1 {
		workers = 1
	}
	worker := func(p *plinda.Proc) error {
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In(name+"-trial", tuplespace.FormalInt)
			if err != nil {
				return err
			}
			t := tu[1].(int)
			if t < 0 {
				return p.Xcommit()
			}
			tree := build(t)
			if err := p.Out(name+"-tree", t, tree); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
		}
	}
	trees := make([]*classify.Tree, trials)
	master := func(p *plinda.Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		for t := 0; t < trials; t++ {
			if err := p.Out(name+"-trial", t); err != nil {
				return err
			}
		}
		if err := p.Xcommit(); err != nil {
			return err
		}
		if err := p.Xstart(); err != nil {
			return err
		}
		for range trees {
			tu, err := p.In(name+"-tree", tuplespace.FormalInt, formalTree)
			if err != nil {
				return err
			}
			trees[tu[1].(int)] = tu[2].(*classify.Tree)
		}
		for w := 0; w < workers; w++ {
			if err := p.Out(name+"-trial", -1); err != nil {
				return err
			}
		}
		return p.Xcommit()
	}
	if err := srv.RunProgram(name, workers, worker, master); err != nil {
		return nil, err
	}
	return trees, nil
}

// C45Trials runs Parallel C4.5: each windowing trial is a tuple-space
// task; the best tree (fewest training errors) wins, matching
// c45.TrainTrialsSeeded for the same base seed.
func C45Trials(srv *plinda.Server, d *dataset.Dataset, idx []int, trials, workers int, base int64) (*classify.Tree, error) {
	trees, err := trialProgram(srv, "pc45", trials, workers, func(t int) *classify.Tree {
		return c45.TrialTree(d, idx, base, t)
	})
	if err != nil {
		return nil, err
	}
	var best *classify.Tree
	bestAcc := -1.0
	for _, tree := range trees {
		if acc := tree.Accuracy(d, idx); acc > bestAcc {
			bestAcc = acc
			best = tree
		}
	}
	return best, nil
}

// NyuMinerRS runs Parallel NyuMiner-RS: each multiple-incremental-
// sampling episode is a tuple-space task; the master selects rules
// from all the trees, matching nyuminer.TrainRSSeeded for the same
// base seed.
func NyuMinerRS(srv *plinda.Server, d *dataset.Dataset, idx []int, trials, workers int, cmin, smin float64, cfg nyuminer.Config, base int64) (*classify.RuleList, error) {
	trees, err := trialProgram(srv, "nmrs", trials, workers, func(t int) *classify.Tree {
		return nyuminer.TrialTree(d, idx, cfg, base, t)
	})
	if err != nil {
		return nil, err
	}
	maj, _ := d.MajorityClass(idx)
	return classify.SelectRules(trees, cmin, smin, maj), nil
}

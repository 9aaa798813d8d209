package experiments

import (
	"fmt"
	"io"
	"time"

	"freepdm/internal/classify"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/core"
	"freepdm/internal/dataset"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/mining/motif"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
	"freepdm/internal/tuplespace"
)

// The ablation experiments quantify the design choices DESIGN.md calls
// out; each prints a small comparison table.

func init() {
	register("a.edag", "Ablation: E-dag vs E-tree traversal (pruning power vs asynchrony)", func(w io.Writer) error {
		seqs := seq.CyclinsSpec(42).Generate()
		params := motif.Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24}
		_, edag := core.SolveSequential(motif.NewProblem(seqs, params))
		_, etree := core.SolveETTSequential(motif.NewProblem(seqs, params))
		tw := table(w, "E-dag (level-synchronous, full subpattern pruning) vs E-tree (asynchronous, parent-only pruning)")
		fmt.Fprintln(tw, "Traversal\tGoodness evals\tGood patterns\tPre-pruned")
		fmt.Fprintf(tw, "E-dag\t%d\t%d\t%d\n", edag.Evaluated, edag.Good, edag.Pruned)
		fmt.Fprintf(tw, "E-tree\t%d\t%d\t%d\n", etree.Evaluated, etree.Good, etree.Pruned)
		return tw.Flush()
	})

	register("a.adaptive", "Ablation: adaptive master seeding depth", func(w io.Writer) error {
		run := settingRuns()[1]
		seqT := seqTime(run)
		tw := table(w, "Initial task depth vs efficiency (setting 2, load-balanced)")
		fmt.Fprintln(tw, "Machines\tdepth 1\tdepth 2\tadaptive")
		for _, n := range figureMachines {
			d1 := simulate(run, core.LoadBalanced, 1, n)
			d2 := simulate(run, core.LoadBalanced, 2, n)
			ad := simulate(run, core.LoadBalanced, core.AdaptiveDepth(n), n)
			fmt.Fprintf(tw, "%d\t%.0f%%\t%.0f%%\t%.0f%%\n",
				n, 100*nowEff(seqT, d1, n), 100*nowEff(seqT, d2, n), 100*nowEff(seqT, ad, n))
		}
		return tw.Flush()
	})

	register("a.boundary", "Ablation: boundary-point collapsing before the optimal-split DP", func(w io.Writer) error {
		// A discrete numeric attribute in the style of figure 5.1,
		// scaled up: values 0..200 with pure runs between noisy bands.
		d := discreteAblationData(6000, 200)
		cases := classify.NewCases(d, d.AllIndexes())
		raw := cases.Baskets(0)
		merged := nyuminer.MergeBoundary(cases.Baskets(0))
		tw := table(w, "Baskets fed to the O(K\u00b7B\u00b2) DP (theorem 5 guarantees identical impurity)")
		fmt.Fprintln(tw, "Variant\tBaskets\tDP time\tImpurity")
		for _, v := range []struct {
			name    string
			baskets []classify.Basket
		}{{"raw value baskets", raw}, {"boundary-merged", merged}} {
			start := time.Now()
			opt := nyuminer.OptimalSubK(classify.Gini{}, v.baskets, 4)
			el := time.Since(start)
			fmt.Fprintf(tw, "%s\t%d\t%v\t%.6f\n", v.name, len(v.baskets), el.Round(time.Microsecond), opt.Impurity)
		}
		return tw.Flush()
	})

	register("a.logical", "Ablation: logical-value reduction for categorical splits", func(w io.Writer) error {
		// A node-level view where several category values have become
		// pure (the situation section 5.3.2 exploits): 12 values, 7 of
		// them pure for one of 3 classes.
		d := &dataset.Dataset{
			Name: "ablation",
			Attrs: []dataset.Attribute{{
				Name: "cat", Kind: dataset.Categorical,
				Values: make([]string, 12),
			}},
			Classes: []string{"A", "B", "C"},
		}
		for v := range d.Attrs[0].Values {
			d.Attrs[0].Values[v] = fmt.Sprintf("v%d", v)
		}
		for v := 0; v < 12; v++ {
			for i := 0; i < 30; i++ {
				var c int
				switch {
				case v < 4:
					c = 0 // pure A values
				case v < 7:
					c = 2 // pure C values
				default:
					c = (v + i) % 3 // mixed values
				}
				d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{float64(v)}, Class: c})
			}
		}
		baskets, _ := nyuminer.CategoricalBaskets(classify.NewCases(d, d.AllIndexes()), 0)
		tw := table(w, "Permutation search space before and after merging pure values into logical values (section 5.3.2)")
		fmt.Fprintln(tw, "Variant\tValues\tPermutations")
		fmt.Fprintf(tw, "raw values V\t%d\t%d\n", 12, factorial(12))
		fmt.Fprintf(tw, "logical values V_L\t%d\t%d\n", len(baskets), factorial(len(baskets)))
		return tw.Flush()
	})

	register("a.subpattern", "Ablation: subpattern-pruning heuristic in motif counting", func(w io.Writer) error {
		seqs := seq.CorpusSpec{
			Sequences: 25, Length: 200, Seed: 5,
			Motifs: []seq.PlantedMotif{
				{Pattern: "MMQQWWHHKK", Carriers: 14},
				{Pattern: "YYTTGGNNRR", Carriers: 12},
			},
		}.Generate()
		params := motif.Params{MinOccur: 9, MaxMut: 1, MinLength: 6, MaxLength: 10}
		plain := motif.NewProblem(seqs, params)
		core.SolveETTSequential(plain)
		pruned := motif.NewProblem(seqs, params)
		pruned.SubpatternPruning = true
		core.SolveETTSequential(pruned)
		rp, _ := plain.MatcherRuns()
		rq, skipped := pruned.MatcherRuns()
		tw := table(w, "Occurrence-matcher runs with and without the section 2.3.4 heuristic")
		fmt.Fprintln(tw, "Variant\tMatcher runs\tSkipped")
		fmt.Fprintf(tw, "without\t%d\t0\n", rp)
		fmt.Fprintf(tw, "with\t%d\t%d\n", rq, skipped)
		return tw.Flush()
	})

	register("a.prefixtree", "Ablation: PEAR prefix tree vs plain Apriori candidate counting", func(w io.Writer) error {
		db := assoc.GenerateDB(4000, 24, [][]int{{0, 1, 2}, {5, 6}, {10, 11, 12}, {15, 16, 17, 18}}, 0.3, 7)
		const minSupport = 400
		tw := table(w, "Frequent-itemset mining, 4000 transactions over 24 items")
		fmt.Fprintln(tw, "Miner\tFrequent sets\tTime")
		startA := time.Now()
		a := assoc.Apriori(db, minSupport)
		ta := time.Since(startA)
		startP := time.Now()
		p := assoc.AprioriPrefixTree(db, minSupport)
		tp := time.Since(startP)
		if len(a) != len(p) {
			return fmt.Errorf("prefix tree found %d itemsets, Apriori %d", len(p), len(a))
		}
		fmt.Fprintf(tw, "Apriori\t%d\t%v\n", len(a), ta.Round(time.Millisecond))
		fmt.Fprintf(tw, "PEAR prefix tree\t%d\t%v\n", len(p), tp.Round(time.Millisecond))
		return tw.Flush()
	})

	register("a.txn", "Ablation: transaction granularity in PLinda programs", func(w io.Writer) error {
		// Per-task transactions (the chapter 3 templates) vs one
		// transaction per k tasks: fewer commits, but a failure redoes
		// up to k tasks. Measure tuple-space operations per completed
		// task for both.
		const tasks = 200
		runCfg := func(chunk int) (ops int64, err error) {
			srv := plinda.NewServer()
			defer srv.Close()
			for i := 0; i < tasks; i++ {
				if err := tuplespace.Out(srv.Space(), "work", i); err != nil {
					return 0, err
				}
			}
			srv.Spawn("w", func(p *plinda.Proc) error {
				for {
					if err := p.Xstart(); err != nil {
						return err
					}
					did := 0
					for did < chunk {
						tu, ok, err := p.Inp("work", tuplespace.FormalInt)
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						if err := p.Out("done", tu[1].(int)); err != nil {
							return err
						}
						did++
					}
					if err := p.Xcommit(); err != nil {
						return err
					}
					if did < chunk {
						return nil
					}
				}
			})
			if err := srv.WaitAll(); err != nil {
				return 0, err
			}
			// Drain the result tuples: every task must have produced
			// exactly one.
			done := 0
			for {
				_, ok, err := tuplespace.Inp(srv.Space(), "done", tuplespace.FormalInt)
				if err != nil || !ok {
					break
				}
				done++
			}
			if done != tasks {
				return 0, fmt.Errorf("a.txn: %d done tuples for %d tasks", done, tasks)
			}
			return int64(srv.Commits()), nil
		}
		tw := table(w, "Transaction commits per completed task (200 tasks); coarser transactions commit less but lose more work per failure")
		fmt.Fprintln(tw, "Granularity\tCommits\tCommits/task")
		for _, chunk := range []int{1, 10, 50} {
			commits, err := runCfg(chunk)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d task/txn\t%d\t%.2f\n", chunk, commits, float64(commits)/tasks)
		}
		return tw.Flush()
	})
}

func nowEff(seq, par float64, n int) float64 { return seq / par / float64(n) }

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// discreteAblationData builds a figure 5.1-style one-attribute data
// set: integer values 0..maxV, pure class runs separated by mixed
// bands, so boundary merging has real work to do.
func discreteAblationData(n, maxV int) *dataset.Dataset {
	d := &dataset.Dataset{
		Name:    "ablation",
		Attrs:   []dataset.Attribute{{Name: "v", Kind: dataset.Numeric}},
		Classes: []string{"A", "B", "C"},
	}
	for i := 0; i < n; i++ {
		v := i % (maxV + 1)
		band := v / 20
		var c int
		switch {
		case band%3 == 0:
			c = 0 // pure A band
		case band%3 == 1:
			c = (i / 7) % 3 // mixed band
		default:
			c = 2 // pure C band
		}
		d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{float64(v)}, Class: c})
	}
	return d
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/cart"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/fx"
)

// AccuracyPairs is how many stratified train/test pairs each benchmark
// is averaged over for tables 5.3/5.4. The dissertation used 10; the
// default here is 3 to keep the harness quick — raise it for closer
// confidence intervals.
var AccuracyPairs = 3

// classifierSet evaluates the four classifiers of table 5.3 on one
// train/test pair and returns their predictions and accuracies.
type panelResult struct {
	acc   [4]float64 // C4.5, CART, NyuMiner-CV, NyuMiner-RS
	preds [3][]int   // C4.5, CART, NyuMiner-RS predictions (table 5.4 panel)
	truth []int
	plur  float64
}

func evalPanel(d *dataset.Dataset, seed int64) panelResult {
	rng := rand.New(rand.NewSource(seed))
	train, test := d.StratifiedHalves(rng)
	var res panelResult
	_, nmaj := d.MajorityClass(test)
	res.plur = float64(nmaj) / float64(len(test))

	c45Tree := c45.Train(d, train)
	cartTree := cart.TrainCV(d, train, 10, rng)
	nmCV := nyuminer.TrainCV(d, train, 10, nyuminer.Config{}, rng)
	nmRS := nyuminer.TrainRS(d, train, 4, 0.65, 0.02, nyuminer.Config{}, rng)

	res.acc[0] = c45Tree.Accuracy(d, test)
	res.acc[1] = cartTree.Accuracy(d, test)
	res.acc[2] = nmCV.Accuracy(d, test)
	res.acc[3] = nmRS.Accuracy(d, test)

	res.truth = make([]int, len(test))
	for k := range res.preds {
		res.preds[k] = make([]int, len(test))
	}
	for j, i := range test {
		vals := d.Instances[i].Vals
		res.truth[j] = d.Class(i)
		res.preds[0][j] = c45Tree.Classify(vals)
		res.preds[1][j] = cartTree.Classify(vals)
		res.preds[2][j], _ = nmRS.Classify(vals)
	}
	return res
}

func init() {
	register("t5.1", "Table 5.1: descriptions of the 7 benchmark data sets", func(w io.Writer) error {
		tw := table(w, "Table 5.1 — benchmark data sets (synthetic stand-ins; see DESIGN.md)")
		fmt.Fprintln(tw, "Data set\tDescription")
		for _, name := range dataset.BenchmarkNames {
			fmt.Fprintf(tw, "%s\t%s\n", name, dataset.Descriptions[name])
		}
		return tw.Flush()
	})

	register("t5.2", "Table 5.2: statistical features of the 7 benchmark data sets", func(w io.Writer) error {
		tw := table(w, "Table 5.2 — statistical features")
		fmt.Fprintln(tw, "Data set\tCases\t%CasesMissing\t%ValuesMissing\tCateg.\tNumer.\tTotal\tClasses")
		for _, name := range dataset.BenchmarkNames {
			d, err := dataset.Benchmark(name, 1)
			if err != nil {
				return err
			}
			st := d.Summary()
			fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.1f%%\t%d\t%d\t%d\t%d\n",
				name, st.Cases, st.PctCasesMissing, st.PctValuesMissing,
				st.Categorical, st.Numerical, st.Categorical+st.Numerical, st.Classes)
		}
		return tw.Flush()
	})

	register("t5.3", "Table 5.3: classification accuracies of C4.5, CART, NyuMiner-CV, NyuMiner-RS", func(w io.Writer) error {
		tw := table(w, fmt.Sprintf("Table 5.3 — accuracy over %d stratified half/half splits", AccuracyPairs))
		fmt.Fprintln(tw, "Data set\tPlurality\tC4.5\tCART\tNyuMiner-CV\tNyuMiner-RS")
		for _, name := range dataset.BenchmarkNames {
			d, err := dataset.Benchmark(name, 1)
			if err != nil {
				return err
			}
			var acc [4]float64
			plur := 0.0
			for p := 0; p < AccuracyPairs; p++ {
				r := evalPanel(d, int64(100+p))
				for k := range acc {
					acc[k] += r.acc[k]
				}
				plur += r.plur
			}
			n := float64(AccuracyPairs)
			fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
				name, 100*plur/n, 100*acc[0]/n, 100*acc[1]/n, 100*acc[2]/n, 100*acc[3]/n)
		}
		return tw.Flush()
	})

	register("t5.4", "Table 5.4: complementarity tests among C4.5, CART and NyuMiner-RS", func(w io.Writer) error {
		tw := table(w, "Table 5.4 — agreement of C4.5, CART and NyuMiner-RS on the test sets")
		fmt.Fprintln(tw, "Data set\tTest cases\tAllAgree\tCoverage\tAgreeAcc\tDisagree\t>=1 correct")
		for _, name := range dataset.BenchmarkNames {
			d, err := dataset.Benchmark(name, 1)
			if err != nil {
				return err
			}
			r := evalPanel(d, 100)
			c := classify.Complement(r.preds[:], r.truth)
			atLeast := "N/A"
			if c.Disagree > 0 {
				atLeast = fmt.Sprintf("%.1f%%", 100*c.AtLeastOneRight)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%.1f%%\t%d\t%s\n",
				name, c.Total, c.AllAgree, 100*float64(c.AllAgree)/float64(c.Total),
				100*c.AgreeAccuracy, c.Disagree, atLeast)
		}
		return tw.Flush()
	})

	register("f5.6", "Figure 5.6: partial NyuMiner-RS classification tree for the yu data set", func(w io.Writer) error {
		p := fx.Pairs[0]
		rates := fx.GenerateRates(p.Days+252+1, p.Seed)
		d := fx.BuildDataset(p.Name, rates)
		train, _ := fx.SplitHalves(d)
		rng := rand.New(rand.NewSource(p.Seed))
		rl := fx.SelectTradingRules(d, train, 3, 0.80, 0.01, rng)
		fmt.Fprintln(w, "Figure 5.6 — selected NyuMiner-RS rules for yu (confidence, support):")
		for _, r := range rl.Rules {
			fmt.Fprintf(w, "  %s\n", r.Describe(d))
		}
		return nil
	})

	register("t5.5", "Table 5.5: descriptions of foreign exchange data sets", func(w io.Writer) error {
		tw := table(w, "Table 5.5 — foreign exchange data sets")
		fmt.Fprintln(tw, "Currency pair\tData set\tData elements")
		for _, p := range fx.Pairs {
			fmt.Fprintf(tw, "%s\t%s\t%d\n", p.Long, p.Name, p.Days)
		}
		return tw.Flush()
	})

	register("t5.6", "Table 5.6: money made in foreign exchange", func(w io.Writer) error {
		tw := table(w, "Table 5.6 — rule selection (Cmin=80%, Smin=1%) and 13-year trading gains")
		fmt.Fprintln(tw, "Data set\tRules\tDays covered\tAccuracy\tGain1%\tGain2%\tAvgGain%")
		for _, p := range fx.Pairs {
			r := fx.Evaluate(p, 3, 0.80, 0.01)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
				r.Pair, r.RulesSelected, r.DaysCovered, 100*r.Accuracy,
				r.GainFirst, r.GainSecond, r.AvgGain)
		}
		return tw.Flush()
	})
}

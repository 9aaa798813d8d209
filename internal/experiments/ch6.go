package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/now"
)

// Chapter 6 reproduces the data-parallel classification experiments.
// Per-task costs are MEASURED on this host by really growing the
// trees; the multi-machine runs are then simulated on a NOW of
// reference machines whose speed equals this host's, so speedups are
// against a real sequential baseline.

// commOverhead is the simulated tuple-space cost per task, as a
// fraction of the average task, calibrated to the small 1-machine
// slowdowns of figures 6.3-6.8.
const commFraction = 0.04

var ch6Machines = []int{1, 2, 4, 6, 8, 10}

// Ch6Trials caps how many windowing/sampling trials are really
// measured; series beyond it reuse the measured mean. 10 reproduces
// the full tables; the benchmarks lower it.
var Ch6Trials = 10

// timed runs f and returns its wall-clock seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// --- Parallel NyuMiner-CV (section 6.1.1) ---

// cvCosts measures the main-tree cost and maxV auxiliary-tree costs
// for a dataset, reusing one fold layout.
type cvCosts struct {
	main float64
	aux  []float64 // cost of each auxiliary tree, up to maxV
}

var (
	cvMu    sync.Mutex
	cvCache = map[string]*cvCosts{}
)

func measureCV(name string, maxV int) (*cvCosts, error) {
	cvMu.Lock()
	defer cvMu.Unlock()
	if c, ok := cvCache[name]; ok && len(c.aux) >= maxV {
		return c, nil
	}
	d, err := dataset.Benchmark(name, 1)
	if err != nil {
		return nil, err
	}
	idx := d.AllIndexes()
	cfg := nyuminer.Config{}
	c := &cvCosts{}
	c.main = timed(func() {
		t := nyuminer.Grow(d, idx, cfg)
		classify.CCPSequence(t)
	})
	rng := rand.New(rand.NewSource(7))
	folds := d.Folds(idx, maxV, rng)
	for _, fold := range folds {
		fold := fold
		c.aux = append(c.aux, timed(func() {
			t := nyuminer.Grow(d, dataset.WithoutFold(idx, fold), cfg)
			classify.NewFoldCurve(classify.CCPSequence(t), d, fold)
		}))
	}
	cvCache[name] = c
	return c, nil
}

// cvSequential is the measured sequential time of NyuMiner-CV with
// V-fold cross validation: the main tree plus V auxiliary trees.
func (c *cvCosts) cvSequential(v int) float64 {
	t := c.main
	for i := 0; i < v && i < len(c.aux); i++ {
		t += c.aux[i]
	}
	return t
}

// cvParallel simulates Parallel NyuMiner-CV on n machines: the master
// machine grows the main tree while the other n-1 machines take the V
// auxiliary tasks; with n=1 everything runs on the single machine.
func (c *cvCosts) cvParallel(v, n int) float64 {
	tasks := []*now.Task{{Name: "main", Cost: c.main}}
	avg := c.main
	for i := 0; i < v && i < len(c.aux); i++ {
		tasks = append(tasks, &now.Task{Name: fmt.Sprintf("aux%d", i), Cost: c.aux[i]})
		avg += c.aux[i]
	}
	avg /= float64(len(tasks))
	cl := observed(&now.Cluster{Machines: now.Uniform(n), Overhead: commFraction * avg})
	return cl.Run(tasks).Makespan
}

// --- Parallel trials (sections 6.2.1, 6.2.2) ---

// trialCosts measures per-trial costs of a windowing/sampling program.
type trialCosts struct {
	costs []float64
	// pagingPerTrial is the extra fraction of sequential time per
	// additional in-memory trial tree (the letter data set's paging
	// effect, section 6.2.1); parallel runs hold one tree per machine
	// and never page.
	pagingPerTrial float64
}

func (tc *trialCosts) sequential(trials int) float64 {
	t := 0.0
	for i := 0; i < trials && i < len(tc.costs); i++ {
		t += tc.costs[i]
	}
	return t * (1 + tc.pagingPerTrial*float64(trials-1))
}

func (tc *trialCosts) parallel(trials, n int) float64 {
	var tasks []*now.Task
	avg := 0.0
	for i := 0; i < trials && i < len(tc.costs); i++ {
		tasks = append(tasks, &now.Task{Name: fmt.Sprintf("trial%d", i), Cost: tc.costs[i]})
		avg += tc.costs[i]
	}
	avg /= float64(len(tasks))
	cl := observed(&now.Cluster{Machines: now.Uniform(n), Overhead: commFraction * avg})
	return cl.Run(tasks).Makespan
}

var (
	trialMu    sync.Mutex
	trialCache = map[string]*trialCosts{}
)

func measureTrials(key, ds string, trials int, paging float64, grow func(d *dataset.Dataset, idx []int, trial int)) (*trialCosts, error) {
	trialMu.Lock()
	defer trialMu.Unlock()
	if c, ok := trialCache[key]; ok && len(c.costs) >= trials {
		return c, nil
	}
	d, err := dataset.Benchmark(ds, 1)
	if err != nil {
		return nil, err
	}
	idx := d.AllIndexes()
	tc := &trialCosts{pagingPerTrial: paging}
	measured := trials
	if measured > Ch6Trials {
		measured = Ch6Trials
	}
	sum := 0.0
	for t := 0; t < measured; t++ {
		t := t
		cost := timed(func() { grow(d, idx, t) })
		tc.costs = append(tc.costs, cost)
		sum += cost
	}
	for t := measured; t < trials; t++ {
		tc.costs = append(tc.costs, sum/float64(measured))
	}
	trialCache[key] = tc
	return tc, nil
}

func measureC45Trials(ds string, trials int, paging float64) (*trialCosts, error) {
	return measureTrials("c45/"+ds, ds, trials, paging, func(d *dataset.Dataset, idx []int, t int) {
		c45.TrialTree(d, idx, 42, t)
	})
}

func measureRSTrials(ds string, trials int) (*trialCosts, error) {
	return measureTrials("rs/"+ds, ds, trials, 0, func(d *dataset.Dataset, idx []int, t int) {
		nyuminer.TrialTree(d, idx, nyuminer.Config{}, 42, t)
	})
}

func init() {
	register("t6.1", "Table 6.1: sequential running time of NyuMiner-CV (V = 0..20)", func(w io.Writer) error {
		tw := table(w, "Table 6.1 — measured sequential NyuMiner-CV seconds (this host)")
		fmt.Fprintln(tw, "V\tyeast\tsatimage")
		vs := []int{0, 4, 8, 12, 16, 20}
		ye, err := measureCV("yeast", 20)
		if err != nil {
			return err
		}
		sa, err := measureCV("satimage", 20)
		if err != nil {
			return err
		}
		for _, v := range vs {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", v, ye.cvSequential(v), sa.cvSequential(v))
		}
		return tw.Flush()
	})

	cvFigure := func(id, title, ds string) {
		register(id, title, func(w io.Writer) error {
			c, err := measureCV(ds, 20)
			if err != nil {
				return err
			}
			tw := table(w, title+" (V = 4·(machines-1); measured costs, simulated NOW)")
			fmt.Fprintln(tw, "Machines\tV\tTime(s)\tSpeedup")
			for _, n := range []int{1, 2, 3, 4, 5, 6} {
				v := 4 * (n - 1)
				seq := c.cvSequential(v)
				par := c.cvParallel(v, n)
				fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.1f\n", n, v, par, now.Speedup(seq, par))
			}
			return tw.Flush()
		})
	}
	cvFigure("f6.3", "Figure 6.3: Parallel NyuMiner-CV on yeast", "yeast")
	cvFigure("f6.4", "Figure 6.4: Parallel NyuMiner-CV on satimage", "satimage")

	register("t6.2", "Table 6.2: sequential running time of C4.5 (trials = 1..10)", func(w io.Writer) error {
		tw := table(w, "Table 6.2 — measured sequential C4.5 windowing seconds (this host; letter pays paging)")
		fmt.Fprintln(tw, "Trials\tsmoking\tletter")
		sm, err := measureC45Trials("smoking", 10, 0)
		if err != nil {
			return err
		}
		le, err := measureC45Trials("letter", 10, 0.006)
		if err != nil {
			return err
		}
		for _, tr := range ch6Machines {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", tr, sm.sequential(tr), le.sequential(tr))
		}
		return tw.Flush()
	})

	c45Figure := func(id, title, ds string, paging float64) {
		register(id, title, func(w io.Writer) error {
			c, err := measureC45Trials(ds, 10, paging)
			if err != nil {
				return err
			}
			tw := table(w, title+" (trials = machines; measured costs, simulated NOW)")
			fmt.Fprintln(tw, "Machines\tTime(s)\tSpeedup")
			for _, n := range ch6Machines {
				seq := c.sequential(n)
				par := c.parallel(n, n)
				fmt.Fprintf(tw, "%d\t%.2f\t%.1f\n", n, par, now.Speedup(seq, par))
			}
			return tw.Flush()
		})
	}
	c45Figure("f6.5", "Figure 6.5: Parallel C4.5 on smoking", "smoking", 0)
	c45Figure("f6.6", "Figure 6.6: Parallel C4.5 on letter", "letter", 0.006)

	register("t6.3", "Table 6.3: sequential running time of NyuMiner-RS (trees = 1..10)", func(w io.Writer) error {
		tw := table(w, "Table 6.3 — measured sequential NyuMiner-RS seconds (this host)")
		fmt.Fprintln(tw, "Trees\tyeast\tsatimage")
		ye, err := measureRSTrials("yeast", 10)
		if err != nil {
			return err
		}
		sa, err := measureRSTrials("satimage", 10)
		if err != nil {
			return err
		}
		for _, tr := range ch6Machines {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", tr, ye.sequential(tr), sa.sequential(tr))
		}
		return tw.Flush()
	})

	rsFigure := func(id, title, ds string) {
		register(id, title, func(w io.Writer) error {
			c, err := measureRSTrials(ds, 10)
			if err != nil {
				return err
			}
			tw := table(w, title+" (trees = machines; measured costs, simulated NOW)")
			fmt.Fprintln(tw, "Machines\tTime(s)\tSpeedup")
			for _, n := range ch6Machines {
				seq := c.sequential(n)
				par := c.parallel(n, n)
				fmt.Fprintf(tw, "%d\t%.2f\t%.1f\n", n, par, now.Speedup(seq, par))
			}
			return tw.Flush()
		})
	}
	rsFigure("f6.7", "Figure 6.7: Parallel NyuMiner-RS on yeast", "yeast")
	rsFigure("f6.8", "Figure 6.8: Parallel NyuMiner-RS on satimage", "satimage")
}

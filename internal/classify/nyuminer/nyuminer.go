package nyuminer

import (
	"math"
	"math/rand"
	"sort"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

// Config parameterizes NyuMiner.
type Config struct {
	// Impurity is any impurity function satisfying definition 5
	// (default Gini).
	Impurity classify.Impurity
	// K is the maximum number of branches allowed in a split
	// (default 4).
	K int
	// MaxBaskets caps the basket count fed to the O(K·B²) dynamic
	// program for numerical attributes: above it, adjacent baskets are
	// coalesced by equal-frequency discretization first. 0 means
	// unbounded (exactly optimal). Default 128.
	MaxBaskets int
	// MaxPermValues caps the exact permutation search over logical
	// values of a categorical attribute; above it, a single ordering by
	// first-class proportion is used (exact for two classes by the
	// Breiman ordering theorem under concave impurities). Default 7.
	MaxPermValues int
	// MinSplit and MaxDepth bound tree growth (defaults 2 and 0).
	MinSplit, MaxDepth int
}

func (c Config) withDefaults() Config {
	if c.Impurity == nil {
		c.Impurity = classify.Gini{}
	}
	if c.K < 2 {
		c.K = 4
	}
	if c.MaxBaskets == 0 {
		c.MaxBaskets = 128
	}
	if c.MaxPermValues == 0 {
		c.MaxPermValues = 7
	}
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// Selector is NyuMiner's split selector: for every attribute it finds
// the optimal sub-K-ary split with respect to the configured impurity
// function and picks the attribute whose optimal split has the least
// aggregate impurity.
type Selector struct {
	cfg Config
}

// NewSelector returns a NyuMiner split selector.
func NewSelector(cfg Config) *Selector { return &Selector{cfg.withDefaults()} }

// Select implements classify.SplitSelector.
func (s *Selector) Select(c *classify.Cases) *classify.Split {
	d := c.Data
	parent := classify.ImpurityOfCounts(s.cfg.Impurity, d.ClassHistogram(c.Idx))
	best := math.Inf(1)
	var bestSplit *classify.Split
	for a := range d.Attrs {
		var sp *classify.Split
		var imp float64
		if d.Attrs[a].Kind == dataset.Numeric {
			sp, imp = s.numericSplit(c, a)
		} else {
			sp, imp = s.categoricalSplit(c, a)
		}
		if sp != nil && imp < best-1e-12 {
			best = imp
			bestSplit = sp
		}
	}
	// Splitting must strictly reduce impurity; otherwise leaf.
	if bestSplit == nil || best >= parent-1e-12 {
		return nil
	}
	return bestSplit
}

func (s *Selector) numericSplit(c *classify.Cases, attr int) (*classify.Split, float64) {
	baskets := CoalesceBaskets(MergeBoundary(c.Baskets(attr)), s.cfg.MaxBaskets)
	if len(baskets) < 2 {
		return nil, 0
	}
	opt := OptimalSubK(s.cfg.Impurity, baskets, s.cfg.K)
	if opt.Branches < 2 {
		return nil, 0
	}
	cuts := make([]float64, opt.Branches-1)
	for i := 0; i < opt.Branches-1; i++ {
		cuts[i] = baskets[opt.Bounds[i]].Hi
	}
	return &classify.Split{
		Attr:     attr,
		Kind:     dataset.Numeric,
		Cuts:     cuts,
		Branches: opt.Branches,
	}, opt.Impurity
}

func (s *Selector) categoricalSplit(c *classify.Cases, attr int) (*classify.Split, float64) {
	baskets, sets := CategoricalBaskets(c, attr)
	if len(baskets) < 2 {
		return nil, 0
	}
	bestImp := math.Inf(1)
	var bestOpt OptimalSplit
	var bestOrder []int

	try := func(order []int) {
		perm := make([]classify.Basket, len(order))
		for i, j := range order {
			perm[i] = baskets[j]
		}
		opt := OptimalSubK(s.cfg.Impurity, perm, s.cfg.K)
		if opt.Impurity < bestImp-1e-12 ||
			(opt.Impurity < bestImp+1e-12 && opt.Branches < bestOpt.Branches) {
			bestImp = opt.Impurity
			bestOpt = opt
			bestOrder = append([]int(nil), order...)
		}
	}

	if len(baskets) <= s.cfg.MaxPermValues {
		permutations(len(baskets), func(perm []int) bool {
			try(perm)
			return true
		})
	} else {
		// Too many logical values for exact search: order by the
		// proportion of the overall majority class (Breiman ordering),
		// exact for two classes and a strong heuristic otherwise.
		maj, _ := c.Data.MajorityClass(c.Idx)
		order := make([]int, len(baskets))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			bi, bj := baskets[order[i]], baskets[order[j]]
			return float64(bi.Counts[maj])/float64(bi.N) < float64(bj.Counts[maj])/float64(bj.N)
		})
		try(order)
	}
	if bestOpt.Branches < 2 {
		return nil, 0
	}
	// Build the category -> branch assignment.
	assign := make([]int, len(c.Data.Attrs[attr].Values))
	for i := range assign {
		assign[i] = 0
	}
	branchOf := make([]int, len(baskets))
	branch := 0
	for pos, j := range bestOrder {
		branchOf[j] = branch
		if pos == bestOpt.Bounds[branch] {
			branch++
		}
	}
	for j, vs := range sets {
		for _, v := range vs {
			assign[v] = branchOf[j]
		}
	}
	return &classify.Split{
		Attr:     attr,
		Kind:     dataset.Categorical,
		Assign:   assign,
		Branches: bestOpt.Branches,
	}, bestImp
}

// Grow builds a full (unpruned) NyuMiner tree.
func Grow(d *dataset.Dataset, idx []int, cfg Config) *classify.Tree {
	cfg = cfg.withDefaults()
	return classify.Grow(d, idx, NewSelector(cfg), classify.GrowOptions{
		MaxDepth: cfg.MaxDepth, MinSplit: cfg.MinSplit,
	})
}

// TrainCV is NyuMiner-CV: grow the main tree, prune it by minimal cost
// complexity with V-fold cross validation, return the selected pruned
// tree (section 5.4.1).
func TrainCV(d *dataset.Dataset, idx []int, v int, cfg Config, rng *rand.Rand) *classify.PrunedTree {
	cfg = cfg.withDefaults()
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return Grow(dd, ii, cfg) }
	pt, _ := classify.CVPrune(d, idx, v, grow, rng)
	return pt
}

// Sample is one multiple-incremental-sampling episode (section 5.4.2):
// grow a tree from a random initial subset, classify the remaining
// cases, add a selection of the misclassified ones, and repeat until
// the tree classifies all remaining cases correctly or the training
// set is exhausted. Returns the final tree.
func Sample(d *dataset.Dataset, idx []int, cfg Config, rng *rand.Rand) *classify.Tree {
	cfg = cfg.withDefaults()
	perm := append([]int(nil), idx...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	initial := len(perm) / 5
	if initial < 50 {
		initial = 50
	}
	if initial > len(perm) {
		initial = len(perm)
	}
	window := append([]int(nil), perm[:initial]...)
	rest := perm[initial:]
	var tree *classify.Tree
	for round := 0; ; round++ {
		tree = Grow(d, window, cfg)
		var miss []int
		var stay []int
		for _, i := range rest {
			if tree.Classify(d.Instances[i].Vals) != d.Class(i) {
				miss = append(miss, i)
			} else {
				stay = append(stay, i)
			}
		}
		if len(miss) == 0 || len(rest) == 0 {
			return tree
		}
		// Add a selection of the difficult cases: at most half of the
		// current window size, so the window grows geometrically.
		take := len(miss)
		if limit := len(window)/2 + 1; take > limit {
			take = limit
		}
		window = append(window, miss[:take]...)
		rest = append(stay, miss[take:]...)
		if len(window) >= len(idx) {
			return Grow(d, idx, cfg)
		}
	}
}

// TrainRS is NyuMiner-RS: run `trials` multiple-incremental-sampling
// episodes from different initial subsets, extract every tree node as
// a rule, and select rules by the confidence/support thresholds into a
// classifying rule list whose fallback is the plurality class.
func TrainRS(d *dataset.Dataset, idx []int, trials int, cmin, smin float64, cfg Config, rng *rand.Rand) *classify.RuleList {
	if trials < 1 {
		trials = 1
	}
	trees := make([]*classify.Tree, trials)
	for t := range trees {
		trees[t] = Sample(d, idx, cfg, rng)
	}
	maj, _ := d.MajorityClass(idx)
	return classify.SelectRules(trees, cmin, smin, maj)
}

// TrialTree runs one multiple-incremental-sampling episode with a
// deterministic per-trial RNG, so sequential and parallel NyuMiner-RS
// grow identical trees for the same (base, trial).
func TrialTree(d *dataset.Dataset, idx []int, cfg Config, base int64, trial int) *classify.Tree {
	return Sample(d, idx, cfg, rand.New(rand.NewSource(base+int64(trial))))
}

// TrainRSSeeded is TrainRS with per-trial seeding (see TrialTree).
func TrainRSSeeded(d *dataset.Dataset, idx []int, trials int, cmin, smin float64, cfg Config, base int64) *classify.RuleList {
	if trials < 1 {
		trials = 1
	}
	trees := make([]*classify.Tree, trials)
	for t := range trees {
		trees[t] = TrialTree(d, idx, cfg, base, t)
	}
	maj, _ := d.MajorityClass(idx)
	return classify.SelectRules(trees, cmin, smin, maj)
}

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
	// MaxDepth bounds the depth of a grown tree; 0 leaves it unbounded.
	MaxDepth int
}

// NyuMiner's split-search settings, at the values the dissertation
// runs.
const (
	// maxBranches is K, the most branches a split may have.
	maxBranches = 4
	// maxBaskets caps the basket count fed to the O(K·B²) dynamic
	// program for numerical attributes: above it, adjacent baskets are
	// coalesced by equal-frequency discretization first.
	maxBaskets = 128
	// maxPermValues caps the exact permutation search over logical
	// values of a categorical attribute; above it, a single ordering by
	// first-class proportion is used (exact for two classes by the
	// Breiman ordering theorem under concave impurities).
	maxPermValues = 7
)

// Selector is NyuMiner's split selector: for every attribute it finds
// the optimal sub-K-ary split with respect to the Gini index and picks
// the attribute whose optimal split has the least aggregate impurity.
type Selector struct{}

// NewSelector returns a NyuMiner split selector.
func NewSelector() *Selector { return &Selector{} }

// Select implements classify.SplitSelector.
func (s *Selector) Select(c *classify.Cases) *classify.Split {
	d := c.Data
	parent := classify.ImpurityOfCounts(classify.Gini{}, d.ClassHistogram(c.Idx))
	best := math.Inf(1)
	var bestSplit *classify.Split
	for a := range d.Attrs {
		var sp *classify.Split
		var imp float64
		if d.Attrs[a].Kind == dataset.Numeric {
			sp, imp = numericSplit(c, a)
		} else {
			sp, imp = categoricalSplit(c, a)
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

func numericSplit(c *classify.Cases, attr int) (*classify.Split, float64) {
	baskets := CoalesceBaskets(MergeBoundary(c.Baskets(attr)), maxBaskets)
	if len(baskets) < 2 {
		return nil, 0
	}
	opt := OptimalSubK(classify.Gini{}, baskets, maxBranches)
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

func categoricalSplit(c *classify.Cases, attr int) (*classify.Split, float64) {
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
		opt := OptimalSubK(classify.Gini{}, perm, maxBranches)
		if opt.Impurity < bestImp-1e-12 ||
			(opt.Impurity < bestImp+1e-12 && opt.Branches < bestOpt.Branches) {
			bestImp = opt.Impurity
			bestOpt = opt
			bestOrder = append([]int(nil), order...)
		}
	}

	if len(baskets) <= maxPermValues {
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
	return classify.Grow(d, idx, NewSelector(), cfg.MaxDepth)
}

// TrainCV is NyuMiner-CV: grow the main tree, prune it by minimal cost
// complexity with V-fold cross validation, return the selected pruned
// tree (section 5.4.1).
func TrainCV(d *dataset.Dataset, idx []int, v int, cfg Config, rng *rand.Rand) *classify.PrunedTree {
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return Grow(dd, ii, cfg) }
	pt, _ := classify.CVPrune(d, idx, v, grow, rng)
	return pt
}

// Sample is one multiple-incremental-sampling episode (section 5.4.2)
// of unpruned trees, from an initial subset of a fifth of the cases or
// 50, whichever is larger.
func Sample(d *dataset.Dataset, idx []int, cfg Config, rng *rand.Rand) *classify.Tree {
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return Grow(dd, ii, cfg) }
	return classify.Window(d, idx, max(len(idx)/5, 50), grow, rng)
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

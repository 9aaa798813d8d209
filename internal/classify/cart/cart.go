// Package cart is a from-scratch implementation of CART (Breiman,
// Friedman, Olshen & Stone 1984) as the dissertation uses it for
// comparison (section 5.5, via the IND package): Gini-index binary
// splits for both numerical and categorical variables, grown to purity
// and pruned by minimal cost-complexity pruning with V-fold cross
// validation.
package cart

import (
	"math"
	"math/rand"
	"sort"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

// maxSubsetArity bounds the exact categorical subset enumeration;
// attributes with more distinct values use the class-proportion
// ordering (exact for two classes by the CART ordering theorem).
const maxSubsetArity = 10

// Selector implements CART's binary Gini split search.
type Selector struct{}

// NewSelector returns a CART split selector.
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
			sp, imp = numeric(c, a)
		} else {
			sp, imp = categorical(c, a, maxSubsetArity)
		}
		if sp != nil && imp < best-1e-12 {
			best = imp
			bestSplit = sp
		}
	}
	if bestSplit == nil || best >= parent-1e-12 {
		return nil
	}
	return bestSplit
}

func numeric(c *classify.Cases, attr int) (*classify.Split, float64) {
	best := math.Inf(1)
	bestCut := math.NaN()
	c.BinaryCuts(attr, 1, func(cut float64, branches [][]int) {
		if imp := classify.AggregateImpurity(classify.Gini{}, branches); imp < best {
			best, bestCut = imp, cut
		}
	})
	if math.IsNaN(bestCut) {
		return nil, 0
	}
	return &classify.Split{Attr: attr, Kind: dataset.Numeric, Cuts: []float64{bestCut}, Branches: 2}, best
}

// categorical is the best binary split of a categorical attribute: an
// exact search over its value subsets when it has at most arity
// present values, the class-proportion ordering otherwise.
func categorical(c *classify.Cases, attr, arity int) (*classify.Split, float64) {
	perVal := c.Baskets(attr)
	nc := len(c.Data.Classes)
	var present []int
	for v, b := range perVal {
		if b.N > 0 {
			present = append(present, v)
		}
	}
	if len(present) < 2 {
		return nil, 0
	}

	// eval scores the binary split that sends the values marked in
	// inLeft left; one pair of histograms serves every candidate.
	left, right := make([]int, nc), make([]int, nc)
	branches := [][]int{left, right}
	inLeft := make([]bool, len(perVal))
	eval := func() (float64, bool) {
		clear(left)
		clear(right)
		nl, nr := 0, 0
		for _, v := range present {
			for cl, n := range perVal[v].Counts {
				if inLeft[v] {
					left[cl] += n
					nl += n
				} else {
					right[cl] += n
					nr += n
				}
			}
		}
		if nl == 0 || nr == 0 {
			return 0, false
		}
		return classify.AggregateImpurity(classify.Gini{}, branches), true
	}

	best := math.Inf(1)
	var bestLeft []bool
	try := func() {
		if imp, ok := eval(); ok && imp < best {
			best = imp
			bestLeft = append(bestLeft[:0], inLeft...)
		}
	}
	if len(present) <= arity {
		// Exact search over the 2^(m-1)-1 distinct binary partitions.
		m := len(present)
		for mask := 1; mask < 1<<(m-1); mask++ {
			for bit, v := range present {
				inLeft[v] = mask&(1<<bit) != 0
			}
			try()
		}
	} else {
		// Order values by the proportion of class 0 and scan prefix
		// splits (the CART ordering theorem; exact for two classes).
		order := append([]int(nil), present...)
		sort.SliceStable(order, func(i, j int) bool {
			pi := float64(perVal[order[i]].Counts[0]) / float64(perVal[order[i]].N)
			pj := float64(perVal[order[j]].Counts[0]) / float64(perVal[order[j]].N)
			return pi < pj
		})
		for _, v := range order[:len(order)-1] {
			inLeft[v] = true // the left side is a growing prefix of order
			try()
		}
	}
	if bestLeft == nil {
		return nil, 0
	}
	assign := make([]int, len(perVal))
	for v := range assign {
		if !bestLeft[v] {
			assign[v] = 1
		}
	}
	return &classify.Split{Attr: attr, Kind: dataset.Categorical, Assign: assign, Branches: 2}, best
}

// Grow builds an unpruned CART tree.
func Grow(d *dataset.Dataset, idx []int) *classify.Tree {
	return classify.Grow(d, idx, NewSelector(), 0)
}

// TrainCV grows a CART tree and prunes it by minimal cost-complexity
// pruning with V-fold cross validation, CART's standard recipe.
func TrainCV(d *dataset.Dataset, idx []int, v int, rng *rand.Rand) *classify.PrunedTree {
	pt, _ := classify.CVPrune(d, idx, v, Grow, rng)
	return pt
}

// Package c45 is a from-scratch implementation of the C4.5 decision
// tree learner (Quinlan 1993) in the form the dissertation compares
// against (section 5.5) and parallelizes (section 6.2.1): gain-ratio
// attribute selection with binary splits on numerical variables and
// m-way splits on categorical variables, pessimistic (confidence
// based) error pruning, and the windowing technique for multiple
// trials.
package c45

import (
	"math"
	"math/rand"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

// C4.5's two settings, at the defaults the dissertation runs.
const (
	// confidence is the pruning confidence factor (C4.5's -c).
	confidence = 0.25
	// minCases is the fewest cases a binary cut may leave in either
	// branch (C4.5's -m).
	minCases = 2
)

// Selector implements C4.5's attribute selection: the split with the
// highest gain ratio among those whose information gain is at least
// the average gain of all candidate splits.
type Selector struct{}

// NewSelector returns a C4.5 split selector.
func NewSelector() *Selector { return &Selector{} }

type candidate struct {
	split *classify.Split
	gain  float64
	ratio float64
}

// Select implements classify.SplitSelector.
func (s *Selector) Select(c *classify.Cases) *classify.Split {
	d := c.Data
	info := classify.ImpurityOfCounts(classify.Entropy{}, d.ClassHistogram(c.Idx))
	var cands []candidate
	for a := range d.Attrs {
		var cand *candidate
		if d.Attrs[a].Kind == dataset.Numeric {
			cand = numericCandidate(c, a, info)
		} else {
			cand = categoricalCandidate(c, a, info)
		}
		if cand != nil {
			cands = append(cands, *cand)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	avgGain := 0.0
	for _, cand := range cands {
		avgGain += cand.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	for i, cand := range cands {
		// The gain restriction guards the ratio's bias toward splits
		// with tiny split info.
		if cand.gain < avgGain-1e-12 || cand.gain <= 1e-12 {
			continue
		}
		if best < 0 || cand.ratio > cands[best].ratio {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return cands[best].split
}

func numericCandidate(c *classify.Cases, attr int, info float64) *candidate {
	bestGain, bestRatio, bestCut := -1.0, 0.0, 0.0
	c.BinaryCuts(attr, minCases, func(cut float64, branches [][]int) {
		if g := classify.InfoGain(info, branches); g > bestGain {
			bestGain, bestRatio, bestCut = g, classify.GainRatio(g, branches), cut
		}
	})
	if bestGain <= 0 {
		return nil
	}
	return &candidate{
		split: &classify.Split{Attr: attr, Kind: dataset.Numeric, Cuts: []float64{bestCut}, Branches: 2},
		gain:  bestGain,
		ratio: bestRatio,
	}
}

func categoricalCandidate(c *classify.Cases, attr int, info float64) *candidate {
	baskets := c.Baskets(attr)
	branches := make([][]int, len(baskets))
	nonEmpty := 0
	for v, b := range baskets {
		branches[v] = b.Counts
		if b.N > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return nil
	}
	g := classify.InfoGain(info, branches)
	if g <= 0 {
		return nil
	}
	assign := make([]int, len(baskets))
	for v := range assign {
		assign[v] = v
	}
	return &candidate{
		split: &classify.Split{Attr: attr, Kind: dataset.Categorical, Assign: assign, Branches: len(baskets)},
		gain:  g,
		ratio: classify.GainRatio(g, branches),
	}
}

// Grow builds an unpruned C4.5 tree.
func Grow(d *dataset.Dataset, idx []int) *classify.Tree {
	return classify.Grow(d, idx, NewSelector(), 0)
}

// UCF is C4.5's pessimistic error estimate: the upper limit of the
// confidence interval for the true error probability of a leaf that
// misclassified e of n cases, at confidence level cf. It inverts the
// binomial tail P(X <= e | n, p) = cf by bisection on p.
func UCF(e, n int, cf float64) float64 {
	if n == 0 {
		return 0
	}
	if e >= n {
		return 1
	}
	if n > 50 {
		// Large samples: the Wilson score upper bound with
		// z = Phi^-1(1-cf) agrees with the exact inversion to well
		// under the pruning decision tolerance and avoids the O(e)
		// tail sum on big nodes.
		z := math.Sqrt2 * math.Erfinv(1-2*cf)
		p := float64(e) / float64(n)
		nn := float64(n)
		denom := 1 + z*z/nn
		center := p + z*z/(2*nn)
		rad := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
		u := (center + rad) / denom
		if u > 1 {
			u = 1
		}
		if u < p {
			u = p
		}
		return u
	}
	// P(X <= e) under Binomial(n, p), computed in log space.
	tail := func(p float64) float64 {
		if p <= 0 {
			return 1
		}
		if p >= 1 {
			return 0
		}
		lp, lq := math.Log(p), math.Log1p(-p)
		s := 0.0
		for k := 0; k <= e; k++ {
			s += math.Exp(lchoose(n, k) + float64(k)*lp + float64(n-k)*lq)
		}
		return s
	}
	lo, hi := float64(e)/float64(n), 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > cf {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func lchoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// Prune applies C4.5's pessimistic pruning in place: bottom-up, a
// subtree whose predicted errors are not lower than those of a leaf in
// its place collapses into that leaf.
func Prune(t *classify.Tree) {
	prune(t.Root)
}

// prune prunes the subtree at n and returns its predicted errors after
// pruning: n * UCF(e, n) summed over its leaves.
func prune(n *classify.Node) float64 {
	leafErr := float64(n.N) * UCF(n.Errors(), n.N, confidence)
	if n.IsLeaf() {
		return leafErr
	}
	subErr := 0.0
	for _, ch := range n.Children {
		subErr += prune(ch)
	}
	if leafErr <= subErr+1e-9 {
		n.Split = nil
		n.Children = nil
		return leafErr
	}
	return subErr
}

// Train grows and prunes a C4.5 tree on the whole training set.
func Train(d *dataset.Dataset, idx []int) *classify.Tree {
	t := Grow(d, idx)
	Prune(t)
	return t
}

// Window runs one windowing episode (section 5.4.2's description of
// C4.5's technique) of pruned trees, from an initial window of a fifth
// of the cases or twice their square root, whichever is larger.
func Window(d *dataset.Dataset, idx []int, rng *rand.Rand) *classify.Tree {
	initial := max(len(idx)/5, int(2*math.Sqrt(float64(len(idx)))))
	return classify.Window(d, idx, initial, Train, rng)
}

// TrainTrialsSeeded runs the windowing technique for the given number
// of trials and returns the trial tree that misclassifies the fewest
// cases of the full training set (resubstitution errors; the first
// such tree on a tie). Each trial has a private RNG
// seeded base+trial, so sequential and parallel executions of the same
// trials produce identical trees regardless of scheduling.
func TrainTrialsSeeded(d *dataset.Dataset, idx []int, trials int, base int64) *classify.Tree {
	if trials < 1 {
		trials = 1
	}
	var best *classify.Tree
	bestErr := math.Inf(1)
	for t := 0; t < trials; t++ {
		tree := TrialTree(d, idx, base, t)
		errs := float64(len(idx)) - float64(len(idx))*tree.Accuracy(d, idx)
		if errs < bestErr {
			bestErr = errs
			best = tree
		}
	}
	return best
}

// TrialTree runs the windowing episode for one trial with its
// deterministic per-trial RNG.
func TrialTree(d *dataset.Dataset, idx []int, base int64, trial int) *classify.Tree {
	return Window(d, idx, rand.New(rand.NewSource(base+int64(trial))))
}

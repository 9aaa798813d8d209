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

// Config parameterizes C4.5.
type Config struct {
	// CF is the pruning confidence factor (default 0.25, C4.5's -c).
	CF float64
	// MinSplit is C4.5's -m: minimum cases in at least two branches
	// (default 2).
	MinSplit int
}

func (c Config) withDefaults() Config {
	if c.CF == 0 {
		c.CF = 0.25
	}
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// Selector implements C4.5's attribute selection: the split with the
// highest gain ratio among those whose information gain is at least
// the average gain of all candidate splits.
type Selector struct{ cfg Config }

// NewSelector returns a C4.5 split selector.
func NewSelector(cfg Config) *Selector { return &Selector{cfg.withDefaults()} }

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
			cand = s.numericCandidate(c, a, info)
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

func (s *Selector) numericCandidate(c *classify.Cases, attr int, info float64) *candidate {
	bestGain, bestRatio, bestCut := -1.0, 0.0, 0.0
	c.BinaryCuts(attr, s.cfg.MinSplit, func(cut float64, branches [][]int) {
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
func Grow(d *dataset.Dataset, idx []int, cfg Config) *classify.Tree {
	cfg = cfg.withDefaults()
	return classify.Grow(d, idx, NewSelector(cfg), classify.GrowOptions{MinSplit: cfg.MinSplit})
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

// predictedErrors is the pessimistic error count of a subtree: the sum
// over leaves of n * UCF(e, n, cf).
func predictedErrors(n *classify.Node, cf float64) float64 {
	if n.IsLeaf() {
		return float64(n.N) * UCF(n.Errors(), n.N, cf)
	}
	s := 0.0
	for _, ch := range n.Children {
		s += predictedErrors(ch, cf)
	}
	return s
}

// Prune applies C4.5's pessimistic pruning in place: bottom-up, a
// subtree whose predicted errors are not lower than those of a leaf in
// its place collapses into that leaf.
func Prune(t *classify.Tree, cfg Config) {
	cfg = cfg.withDefaults()
	var walk func(n *classify.Node)
	walk = func(n *classify.Node) {
		if n.IsLeaf() {
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
		leafErr := float64(n.N) * UCF(n.Errors(), n.N, cfg.CF)
		subErr := predictedErrors(n, cfg.CF)
		if leafErr <= subErr+1e-9 {
			n.Split = nil
			n.Children = nil
		}
	}
	walk(t.Root)
}

// Train grows and prunes a C4.5 tree on the whole training set.
func Train(d *dataset.Dataset, idx []int, cfg Config) *classify.Tree {
	t := Grow(d, idx, cfg)
	Prune(t, cfg)
	return t
}

// Window runs one windowing episode (section 5.4.2's description of
// C4.5's technique): grow a pruned tree from a random initial window,
// add a selection of the cases it misclassifies, and repeat until the
// tree classifies the remaining cases correctly or the window covers
// the training set.
func Window(d *dataset.Dataset, idx []int, cfg Config, rng *rand.Rand) *classify.Tree {
	cfg = cfg.withDefaults()
	perm := append([]int(nil), idx...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	initial := len(perm) / 5
	if s := int(2 * math.Sqrt(float64(len(perm)))); s > initial {
		initial = s
	}
	if initial > len(perm) {
		initial = len(perm)
	}
	window := append([]int(nil), perm[:initial]...)
	rest := perm[initial:]
	for {
		tree := Train(d, window, cfg)
		var miss, stay []int
		for _, i := range rest {
			if tree.Classify(d.Instances[i].Vals) != d.Class(i) {
				miss = append(miss, i)
			} else {
				stay = append(stay, i)
			}
		}
		if len(miss) == 0 {
			return tree
		}
		take := len(miss)
		if limit := len(window)/2 + 1; take > limit {
			take = limit
		}
		window = append(window, miss[:take]...)
		rest = append(stay, miss[take:]...)
		if len(window) >= len(idx) {
			return Train(d, idx, cfg)
		}
	}
}

// TrainTrialsSeeded runs the windowing technique for the given number
// of trials and returns the trial tree that misclassifies the fewest
// cases of the full training set (resubstitution errors; the first
// such tree on a tie). Each trial has a private RNG
// seeded base+trial, so sequential and parallel executions of the same
// trials produce identical trees regardless of scheduling.
func TrainTrialsSeeded(d *dataset.Dataset, idx []int, trials int, cfg Config, base int64) *classify.Tree {
	cfg = cfg.withDefaults()
	if trials < 1 {
		trials = 1
	}
	var best *classify.Tree
	bestErr := math.Inf(1)
	for t := 0; t < trials; t++ {
		tree := TrialTree(d, idx, cfg, base, t)
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
func TrialTree(d *dataset.Dataset, idx []int, cfg Config, base int64, trial int) *classify.Tree {
	return Window(d, idx, cfg, rand.New(rand.NewSource(base+int64(trial))))
}

package classify

import (
	"math"
	"math/rand"

	"freepdm/internal/dataset"
)

// PrunedTree is one member of the minimal cost-complexity sequence
// T1 > T2 > ... > {root} (section 5.4.1): the original tree with a set
// of interior nodes collapsed into leaves.
type PrunedTree struct {
	Tree      *Tree
	Alpha     float64 // the complexity parameter at which this subtree becomes optimal
	LeafCount int
	Resub     int // R(T) in misclassified training cases
	collapsed map[*Node]bool
}

// Classify predicts with the pruned subtree.
func (pt *PrunedTree) Classify(vals []float64) int {
	n := pt.Tree.Root
	for !n.IsLeaf() && !pt.collapsed[n] {
		n = n.Children[n.Split.Branch(vals[n.Split.Attr])]
	}
	return n.Majority
}

// Accuracy is the fraction of idx classified correctly by the pruned
// subtree.
func (pt *PrunedTree) Accuracy(d *dataset.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	ok := 0
	for _, i := range idx {
		if pt.Classify(d.Instances[i].Vals) == d.Class(i) {
			ok++
		}
	}
	return float64(ok) / float64(len(idx))
}

// ccpInfo caches per-node subtree statistics under a collapse set.
type ccpInfo struct {
	leaves int
	errs   int
}

func ccpStats(n *Node, collapsed map[*Node]bool, memo map[*Node]ccpInfo) ccpInfo {
	if n.IsLeaf() || collapsed[n] {
		return ccpInfo{1, n.Errors()}
	}
	if v, ok := memo[n]; ok {
		return v
	}
	var agg ccpInfo
	for _, ch := range n.Children {
		s := ccpStats(ch, collapsed, memo)
		agg.leaves += s.leaves
		agg.errs += s.errs
	}
	memo[n] = agg
	return agg
}

// CCPSequence computes the minimal cost-complexity pruning sequence of
// a tree by repeatedly collapsing the weakest link — the interior node
// minimizing g(t) = (R(t)-R(T_t)) / (|leaves(T_t)|-1) — until only the
// root remains. The first element is T1 (the smallest subtree with
// R(T1)=R(Tmax), alpha=0); the last is the root-only tree.
func CCPSequence(t *Tree) []*PrunedTree {
	nRoot := t.Root.N
	collapsed := map[*Node]bool{}

	snapshot := func(alpha float64) *PrunedTree {
		memo := map[*Node]ccpInfo{}
		s := ccpStats(t.Root, collapsed, memo)
		cp := make(map[*Node]bool, len(collapsed))
		for k := range collapsed {
			cp[k] = true
		}
		return &PrunedTree{Tree: t, Alpha: alpha, LeafCount: s.leaves, Resub: s.errs, collapsed: cp}
	}

	// T1: collapse every interior node whose subtree does not reduce
	// the resubstitution error (bottom-up).
	var initial func(n *Node)
	initial = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for _, ch := range n.Children {
			initial(ch)
		}
		memo := map[*Node]ccpInfo{}
		s := ccpStats(n, collapsed, memo)
		if s.errs >= n.Errors() {
			collapsed[n] = true
		}
	}
	initial(t.Root)
	seq := []*PrunedTree{snapshot(0)}

	for {
		// Gather live interior nodes.
		memo := map[*Node]ccpInfo{}
		var weakest *Node
		bestG := math.Inf(1)
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.IsLeaf() || collapsed[n] {
				return
			}
			s := ccpStats(n, collapsed, memo)
			if s.leaves > 1 {
				g := (float64(n.Errors()) - float64(s.errs)) / float64(nRoot) / float64(s.leaves-1)
				if g < bestG {
					bestG = g
					weakest = n
				}
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(t.Root)
		if weakest == nil {
			break
		}
		// Collapse every node attaining the minimal g (CART collapses
		// all weakest links at once).
		var collapseAll func(n *Node)
		collapseAll = func(n *Node) {
			if n.IsLeaf() || collapsed[n] {
				return
			}
			s := ccpStats(n, collapsed, memo)
			if s.leaves > 1 {
				g := (float64(n.Errors()) - float64(s.errs)) / float64(nRoot) / float64(s.leaves-1)
				if g <= bestG+1e-15 {
					collapsed[n] = true
					return
				}
			}
			for _, ch := range n.Children {
				collapseAll(ch)
			}
		}
		collapseAll(t.Root)
		seq = append(seq, snapshot(bestG))
	}
	return seq
}

// GrowFunc builds a tree on a training index set; the CV pruner uses
// it for both the main tree and the V auxiliary trees, and Window for
// every window.
type GrowFunc func(d *dataset.Dataset, idx []int) *Tree

// CVPrune implements minimal cost-complexity pruning with V-fold cross
// validation: grow the main tree on idx and V auxiliary trees on the
// learning samples L-L_v, estimate R^CV(T_k) for each member of the
// main sequence by classifying the held-out folds with the auxiliary
// subtrees at the geometric-midpoint alphas, and return the member
// with the smallest cross-validated error (ties favor the smaller
// tree). It also returns the R^CV estimates.
func CVPrune(d *dataset.Dataset, idx []int, v int, grow GrowFunc, rng *rand.Rand) (*PrunedTree, []float64) {
	main := grow(d, idx)
	seq := CCPSequence(main)
	if v < 2 || len(seq) == 1 {
		return seq[0], []float64{float64(seq[0].Resub) / float64(len(idx))}
	}
	folds := d.Folds(idx, v, rng)
	curves := make([]FoldCurve, v)
	for i, fold := range folds {
		aux := grow(d, dataset.WithoutFold(idx, fold))
		curves[i] = NewFoldCurve(CCPSequence(aux), d, fold)
	}
	return SelectByCurves(seq, curves, len(idx))
}

// FoldCurve is the cross-validation error of one auxiliary tree's CCP
// sequence on its held-out fold: for any complexity parameter, the
// number of fold cases misclassified by the subtree optimal there.
// It is the unit of work a Parallel NyuMiner-CV worker computes and
// sends back through the tuple space (figure 6.2's "alpha_list").
type FoldCurve struct {
	Alphas []float64
	Errs   []int
}

// NewFoldCurve evaluates an auxiliary sequence on a fold.
func NewFoldCurve(auxSeq []*PrunedTree, d *dataset.Dataset, fold []int) FoldCurve {
	fc := FoldCurve{
		Alphas: make([]float64, len(auxSeq)),
		Errs:   make([]int, len(auxSeq)),
	}
	for k, pt := range auxSeq {
		fc.Alphas[k] = pt.Alpha
		e := 0
		for _, j := range fold {
			if pt.Classify(d.Instances[j].Vals) != d.Class(j) {
				e++
			}
		}
		fc.Errs[k] = e
	}
	return fc
}

// ErrsAt returns the fold errors of the subtree optimal at alpha: the
// curve entry with the largest alpha not exceeding it.
func (fc FoldCurve) ErrsAt(alpha float64) int {
	best := 0
	for k := range fc.Alphas {
		if fc.Alphas[k] <= alpha {
			best = k
		}
	}
	return fc.Errs[best]
}

// SelectByCurves combines the fold curves into R^CV estimates for each
// member of the main sequence (at the geometric-midpoint alphas) and
// picks the member with minimal cross-validated error, ties favoring
// the smaller tree. n is the training-set size.
func SelectByCurves(seq []*PrunedTree, curves []FoldCurve, n int) (*PrunedTree, []float64) {
	rcv := make([]float64, len(seq))
	for k := range seq {
		var alphaP float64
		switch {
		case k+1 < len(seq):
			alphaP = math.Sqrt(seq[k].Alpha * seq[k+1].Alpha)
		default:
			alphaP = math.Inf(1)
		}
		errs := 0
		for _, fc := range curves {
			errs += fc.ErrsAt(alphaP)
		}
		rcv[k] = float64(errs) / float64(n)
	}
	bestK := 0
	for k := 1; k < len(seq); k++ {
		if rcv[k] <= rcv[bestK] {
			bestK = k // ties favor the later (smaller) subtree
		}
	}
	return seq[bestK], rcv
}

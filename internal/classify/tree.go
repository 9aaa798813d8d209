package classify

import (
	"fmt"
	"math/rand"
	"strings"

	"freepdm/internal/dataset"
)

// Split is a multi-way partition of a node's instances on one
// attribute. Numeric splits are defined by sorted cut points (branch i
// holds values <= Cuts[i], the last branch holds the rest); categorical
// splits assign each category index to a branch. Missing values follow
// the default branch, the one that received the most training cases.
type Split struct {
	Attr     int
	Kind     dataset.Kind
	Cuts     []float64 // numeric: len = branches-1, ascending
	Assign   []int     // categorical: value index -> branch
	Branches int
	Default  int
}

// Branch routes a value of the split attribute to a child index.
func (s *Split) Branch(v float64) int {
	if dataset.IsMissing(v) {
		return s.Default
	}
	if s.Kind == dataset.Numeric {
		for i, c := range s.Cuts {
			if v <= c {
				return i
			}
		}
		return len(s.Cuts)
	}
	vi := int(v)
	if vi < 0 || vi >= len(s.Assign) {
		return s.Default
	}
	return s.Assign[vi]
}

// Describe renders the condition selecting branch b, for rule display.
func (s *Split) Describe(d *dataset.Dataset, b int) string {
	a := d.Attrs[s.Attr]
	if s.Kind == dataset.Numeric {
		switch {
		case b == 0:
			return fmt.Sprintf("%s <= %.4g", a.Name, s.Cuts[0])
		case b == len(s.Cuts):
			return fmt.Sprintf("%s > %.4g", a.Name, s.Cuts[b-1])
		default:
			return fmt.Sprintf("%.4g < %s <= %.4g", s.Cuts[b-1], a.Name, s.Cuts[b])
		}
	}
	var vals []string
	for vi, br := range s.Assign {
		if br == b {
			vals = append(vals, a.Values[vi])
		}
	}
	return fmt.Sprintf("%s in {%s}", a.Name, strings.Join(vals, ","))
}

// Node is a decision-tree node. Interior nodes carry a Split and
// children; every node carries its training class histogram, from
// which majority class, confidence, and support derive.
type Node struct {
	Split    *Split
	Children []*Node
	Counts   []int // class histogram of the training cases reaching this node
	Majority int
	N        int // total training cases at this node
}

// IsLeaf reports whether the node has no split.
func (n *Node) IsLeaf() bool { return n.Split == nil }

// Errors is R(t): training cases at this node not of its majority
// class — the resubstitution error of the node as a leaf.
func (n *Node) Errors() int { return n.N - n.Counts[n.Majority] }

// Tree is a grown classification tree bound to its dataset schema.
type Tree struct {
	Root *Node
	Data *dataset.Dataset // schema provider (attribute/class names)
}

// SplitSelector chooses the best split of a node's cases, or nil to
// declare the node a leaf. This is the only thing that differs between
// NyuMiner, C4.5 and CART.
type SplitSelector interface {
	Select(c *Cases) *Split
}

// minSplit is the smallest node that may be split; a smaller one
// becomes a leaf.
const minSplit = 2

// Grow builds a tree over the given instance indexes using the
// selector at every node, following the greedy top-down scheme of
// section 2.1.4: split until leaves are pure (or bounds are hit).
// A positive maxDepth bounds the depth of the tree.
func Grow(d *dataset.Dataset, idx []int, sel SplitSelector, maxDepth int) *Tree {
	return &Tree{Root: grow(NewCases(d, idx), sel, maxDepth, 0), Data: d}
}

func grow(c *Cases, sel SplitSelector, maxDepth, depth int) *Node {
	d := c.Data
	n := &Node{Counts: d.ClassHistogram(c.Idx), N: len(c.Idx)}
	n.Majority, _ = d.MajorityClass(c.Idx)
	if n.Errors() == 0 || len(c.Idx) < minSplit ||
		(maxDepth > 0 && depth >= maxDepth) {
		return n
	}
	sp := sel.Select(c)
	if sp == nil {
		return n
	}
	parts := Partition(d, c.Idx, sp)
	// A split that fails to separate anything would recurse forever.
	nonEmpty := 0
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return n
	}
	n.Split = sp
	n.Children = make([]*Node, len(parts))
	for b, kid := range c.split(parts) {
		if len(kid.Idx) == 0 {
			// Empty branch: a leaf predicting the parent majority.
			n.Children[b] = &Node{Counts: make([]int, len(d.Classes)), Majority: n.Majority}
			continue
		}
		n.Children[b] = grow(kid, sel, maxDepth, depth+1)
	}
	return n
}

// Window is the windowing loop of section 5.4.2, shared by C4.5's
// trials and NyuMiner-RS's multiple incremental sampling: shuffle the
// training set, grow a tree on its first initial cases, add the cases
// it misclassifies (at most half the window plus one per round, so the
// window grows geometrically), and repeat until the tree classifies
// the remaining cases correctly or the window covers the training set,
// in which case the tree is grown on all of it.
func Window(d *dataset.Dataset, idx []int, initial int, grow GrowFunc, rng *rand.Rand) *Tree {
	perm := append([]int(nil), idx...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	initial = min(initial, len(perm))
	window := append([]int(nil), perm[:initial]...)
	rest := perm[initial:]
	for {
		tree := grow(d, window)
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
		take := min(len(miss), len(window)/2+1)
		window = append(window, miss[:take]...)
		rest = append(stay, miss[take:]...)
		if len(window) >= len(idx) {
			return grow(d, idx)
		}
	}
}

// Partition routes instances into the split's branches. The split's
// Default is first re-pointed at the branch receiving the most
// non-missing cases, then missing-valued cases follow it.
func Partition(d *dataset.Dataset, idx []int, sp *Split) [][]int {
	parts := make([][]int, sp.Branches)
	var missing []int
	for _, i := range idx {
		v := d.Value(i, sp.Attr)
		if dataset.IsMissing(v) {
			missing = append(missing, i)
			continue
		}
		b := sp.Branch(v)
		parts[b] = append(parts[b], i)
	}
	best, bestN := 0, -1
	for b, p := range parts {
		if len(p) > bestN {
			best, bestN = b, len(p)
		}
	}
	sp.Default = best
	parts[best] = append(parts[best], missing...)
	return parts
}

// Classify predicts the class index of an instance's values.
func (t *Tree) Classify(vals []float64) int {
	n := t.Root
	for !n.IsLeaf() {
		n = n.Children[n.Split.Branch(vals[n.Split.Attr])]
	}
	return n.Majority
}

// Accuracy is the fraction of the given instances the tree classifies
// correctly.
func (t *Tree) Accuracy(d *dataset.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	ok := 0
	for _, i := range idx {
		if t.Classify(d.Instances[i].Vals) == d.Class(i) {
			ok++
		}
	}
	return float64(ok) / float64(len(idx))
}

// String renders the tree for inspection, in the style of figure 5.6.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, prefix, label string)
	walk = func(n *Node, prefix, label string) {
		if label != "" {
			fmt.Fprintf(&b, "%s[%s]\n", prefix, label)
			prefix += "  "
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s<%s> (n=%d)\n", prefix, t.Data.Classes[n.Majority], n.N)
			return
		}
		fmt.Fprintf(&b, "%ssplit on %s <%s> (n=%d)\n",
			prefix, t.Data.Attrs[n.Split.Attr].Name, t.Data.Classes[n.Majority], n.N)
		for i, ch := range n.Children {
			walk(ch, prefix+"  ", n.Split.Describe(t.Data, i))
		}
	}
	walk(t.Root, "", "")
	return b.String()
}

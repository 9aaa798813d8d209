// Package rnatree provides the RNA secondary structure substrate of
// section 4.1.2 of "Free Parallel Data Mining": ordered labeled trees
// whose nodes are hairpins (H), internal loops (I), bulges (B),
// multi-branch loops (M), helical stems (R) and the connection node
// (N), tree edit distance with cuttings in the sense of Shapiro &
// Zhang / Wang et al., and occurrence counting of tree motifs.
package rnatree

import (
	"fmt"
	"math/rand"
	"strings"
)

// Labels of RNA structural tree nodes (figure 4.2).
const Labels = "HIBMRN"

// Tree is an ordered labeled tree.
type Tree struct {
	Label    string
	Children []*Tree
}

// New builds a node.
func New(label string, children ...*Tree) *Tree {
	return &Tree{Label: label, Children: children}
}

// Size is the number of nodes.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// String renders the tree in the parenthesized form accepted by Parse:
// label(child child ...).
func (t *Tree) String() string {
	if len(t.Children) == 0 {
		return t.Label
	}
	parts := make([]string, len(t.Children))
	for i, c := range t.Children {
		parts[i] = c.String()
	}
	return t.Label + "(" + strings.Join(parts, " ") + ")"
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{Label: t.Label}
	for _, ch := range t.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Equal reports structural and label equality.
func (t *Tree) Equal(o *Tree) bool {
	if t.Label != o.Label || len(t.Children) != len(o.Children) {
		return false
	}
	for i := range t.Children {
		if !t.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Nodes returns every node in preorder; each roots a subtree of t.
func (t *Tree) Nodes() []*Tree {
	out := []*Tree{t}
	for _, c := range t.Children {
		out = append(out, c.Nodes()...)
	}
	return out
}

// Parse reads the parenthesized notation produced by String. Labels
// are single tokens without whitespace or parentheses.
func Parse(s string) (*Tree, error) {
	p := &parser{s: s}
	t, err := p.tree()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.i != len(p.s) {
		return nil, fmt.Errorf("rnatree: trailing input at %d in %q", p.i, s)
	}
	return t, nil
}

type parser struct {
	s string
	i int
}

func (p *parser) ws() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *parser) tree() (*Tree, error) {
	p.ws()
	start := p.i
	for p.i < len(p.s) && !strings.ContainsRune("() \t", rune(p.s[p.i])) {
		p.i++
	}
	if p.i == start {
		return nil, fmt.Errorf("rnatree: expected label at %d in %q", p.i, p.s)
	}
	t := &Tree{Label: p.s[start:p.i]}
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == '(' {
		p.i++
		for {
			p.ws()
			if p.i < len(p.s) && p.s[p.i] == ')' {
				p.i++
				break
			}
			if p.i >= len(p.s) {
				return nil, fmt.Errorf("rnatree: unclosed '(' in %q", p.s)
			}
			c, err := p.tree()
			if err != nil {
				return nil, err
			}
			t.Children = append(t.Children, c)
		}
	}
	return t, nil
}

// forest is an ordered sequence of trees; the edit DP works on
// forests, always acting on the rightmost root.
type forest []*Tree

func (f forest) key() string {
	parts := make([]string, len(f))
	for i, t := range f {
		parts[i] = t.String()
	}
	return strings.Join(parts, "|")
}

func (f forest) size() int {
	n := 0
	for _, t := range f {
		n += t.Size()
	}
	return n
}

// dropRightRoot removes the rightmost root, promoting its children
// (the effect of deleting that node).
func (f forest) dropRightRoot() forest {
	last := f[len(f)-1]
	out := append(forest(nil), f[:len(f)-1]...)
	out = append(out, last.Children...)
	return out
}

// dropRightTree removes the whole rightmost tree (a cutting).
func (f forest) dropRightTree() forest {
	return append(forest(nil), f[:len(f)-1]...)
}

// CutDistance is the edit distance from motif m to data tree u where
// nodes of m may be inserted/deleted/relabeled at unit cost, nodes of
// u may be deleted at unit cost, and additionally any whole subtree of
// u may be CUT at zero cost (removing a node and all its descendants),
// per the motif-occurrence definition of section 4.1.2.
func CutDistance(m, u *Tree) int {
	memo := map[string]int{}
	return forestCutDist(forest{m}, forest{u}, memo)
}

func forestCutDist(a, b forest, memo map[string]int) int {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 {
		// Cut every remaining data tree for free.
		return 0
	}
	if len(b) == 0 {
		return a.size() // delete every remaining motif node
	}
	key := a.key() + "\x00" + b.key()
	if v, ok := memo[key]; ok {
		return v
	}
	ra := a[len(a)-1]
	rb := b[len(b)-1]
	// Delete the rightmost motif node.
	best := forestCutDist(a.dropRightRoot(), b, memo) + 1
	// Delete the rightmost data node (children promoted).
	if v := forestCutDist(a, b.dropRightRoot(), memo) + 1; v < best {
		best = v
	}
	// Cut the rightmost data subtree entirely, for free.
	if v := forestCutDist(a, b.dropRightTree(), memo); v < best {
		best = v
	}
	// Match the rightmost roots.
	sub := 0
	if ra.Label != rb.Label {
		sub = 1
	}
	v := forestCutDist(forest(ra.Children), forest(rb.Children), memo) +
		forestCutDist(a.dropRightTree(), b.dropRightTree(), memo) + sub
	if v < best {
		best = v
	}
	memo[key] = best
	return best
}

// Contains reports whether tree t contains motif m within distance d:
// some subtree u of t has CutDistance(m, u) <= d.
func Contains(t, m *Tree, d int) bool {
	for _, u := range t.Nodes() {
		if CutDistance(m, u) <= d {
			return true
		}
	}
	return false
}

// OccurrenceNo is the number of trees in the set containing the motif
// within distance d.
func OccurrenceNo(set []*Tree, m *Tree, d int) int {
	c := 0
	for _, t := range set {
		if Contains(t, m, d) {
			c++
		}
	}
	return c
}

// RandomStructure generates a plausible RNA structural tree: an N root
// with stem/loop alternation, approximately the given size.
func RandomStructure(size int, rng *rand.Rand) *Tree {
	root := New("N")
	budget := size - 1
	var grow func(t *Tree, depth int)
	grow = func(t *Tree, depth int) {
		for budget > 0 {
			label := string(Labels[rng.Intn(4)]) // loops H I B M
			if depth%2 == 0 {
				label = "R" // stems connect loops
			}
			c := New(label)
			t.Children = append(t.Children, c)
			budget--
			if rng.Float64() < 0.6 && depth < 6 {
				grow(c, depth+1)
			}
			if rng.Float64() < 0.5 {
				return
			}
		}
	}
	grow(root, 1)
	return root
}

// PlantMotif grafts a copy of the motif under a random node of t.
func PlantMotif(t, m *Tree, rng *rand.Rand) {
	nodes := t.Nodes()
	host := nodes[rng.Intn(len(nodes))]
	host.Children = append(host.Children, m.Clone())
}

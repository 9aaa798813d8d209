// Package treemotif implements discovery of motifs in RNA secondary
// structures (section 4.1.2 of "Free Parallel Data Mining") as an
// E-dag application, per table 4.1: the database is a set of trees,
// patterns are subtree motifs, goodness is the occurrence number
// (trees containing the motif within the allowed distance, with
// cuttings), and a pattern is good when it reaches the minimum
// occurrence.
//
// Motifs grow by attaching a new rightmost leaf to any node on the
// rightmost path, which generates every ordered labeled tree exactly
// once (removing the rightmost leaf is the unique parent), giving the
// E-tree its unique-parent child relation.
package treemotif

import (
	"fmt"
	"strings"

	"freepdm/internal/core"
	"freepdm/internal/rnatree"
)

// Params are the user-specified parameters (section 4.1.2): Dist,
// Occur, Size, plus an exploration bound.
type Params struct {
	MinOccur int
	MaxDist  int
	MinSize  int
	MaxSize  int // exploration bound (0 = MinSize+3)
}

func (p Params) withDefaults() Params {
	if p.MaxSize == 0 {
		p.MaxSize = p.MinSize + 3
	}
	return p
}

// Problem is the tree-motif discovery task. It implements
// core.Problem, core.Decoder and core.CostModel.
type Problem struct {
	Trees  []*rnatree.Tree
	Params Params
	labels []string
	total  int // summed size of Trees, for Cost
}

// NewProblem builds the discovery problem; candidate node labels are
// those present in the database.
func NewProblem(trees []*rnatree.Tree, params Params) *Problem {
	seen := map[string]bool{}
	var labels []string
	total := 0
	for _, t := range trees {
		total += t.Size()
		for _, n := range t.Nodes() {
			if !seen[n.Label] {
				seen[n.Label] = true
				labels = append(labels, n.Label)
			}
		}
	}
	// Deterministic label order.
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[j] < labels[i] {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
	}
	return &Problem{Trees: trees, Params: params.withDefaults(), labels: labels, total: total}
}

type pattern struct {
	t   *rnatree.Tree // nil for the root (empty) pattern
	key string
}

func mkPattern(t *rnatree.Tree) pattern {
	if t == nil {
		return pattern{nil, ""}
	}
	return pattern{t, t.String()}
}

func (p pattern) Key() string { return p.key }
func (p pattern) Len() int {
	if p.t == nil {
		return 0
	}
	return p.t.Size()
}

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return mkPattern(nil) }

// Decode implements core.Decoder.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	if key == "" {
		return mkPattern(nil), nil
	}
	t, err := rnatree.Parse(key)
	if err != nil {
		return nil, fmt.Errorf("treemotif: %w", err)
	}
	return mkPattern(t), nil
}

// rightmostPath returns the nodes on the rightmost root-to-leaf path.
func rightmostPath(t *rnatree.Tree) []*rnatree.Tree {
	var out []*rnatree.Tree
	for n := t; n != nil; {
		out = append(out, n)
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[len(n.Children)-1]
	}
	return out
}

// Children implements core.Problem: attach a new rightmost leaf with
// each candidate label at each node of the rightmost path.
func (pr *Problem) Children(p core.Pattern) []core.Pattern {
	pp := p.(pattern)
	if pp.t == nil {
		out := make([]core.Pattern, 0, len(pr.labels))
		for _, l := range pr.labels {
			out = append(out, mkPattern(rnatree.New(l)))
		}
		return out
	}
	if pp.t.Size() >= pr.Params.MaxSize {
		return nil
	}
	var out []core.Pattern
	// Attachment hosts must be computed on fresh clones so patterns
	// stay immutable.
	path := rightmostPath(pp.t)
	for host := range path {
		for _, l := range pr.labels {
			c := pp.t.Clone()
			hostNode := rightmostPath(c)[host]
			hostNode.Children = append(hostNode.Children, rnatree.New(l))
			out = append(out, mkPattern(c))
		}
	}
	return out
}

// Subpatterns implements core.Problem: every tree obtained by removing
// one leaf (all immediate subpatterns of a connected subgraph motif).
func (pr *Problem) Subpatterns(p core.Pattern) []core.Pattern {
	pp := p.(pattern)
	if pp.t == nil || pp.t.Size() == 1 {
		return []core.Pattern{mkPattern(nil)}
	}
	var out []core.Pattern
	seen := map[string]bool{}
	leaves := countLeaves(pp.t)
	for li := 0; li < leaves; li++ {
		c := pp.t.Clone()
		n := li
		removeNthLeaf(c, &n)
		k := c.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, mkPattern(c))
		}
	}
	return out
}

func countLeaves(t *rnatree.Tree) int {
	if len(t.Children) == 0 {
		return 1
	}
	n := 0
	for _, c := range t.Children {
		n += countLeaves(c)
	}
	return n
}

// removeNthLeaf removes the n-th leaf (preorder) from t; returns true
// when removed. The root is never removed (size > 1 guaranteed).
func removeNthLeaf(t *rnatree.Tree, n *int) bool {
	for i := 0; i < len(t.Children); i++ {
		ch := t.Children[i]
		if len(ch.Children) == 0 {
			if *n == 0 {
				t.Children = append(t.Children[:i], t.Children[i+1:]...)
				return true
			}
			*n--
			continue
		}
		if removeNthLeaf(ch, n) {
			return true
		}
	}
	return false
}

// Goodness implements core.Problem: the occurrence number of the
// motif within the allowed distance.
func (pr *Problem) Goodness(p core.Pattern) float64 {
	pp := p.(pattern)
	if pp.t == nil {
		return float64(len(pr.Trees))
	}
	return float64(rnatree.OccurrenceNo(pr.Trees, pp.t, pr.Params.MaxDist))
}

// Good implements core.Problem.
func (pr *Problem) Good(p core.Pattern, goodness float64) bool {
	if p.Len() == 0 {
		return true
	}
	return int(goodness) >= pr.Params.MinOccur
}

// Cost implements core.CostModel: containment checking is roughly
// quadratic in motif size times total database size.
func (pr *Problem) Cost(p core.Pattern) float64 {
	m := p.Len()
	if m == 0 {
		return 0
	}
	return float64(m*m) * float64(pr.total) * float64(pr.Params.MaxDist+1) * 1e-6
}

// ActiveMotifs filters traversal results to motifs meeting the size
// minimum.
func (pr *Problem) ActiveMotifs(results []core.Result) []core.Result {
	var out []core.Result
	for _, r := range results {
		if r.Pattern.Len() >= pr.Params.MinSize {
			out = append(out, r)
		}
	}
	return out
}

// Discover runs the sequential E-tree traversal and returns active
// motifs.
func Discover(trees []*rnatree.Tree, params Params) []core.Result {
	pr := NewProblem(trees, params)
	res, _ := core.SolveETTSequential(pr)
	return pr.ActiveMotifs(res)
}

// Describe renders results for display.
func Describe(results []core.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s (occurs in %d)\n", r.Pattern.Key(), int(r.Goodness))
	}
	return b.String()
}

package classify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"freepdm/internal/dataset"
)

func TestImpurityDefinitionProperties(t *testing.T) {
	for _, im := range []Impurity{Gini{}, Entropy{}} {
		// Property 1: maximum only at the uniform distribution.
		uni := im.Of([]int{1, 1, 1, 1}, 4)
		if im.Of([]int{4, 3, 2, 1}, 10) >= uni {
			t.Errorf("%s: non-uniform >= uniform", im.Name())
		}
		// Property 2: minimum (0) exactly at pure distributions.
		if v := im.Of([]int{1, 0, 0, 0}, 1); v != 0 {
			t.Errorf("%s: pure impurity %v", im.Name(), v)
		}
		if im.Of([]int{9, 1, 0, 0}, 10) <= 0 {
			t.Errorf("%s: impure distribution has zero impurity", im.Name())
		}
		// Property 3: symmetry.
		a := im.Of([]int{7, 2, 1}, 10)
		b := im.Of([]int{1, 7, 2}, 10)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("%s not symmetric: %v vs %v", im.Name(), a, b)
		}
	}
}

// Property 4 of definition 5: strict concavity, via the merge lemma
// (lemma 4): merging two partitions never decreases aggregate impurity.
func TestPropertyMergeNeverDecreasesImpurity(t *testing.T) {
	f := func(c1a, c1b, c2a, c2b uint8) bool {
		b1 := []int{int(c1a)%20 + 1, int(c1b) % 20}
		b2 := []int{int(c2a) % 20, int(c2b)%20 + 1}
		merged := []int{b1[0] + b2[0], b1[1] + b2[1]}
		for _, im := range []Impurity{Gini{}, Entropy{}} {
			split := AggregateImpurity(im, [][]int{b1, b2})
			one := AggregateImpurity(im, [][]int{merged})
			if split > one+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInfoGainAndGainRatio(t *testing.T) {
	info := ImpurityOfCounts(Entropy{}, []int{8, 6}) // 14 cases
	branches := [][]int{{6, 1}, {2, 5}}
	g := InfoGain(info, branches)
	if g <= 0 {
		t.Fatalf("gain %v", g)
	}
	// info(T) = 0.98523, info_A(T) = (0.59167 + 0.86312)/2.
	if math.Abs(g-0.25783) > 1e-5 {
		t.Fatalf("gain %v, want 0.25783", g)
	}
	gr := GainRatio(g, branches)
	if gr <= 0 || gr > 1.5 {
		t.Fatalf("gain ratio %v", gr)
	}
	if math.Abs(gr-g) > 1e-12 { // two equal branches: split info 1
		t.Fatalf("gain ratio %v, want the gain %v", gr, g)
	}
	// Degenerate one-branch split: no gain and gain ratio 0.
	one := [][]int{{8, 6}}
	if g := InfoGain(info, one); g != 0 {
		t.Fatalf("one-branch gain %v", g)
	}
	if gr := GainRatio(InfoGain(info, one), one); gr != 0 {
		t.Fatalf("degenerate gain ratio %v", gr)
	}
}

// thresholdSelector is a trivial selector for testing the grower:
// binary split on attribute 0 at the midpoint, if it reduces errors.
type thresholdSelector struct{ cut float64 }

func (s thresholdSelector) Select(c *Cases) *Split {
	left, right := 0, 0
	for _, i := range c.Idx {
		v := c.Data.Value(i, 0)
		if dataset.IsMissing(v) {
			continue
		}
		if v <= s.cut {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		return nil
	}
	return &Split{Attr: 0, Kind: dataset.Numeric, Cuts: []float64{s.cut}, Branches: 2}
}

func xorDataset() *dataset.Dataset {
	d := &dataset.Dataset{
		Name:    "sep",
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"neg", "pos"},
	}
	for i := 0; i < 40; i++ {
		v := float64(i)
		c := 0
		if v >= 20 {
			c = 1
		}
		d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{v}, Class: c})
	}
	return d
}

func TestGrowAndClassifySeparable(t *testing.T) {
	d := xorDataset()
	tree := Grow(d, d.AllIndexes(), thresholdSelector{19.5}, 0)
	if acc := tree.Accuracy(d, d.AllIndexes()); acc != 1.0 {
		t.Fatalf("accuracy %v on separable data", acc)
	}
	if tree.Resubstitution() != 0 {
		t.Fatalf("resubstitution %d", tree.Resubstitution())
	}
	if tree.Leaves() != 2 || tree.Nodes() != 3 {
		t.Fatalf("leaves=%d nodes=%d", tree.Leaves(), tree.Nodes())
	}
}

func TestMissingValuesFollowDefaultBranch(t *testing.T) {
	d := xorDataset()
	// All training mass is on the right branch (values > 19.5 are 20).
	tree := Grow(d, d.AllIndexes(), thresholdSelector{19.5}, 0)
	got := tree.Classify([]float64{dataset.Missing})
	// Default branch is the one with the most training cases; both have
	// 20, so branch 0 (first maximal) wins -> class neg.
	if got != 0 {
		t.Fatalf("missing routed to class %d", got)
	}
}

func TestSplitBranchRouting(t *testing.T) {
	sp := &Split{Kind: dataset.Numeric, Cuts: []float64{1, 5}, Branches: 3}
	cases := []struct {
		v float64
		b int
	}{{0, 0}, {1, 0}, {3, 1}, {5, 1}, {7, 2}}
	for _, c := range cases {
		if got := sp.Branch(c.v); got != c.b {
			t.Fatalf("Branch(%v)=%d want %d", c.v, got, c.b)
		}
	}
	cat := &Split{Kind: dataset.Categorical, Assign: []int{0, 1, 0}, Branches: 2, Default: 1}
	if cat.Branch(2) != 0 || cat.Branch(1) != 1 {
		t.Fatal("categorical routing broken")
	}
	if cat.Branch(dataset.Missing) != 1 {
		t.Fatal("missing should go to default")
	}
}

func buildNoisyDataset(n int, noise float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: "noisy",
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "y", Kind: dataset.Numeric},
		},
		Classes: []string{"a", "b"},
	}
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		c := 0
		if x > 0.5 {
			c = 1
		}
		if rng.Float64() < noise {
			c = 1 - c
		}
		d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{x, y}, Class: c})
	}
	return d
}

// midpointSelector splits greedily on the best midpoint of either
// attribute using Gini, enough to grow real trees for pruning tests.
type midpointSelector struct{}

func (midpointSelector) Select(c *Cases) *Split {
	d, idx := c.Data, c.Idx
	best := math.Inf(1)
	var bestSplit *Split
	parent := ImpurityOfCounts(Gini{}, d.ClassHistogram(idx))
	for a := range d.Attrs {
		for _, q := range []float64{0.25, 0.5, 0.75} {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range idx {
				v := d.Value(i, a)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			cut := lo + q*(hi-lo)
			l := make([]int, len(d.Classes))
			r := make([]int, len(d.Classes))
			ln, rn := 0, 0
			for _, i := range idx {
				if d.Value(i, a) <= cut {
					l[d.Class(i)]++
					ln++
				} else {
					r[d.Class(i)]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			imp := AggregateImpurity(Gini{}, [][]int{l, r})
			if imp < best {
				best = imp
				bestSplit = &Split{Attr: a, Kind: dataset.Numeric, Cuts: []float64{cut}, Branches: 2}
			}
		}
	}
	if bestSplit == nil || best >= parent-1e-12 {
		return nil
	}
	return bestSplit
}

func TestCCPSequenceShrinksMonotonically(t *testing.T) {
	d := buildNoisyDataset(400, 0.25, 1)
	tree := Grow(d, d.AllIndexes(), midpointSelector{}, 0)
	seq := CCPSequence(tree)
	if len(seq) < 2 {
		t.Fatalf("CCP sequence too short: %d (tree leaves %d)", len(seq), tree.Leaves())
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].LeafCount >= seq[i-1].LeafCount {
			t.Fatalf("sequence not strictly shrinking: %d -> %d leaves",
				seq[i-1].LeafCount, seq[i].LeafCount)
		}
		if seq[i].Alpha < seq[i-1].Alpha-1e-12 {
			t.Fatalf("alphas not nondecreasing: %v -> %v", seq[i-1].Alpha, seq[i].Alpha)
		}
		if seq[i].Resub < seq[i-1].Resub {
			t.Fatalf("resubstitution decreased after pruning")
		}
	}
	last := seq[len(seq)-1]
	if last.LeafCount != 1 {
		t.Fatalf("sequence does not end at the root-only tree: %d leaves", last.LeafCount)
	}
	// T1 preserves the resubstitution error of Tmax.
	if seq[0].Resub != tree.Resubstitution() {
		t.Fatalf("T1 resub %d != Tmax resub %d", seq[0].Resub, tree.Resubstitution())
	}
}

func TestCVPruneImprovesGeneralization(t *testing.T) {
	train := buildNoisyDataset(600, 0.3, 2)
	test := buildNoisyDataset(600, 0.3, 3)
	grow := func(d *dataset.Dataset, idx []int) *Tree {
		return Grow(d, idx, midpointSelector{}, 0)
	}
	full := grow(train, train.AllIndexes())
	pruned, rcv := CVPrune(train, train.AllIndexes(), 10, grow, rand.New(rand.NewSource(4)))
	if len(rcv) < 2 {
		t.Skip("degenerate tree; nothing to prune")
	}
	fullAcc := full.Accuracy(test, test.AllIndexes())
	prunedAcc := pruned.Accuracy(test, test.AllIndexes())
	if pruned.LeafCount >= full.Leaves() {
		t.Fatalf("pruning kept all %d leaves", full.Leaves())
	}
	if prunedAcc < fullAcc-0.02 {
		t.Fatalf("pruned accuracy %.3f much worse than full %.3f", prunedAcc, fullAcc)
	}
}

func TestExtractRulesAndRuleList(t *testing.T) {
	d := xorDataset()
	tree := Grow(d, d.AllIndexes(), thresholdSelector{19.5}, 0)
	rules := ExtractRules(tree)
	// Root + 2 leaves = 3 rules.
	if len(rules) != 3 {
		t.Fatalf("%d rules", len(rules))
	}
	rl := SelectRules([]*Tree{tree}, 0.9, 0.05, -1)
	if len(rl.Rules) != 2 {
		t.Fatalf("selected %d rules, want the 2 pure leaves", len(rl.Rules))
	}
	if acc := rl.Accuracy(d, d.AllIndexes()); acc != 1.0 {
		t.Fatalf("rule list accuracy %v", acc)
	}
	if c, covered := rl.Classify([]float64{5}); !covered || c != 0 {
		t.Fatalf("classify(5)=(%d,%v)", c, covered)
	}
	// Describe must not panic and should mention the attribute.
	if s := rl.Rules[0].Describe(d); s == "" {
		t.Fatal("empty rule description")
	}
}

func TestRulePartialOrder(t *testing.T) {
	hi := &Rule{Conf: 0.9, Supp: 0.2}
	lo := &Rule{Conf: 0.8, Supp: 0.1}
	inc := &Rule{Conf: 0.95, Supp: 0.05}
	if !hi.Higher(lo) {
		t.Fatal("hi should dominate lo")
	}
	if hi.Higher(inc) || inc.Higher(hi) {
		t.Fatal("incomparable rules reported comparable")
	}
}

func TestRuleMissingValueAbstains(t *testing.T) {
	sp := &Split{Attr: 0, Kind: dataset.Numeric, Cuts: []float64{1}, Branches: 2}
	r := &Rule{Conds: []Cond{{sp, 0}}, Class: 1}
	if r.Matches([]float64{dataset.Missing}) {
		t.Fatal("rule matched a missing value")
	}
}

func TestComplement(t *testing.T) {
	truth := []int{0, 0, 1, 1, 0}
	preds := [][]int{
		{0, 0, 1, 0, 1},
		{0, 0, 1, 1, 1},
		{0, 0, 1, 0, 1},
	}
	c := Complement(preds, truth)
	if c.Total != 5 || c.AllAgree != 4 || c.Disagree != 1 {
		t.Fatalf("%+v", c)
	}
	// Agree cases: 0,1,2,4 -> correct on 0,1,2 = 75%.
	if math.Abs(c.AgreeAccuracy-0.75) > 1e-12 {
		t.Fatalf("agree accuracy %v", c.AgreeAccuracy)
	}
	// Disagree case 3: classifier 1 is right.
	if c.AtLeastOneRight != 1.0 {
		t.Fatalf("at-least-one %v", c.AtLeastOneRight)
	}
}

func TestTreeString(t *testing.T) {
	d := xorDataset()
	tree := Grow(d, d.AllIndexes(), thresholdSelector{19.5}, 0)
	s := tree.String()
	if s == "" || !contains(s, "split on x") {
		t.Fatalf("tree rendering:\n%s", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Leaves counts the terminal nodes.
func (t *Tree) Leaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += countLeaves(ch)
	}
	return c
}

// Nodes counts all nodes.
func (t *Tree) Nodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// Resubstitution is R(T): the number of training cases misclassified
// by the tree's leaves.
func (t *Tree) Resubstitution() int { return subtreeErrors(t.Root) }

func subtreeErrors(n *Node) int {
	if n.IsLeaf() {
		return n.Errors()
	}
	e := 0
	for _, ch := range n.Children {
		e += subtreeErrors(ch)
	}
	return e
}

package cart

import (
	"math"
	"math/rand"
	"testing"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

func TestAllSplitsAreBinary(t *testing.T) {
	for _, name := range []string{"german", "mushrooms"} {
		d, _ := dataset.Benchmark(name, 21)
		idx := d.AllIndexes()[:400]
		tree := Grow(d, idx)
		var walk func(n *classify.Node)
		walk = func(n *classify.Node) {
			if n.IsLeaf() {
				return
			}
			if n.Split.Branches != 2 {
				t.Fatalf("%s: CART produced a %d-way split", name, n.Split.Branches)
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tree.Root)
	}
}

func TestExactSubsetSearchBeatsOrNotWorseThanOrdering(t *testing.T) {
	// For a 2-class problem the ordering theorem is exact, so forcing
	// the heuristic path must give the same impurity as the exact
	// enumeration.
	d, _ := dataset.Benchmark("german", 22)
	idx := d.AllIndexes()[:500]
	// Find a categorical attribute with >2 present values.
	var attr int = -1
	for a, at := range d.Attrs {
		if at.Kind == dataset.Categorical && len(at.Values) >= 4 {
			attr = a
			break
		}
	}
	if attr < 0 {
		t.Skip("no suitable categorical attribute")
	}
	cases := classify.NewCases(d, idx)
	se, ie := categorical(cases, attr, 12)
	sh, ih := categorical(cases, attr, 1)
	if se == nil || sh == nil {
		t.Skip("no split found")
	}
	if math.Abs(ie-ih) > 1e-9 {
		t.Fatalf("2-class ordering heuristic not exact: %.6f vs %.6f", ih, ie)
	}
}

func TestTrainCVOnMushrooms(t *testing.T) {
	d, _ := dataset.Benchmark("mushrooms", 23)
	rng := rand.New(rand.NewSource(23))
	train, test := d.StratifiedHalves(rng)
	pt := TrainCV(d, train, 10, rng)
	if acc := pt.Accuracy(d, test); acc < 0.99 {
		t.Fatalf("mushrooms accuracy %.3f", acc)
	}
}

func TestTrainCVBeatsPluralityOnDiabetes(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 24)
	rng := rand.New(rand.NewSource(24))
	train, test := d.StratifiedHalves(rng)
	pt := TrainCV(d, train, 10, rng)
	_, nmaj := d.MajorityClass(test)
	if acc := pt.Accuracy(d, test); acc <= float64(nmaj)/float64(len(test)) {
		t.Fatalf("CART accuracy %.3f <= plurality", acc)
	}
}

func TestSelectNilOnPureNode(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 25)
	var pure []int
	for i := range d.Instances {
		if d.Class(i) == 0 {
			pure = append(pure, i)
		}
		if len(pure) == 30 {
			break
		}
	}
	if sp := NewSelector().Select(classify.NewCases(d, pure)); sp != nil {
		t.Fatal("CART split a pure node")
	}
}

func BenchmarkGrowGerman(b *testing.B) {
	d, _ := dataset.Benchmark("german", 26)
	idx := d.AllIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Grow(d, idx)
	}
}

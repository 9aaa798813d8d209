package c45

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

func TestUCFKnownValues(t *testing.T) {
	// Quinlan's worked example: U_0.25(0, 6) ≈ 0.206, U_0.25(0, 9) ≈
	// 0.143, U_0.25(0, 1) ≈ 0.75.
	cases := []struct {
		e, n int
		want float64
	}{
		{0, 6, 0.206}, {0, 9, 0.143}, {0, 1, 0.75},
	}
	for _, c := range cases {
		got := UCF(c.e, c.n, 0.25)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("UCF(%d,%d)=%.4f want ~%.3f", c.e, c.n, got, c.want)
		}
	}
}

func TestUCFProperties(t *testing.T) {
	// Monotone in e, decreasing in n, bounded by [e/n, 1].
	if UCF(2, 10, 0.25) <= UCF(1, 10, 0.25) {
		t.Fatal("UCF not increasing in e")
	}
	if UCF(1, 100, 0.25) >= UCF(1, 10, 0.25) {
		t.Fatal("UCF not decreasing in n")
	}
	if UCF(5, 5, 0.25) != 1 {
		t.Fatal("all-wrong leaf should have UCF 1")
	}
	if UCF(0, 0, 0.25) != 0 {
		t.Fatal("empty leaf should have UCF 0")
	}
}

func TestPropertyUCFBounds(t *testing.T) {
	f := func(eRaw, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		e := int(eRaw) % (n + 1)
		u := UCF(e, n, 0.25)
		return u >= float64(e)/float64(n)-1e-9 && u <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrainOnMushrooms(t *testing.T) {
	d, _ := dataset.Benchmark("mushrooms", 7)
	rng := rand.New(rand.NewSource(7))
	train, test := d.StratifiedHalves(rng)
	tree := Train(d, train)
	if acc := tree.Accuracy(d, test); acc < 0.99 {
		t.Fatalf("mushrooms accuracy %.3f", acc)
	}
}

func TestPruneShrinksNoisyTree(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 8)
	idx := d.AllIndexes()
	full := Grow(d, idx)
	pruned := Train(d, idx)
	if leaves(pruned.Root) >= leaves(full.Root) {
		t.Fatalf("pruning did not shrink: %d -> %d leaves", leaves(full.Root), leaves(pruned.Root))
	}
}

// leaves counts the terminal nodes of a subtree.
func leaves(n *classify.Node) int {
	if n.IsLeaf() {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += leaves(ch)
	}
	return c
}

func TestTrainBeatsPluralityOnDiabetes(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 9)
	rng := rand.New(rand.NewSource(9))
	train, test := d.StratifiedHalves(rng)
	tree := Train(d, train)
	_, nmaj := d.MajorityClass(test)
	if acc := tree.Accuracy(d, test); acc <= float64(nmaj)/float64(len(test)) {
		t.Fatalf("C4.5 accuracy %.3f <= plurality", acc)
	}
}

func TestCategoricalSplitsAreMWay(t *testing.T) {
	d, _ := dataset.Benchmark("mushrooms", 10)
	tree := Grow(d, d.AllIndexes())
	// Find an interior categorical split and check branch count = arity.
	n := tree.Root
	for !n.IsLeaf() {
		if d.Attrs[n.Split.Attr].Kind == dataset.Categorical {
			if n.Split.Branches != len(d.Attrs[n.Split.Attr].Values) {
				t.Fatalf("categorical split has %d branches, arity %d",
					n.Split.Branches, len(d.Attrs[n.Split.Attr].Values))
			}
			return
		}
		n = n.Children[0]
	}
	t.Skip("no categorical split on this path")
}

func TestWindowTerminates(t *testing.T) {
	d, _ := dataset.Benchmark("vote", 11)
	rng := rand.New(rand.NewSource(11))
	tree := Window(d, d.AllIndexes(), rng)
	if tree == nil {
		t.Fatal("nil tree")
	}
	if acc := tree.Accuracy(d, d.AllIndexes()); acc < 0.8 {
		t.Fatalf("windowed tree training accuracy %.3f", acc)
	}
}

func TestTrainTrialsPicksATree(t *testing.T) {
	d, _ := dataset.Benchmark("vote", 12)
	rng := rand.New(rand.NewSource(12))
	train, test := d.StratifiedHalves(rng)
	tree := TrainTrialsSeeded(d, train, 3, 12)
	if acc := tree.Accuracy(d, test); acc < 0.85 {
		t.Fatalf("trials accuracy %.3f", acc)
	}
}

func BenchmarkTrainDiabetes(b *testing.B) {
	d, _ := dataset.Benchmark("diabetes", 13)
	idx := d.AllIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(d, idx)
	}
}

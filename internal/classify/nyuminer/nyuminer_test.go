package nyuminer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"freepdm/internal/classify"
	"freepdm/internal/dataset"
)

// paperExample builds the 27-element data set of figure 5.1 (section
// 5.2): values 0..9 of one numerical variable, classes A, B, C.
func paperExample() *dataset.Dataset {
	classes := map[byte]int{'A': 0, 'B': 1, 'C': 2}
	items := []struct {
		class byte
		value float64
	}{
		{'A', 0}, {'A', 0}, {'A', 0}, {'A', 1}, {'B', 1}, {'B', 1}, {'B', 1},
		{'B', 2}, {'B', 2}, {'C', 3}, {'C', 3}, {'C', 3}, {'B', 4}, {'B', 4},
		{'B', 4}, {'C', 4}, {'A', 5}, {'A', 5}, {'A', 6}, {'C', 7}, {'C', 7},
		{'C', 7}, {'C', 8}, {'C', 8}, {'C', 9}, {'C', 9}, {'C', 9},
	}
	d := &dataset.Dataset{
		Name:    "fig5.1",
		Attrs:   []dataset.Attribute{{Name: "v", Kind: dataset.Numeric}},
		Classes: []string{"A", "B", "C"},
	}
	for _, it := range items {
		d.Instances = append(d.Instances, dataset.Instance{
			Vals: []float64{it.value}, Class: classes[it.class],
		})
	}
	return d
}

func TestPaperExampleBoundaryBaskets(t *testing.T) {
	d := paperExample()
	baskets := MergeBoundary(classify.NewCases(d, d.AllIndexes()).Baskets(0))
	// Figure 5.4: 7 baskets divided by boundary points, labels
	// A M B C M A C with value groups 0 | 1 | 2 | 3 | 4 | 5,6 | 7-9.
	if len(baskets) != 7 {
		t.Fatalf("%d baskets, want 7 (figure 5.4)", len(baskets))
	}
	wantHi := []float64{0, 1, 2, 3, 4, 6, 9}
	wantN := []int{3, 4, 2, 3, 4, 3, 8}
	for i, b := range baskets {
		if b.Hi != wantHi[i] || b.N != wantN[i] {
			t.Fatalf("basket %d = (hi=%v,n=%d), want (hi=%v,n=%d)",
				i, b.Hi, b.N, wantHi[i], wantN[i])
		}
	}
	// Theorem 5: with K >= 7 the optimal sub-K split is exactly these
	// boundaries and further merging only increases impurity.
	opt := OptimalSubK(classify.Gini{}, baskets, 7)
	if opt.Branches != 7 {
		t.Fatalf("optimal sub-7-ary has %d branches, want 7", opt.Branches)
	}
	less := OptimalSubK(classify.Gini{}, baskets, 6)
	if less.Impurity <= opt.Impurity {
		t.Fatalf("merging to 6 branches should increase impurity: %v vs %v",
			less.Impurity, opt.Impurity)
	}
}

// bruteForceBestK enumerates every way to cut b baskets into exactly
// <=k intervals and returns the minimal aggregate impurity.
func bruteForceBestK(im classify.Impurity, baskets []classify.Basket, k int) float64 {
	b := len(baskets)
	best := math.Inf(1)
	var rec func(start, remaining int, branches [][]int)
	agg := func(branches [][]int) float64 {
		hist := make([][]int, len(branches))
		for i, seg := range branches {
			h := make([]int, len(baskets[0].Counts))
			for _, bi := range seg {
				for c, n := range baskets[bi].Counts {
					h[c] += n
				}
			}
			hist[i] = h
		}
		return classify.AggregateImpurity(im, hist)
	}
	rec = func(start, remaining int, branches [][]int) {
		if start == b {
			if v := agg(branches); v < best {
				best = v
			}
			return
		}
		if remaining == 0 {
			return
		}
		for end := start + 1; end <= b; end++ {
			seg := make([]int, 0, end-start)
			for i := start; i < end; i++ {
				seg = append(seg, i)
			}
			rec(end, remaining-1, append(branches, seg))
		}
	}
	rec(0, k, nil)
	return best
}

// Property: the DP finds exactly the brute-force optimum for random
// basket sequences and both impurity functions.
func TestPropertyDPMatchesBruteForce(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		nb := len(raw) / 3
		if nb < 2 {
			return true
		}
		if nb > 8 {
			nb = 8
		}
		k := int(kRaw%4) + 2
		baskets := make([]classify.Basket, nb)
		for i := range baskets {
			c := []int{int(raw[3*i]) % 5, int(raw[3*i+1]) % 5, int(raw[3*i+2]) % 5}
			n := c[0] + c[1] + c[2]
			if n == 0 {
				c[0] = 1
				n = 1
			}
			baskets[i] = classify.Basket{Hi: float64(i), Counts: c, N: n}
		}
		for _, im := range []classify.Impurity{classify.Gini{}, classify.Entropy{}} {
			dp := OptimalSubK(im, baskets, k)
			bf := bruteForceBestK(im, baskets, k)
			if math.Abs(dp.Impurity-bf) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: optimal sub-K impurity is non-increasing in K, and among
// equal-impurity options the DP picks the fewest branches.
func TestPropertyMonotoneInK(t *testing.T) {
	f := func(raw []uint8) bool {
		nb := len(raw) / 2
		if nb < 2 {
			return true
		}
		if nb > 10 {
			nb = 10
		}
		baskets := make([]classify.Basket, nb)
		for i := range baskets {
			c := []int{int(raw[2*i])%6 + 1, int(raw[2*i+1]) % 6}
			baskets[i] = classify.Basket{Hi: float64(i), Counts: c, N: c[0] + c[1]}
		}
		prev := math.Inf(1)
		for k := 2; k <= nb; k++ {
			opt := OptimalSubK(classify.Gini{}, baskets, k)
			if opt.Impurity > prev+1e-9 {
				return false
			}
			if opt.Branches > k {
				return false
			}
			prev = opt.Impurity
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBoundaryKeepsMixedSeparate(t *testing.T) {
	mk := func(hi float64, a, b int) classify.Basket {
		return classify.Basket{Hi: hi, Counts: []int{a, b}, N: a + b}
	}
	in := []classify.Basket{mk(0, 2, 0), mk(1, 3, 0), mk(2, 1, 1), mk(3, 2, 2), mk(4, 0, 1), mk(5, 0, 2)}
	out := MergeBoundary(in)
	// Pure-A runs merge (0,1), mixed stay apart (2,3), pure-B merge (4,5).
	if len(out) != 4 {
		t.Fatalf("%d baskets after merge, want 4", len(out))
	}
	if out[0].N != 5 || out[3].N != 3 {
		t.Fatalf("merge counts wrong: %+v", out)
	}
}

func TestCoalesceBaskets(t *testing.T) {
	var in []classify.Basket
	for i := 0; i < 100; i++ {
		in = append(in, classify.Basket{Hi: float64(i), Counts: []int{1, 0}, N: 1})
	}
	out := CoalesceBaskets(in, 10)
	if len(out) > 10 {
		t.Fatalf("coalesced to %d baskets, want <= 10", len(out))
	}
	total := 0
	for _, b := range out {
		total += b.N
	}
	if total != 100 {
		t.Fatalf("lost instances: %d", total)
	}
	// Identity cases.
	if got := CoalesceBaskets(in, 0); len(got) != 100 {
		t.Fatal("maxB 0 must be identity")
	}
	if got := CoalesceBaskets(in[:5], 10); len(got) != 5 {
		t.Fatal("maxB >= B must be identity")
	}
}

func TestCategoricalLogicalValues(t *testing.T) {
	d := &dataset.Dataset{
		Name: "cat",
		Attrs: []dataset.Attribute{{
			Name: "color", Kind: dataset.Categorical,
			Values: []string{"r", "g", "b", "y", "m"},
		}},
		Classes: []string{"c0", "c1"},
	}
	add := func(v float64, c int, n int) {
		for i := 0; i < n; i++ {
			d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{v}, Class: c})
		}
	}
	// r and b pure class 0; g pure class 1; y and m mixed.
	add(0, 0, 5)
	add(2, 0, 3)
	add(1, 1, 4)
	add(3, 0, 2)
	add(3, 1, 2)
	add(4, 0, 1)
	add(4, 1, 3)
	baskets, sets := CategoricalBaskets(classify.NewCases(d, d.AllIndexes()), 0)
	// Logical values: {r,b} (pure 0), {g} (pure 1), {y}, {m} = 4.
	if len(baskets) != 4 {
		t.Fatalf("%d logical values, want 4", len(baskets))
	}
	// The pure-class-0 logical value holds categories 0 and 2.
	found := false
	for i, s := range sets {
		if len(s) == 2 && ((s[0] == 0 && s[1] == 2) || (s[0] == 2 && s[1] == 0)) {
			found = true
			if baskets[i].N != 8 {
				t.Fatalf("merged pure basket N=%d want 8", baskets[i].N)
			}
		}
	}
	if !found {
		t.Fatalf("pure values not merged: %v", sets)
	}
}

func TestGrowSeparatesGeneratedData(t *testing.T) {
	d, _ := dataset.Benchmark("mushrooms", 1)
	rng := rand.New(rand.NewSource(1))
	train, test := d.StratifiedHalves(rng)
	tree := Grow(d, train, Config{})
	if acc := tree.Accuracy(d, test); acc < 0.99 {
		t.Fatalf("mushrooms accuracy %.3f, want ~1.0", acc)
	}
}

func TestTrainCVBeatsPlurality(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 2)
	rng := rand.New(rand.NewSource(2))
	train, test := d.StratifiedHalves(rng)
	pt := TrainCV(d, train, 10, Config{}, rng)
	acc := pt.Accuracy(d, test)
	_, nmaj := d.MajorityClass(test)
	plurality := float64(nmaj) / float64(len(test))
	if acc <= plurality {
		t.Fatalf("NyuMiner-CV accuracy %.3f <= plurality %.3f", acc, plurality)
	}
}

func TestTrainRSBeatsPlurality(t *testing.T) {
	d, _ := dataset.Benchmark("diabetes", 3)
	rng := rand.New(rand.NewSource(3))
	train, test := d.StratifiedHalves(rng)
	rl := TrainRS(d, train, 4, 0.65, 0.02, Config{}, rng)
	acc := rl.Accuracy(d, test)
	_, nmaj := d.MajorityClass(test)
	plurality := float64(nmaj) / float64(len(test))
	if acc <= plurality-0.01 {
		t.Fatalf("NyuMiner-RS accuracy %.3f vs plurality %.3f", acc, plurality)
	}
}

func TestSmokingFallsBackToPlurality(t *testing.T) {
	d, _ := dataset.Benchmark("smoking", 4)
	rng := rand.New(rand.NewSource(4))
	train, test := d.StratifiedHalves(rng)
	pt := TrainCV(d, train, 4, Config{}, rng)
	acc := pt.Accuracy(d, test)
	_, nmaj := d.MajorityClass(test)
	plurality := float64(nmaj) / float64(len(test))
	// No signal: pruning should collapse near the root; accuracy within
	// a few points of plurality.
	if math.Abs(acc-plurality) > 0.05 {
		t.Fatalf("smoking accuracy %.3f far from plurality %.3f", acc, plurality)
	}
}

func TestSelectReturnsNilOnPureNode(t *testing.T) {
	d := paperExample()
	pure := []int{0, 1, 2} // three class-A elements
	sel := NewSelector()
	if sp := sel.Select(classify.NewCases(d, pure)); sp != nil {
		t.Fatal("selector split a pure node")
	}
}

func TestOptimalSubKDegenerate(t *testing.T) {
	if opt := OptimalSubK(classify.Gini{}, nil, 3); opt.Branches != 0 {
		t.Fatalf("empty baskets: %+v", opt)
	}
	one := []classify.Basket{{Hi: 1, Counts: []int{2, 2}, N: 4}}
	if opt := OptimalSubK(classify.Gini{}, one, 3); opt.Branches != 1 {
		t.Fatalf("single basket: %+v", opt)
	}
}

func BenchmarkOptimalSubK128(b *testing.B) {
	baskets := make([]classify.Basket, 128)
	for i := range baskets {
		baskets[i] = classify.Basket{Hi: float64(i), Counts: []int{i % 5, (i + 2) % 7, 3}, N: i%5 + (i+2)%7 + 3}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimalSubK(classify.Gini{}, baskets, 4)
	}
}

func BenchmarkGrowDiabetes(b *testing.B) {
	d, _ := dataset.Benchmark("diabetes", 5)
	idx := d.AllIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Grow(d, idx, Config{})
	}
}

// TestRecursiveBinarySuboptimal exhibits the section 5.2 claim: the
// greedy recursive-binary scheme can miss the optimal multi-way split
// that NyuMiner's dynamic program finds.
func TestRecursiveBinaryNeverBeatsDP(t *testing.T) {
	// Property over random basket sequences: DP <= greedy always.
	f := func(raw []uint8, kRaw uint8) bool {
		nb := len(raw) / 2
		if nb < 3 {
			return true
		}
		if nb > 10 {
			nb = 10
		}
		k := int(kRaw%3) + 2
		baskets := make([]classify.Basket, nb)
		for i := range baskets {
			c := []int{int(raw[2*i])%6 + 1, int(raw[2*i+1]) % 6, (i * 3) % 4}
			baskets[i] = classify.Basket{Hi: float64(i), Counts: c, N: c[0] + c[1] + c[2]}
		}
		dp := OptimalSubK(classify.Gini{}, baskets, k)
		greedy := RecursiveBinaryBounds(classify.Gini{}, baskets, k)
		return dp.Impurity <= greedy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateShapeMatchesSpec(t *testing.T) {
	for name, spec := range BenchmarkSpecs() {
		d, err := Benchmark(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != spec.Cases {
			t.Errorf("%s: %d cases, want %d", name, d.Len(), spec.Cases)
		}
		if got := d.NumAttrs(); got != spec.Numeric+len(spec.Categorical) {
			t.Errorf("%s: %d attrs, want %d", name, got, spec.Numeric+len(spec.Categorical))
		}
		if len(d.Classes) != spec.Classes {
			t.Errorf("%s: %d classes, want %d", name, len(d.Classes), spec.Classes)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Benchmark("diabetes", 7)
	b, _ := Benchmark("diabetes", 7)
	for i := range a.Instances {
		if a.Instances[i].Class != b.Instances[i].Class {
			t.Fatal("classes differ for same seed")
		}
		for j := range a.Instances[i].Vals {
			x, y := a.Instances[i].Vals[j], b.Instances[i].Vals[j]
			if x != y && !(IsMissing(x) && IsMissing(y)) {
				t.Fatal("values differ for same seed")
			}
		}
	}
}

func TestMissingRatesApproximatelyMatch(t *testing.T) {
	d, _ := Benchmark("mushrooms", 3)
	st := d.Summary()
	if math.Abs(st.PctCasesMissing-30.5) > 4 {
		t.Errorf("mushrooms cases-missing %.1f%%, want ~30.5%%", st.PctCasesMissing)
	}
	if math.Abs(st.PctValuesMissing-1.4) > 0.6 {
		t.Errorf("mushrooms values-missing %.2f%%, want ~1.4%%", st.PctValuesMissing)
	}
	v, _ := Benchmark("vote", 3)
	sv := v.Summary()
	if math.Abs(sv.PctCasesMissing-46.7) > 7 {
		t.Errorf("vote cases-missing %.1f%%, want ~46.7%%", sv.PctCasesMissing)
	}
	clean, _ := Benchmark("yeast", 3)
	if s := clean.Summary(); s.PctValuesMissing != 0 {
		t.Errorf("yeast should have no missing values, got %.2f%%", s.PctValuesMissing)
	}
}

func TestPluralityApproximatelyMatchesPaper(t *testing.T) {
	want := map[string]float64{
		"diabetes": 65.1, "german": 60.0, "mushrooms": 51.8, "satimage": 23.8,
		"smoking": 69.5, "vote": 61.4, "yeast": 31.2,
	}
	for name, pct := range want {
		d, _ := Benchmark(name, 11)
		st := d.Summary()
		// 3-sigma binomial tolerance for the sample size.
		p := pct / 100
		tol := 300 * math.Sqrt(p*(1-p)/float64(d.Len()))
		if math.Abs(st.PluralityPct-pct) > tol {
			t.Errorf("%s plurality %.1f%%, want %.1f%%±%.1f", name, st.PluralityPct, pct, tol)
		}
	}
}

func TestStratifiedHalvesPreserveDistribution(t *testing.T) {
	d, _ := Benchmark("satimage", 5)
	rng := rand.New(rand.NewSource(1))
	train, test := d.StratifiedHalves(rng)
	if got := len(train) + len(test); got != d.Len() {
		t.Fatalf("halves cover %d of %d", got, d.Len())
	}
	if diff := len(train) - len(test); diff < -len(d.Classes) || diff > len(d.Classes) {
		t.Fatalf("halves unbalanced: %d vs %d", len(train), len(test))
	}
	ht := d.ClassHistogram(train)
	he := d.ClassHistogram(test)
	for c := range ht {
		if d := ht[c] - he[c]; d < -1 || d > 1 {
			t.Fatalf("class %d counts differ by %d", c, d)
		}
	}
	// No overlap.
	seen := map[int]bool{}
	for _, i := range train {
		seen[i] = true
	}
	for _, i := range test {
		if seen[i] {
			t.Fatalf("instance %d in both halves", i)
		}
	}
}

func TestFoldsPartition(t *testing.T) {
	d, _ := Benchmark("diabetes", 9)
	rng := rand.New(rand.NewSource(2))
	idx := d.AllIndexes()
	folds := d.Folds(idx, 10, rng)
	if len(folds) != 10 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]int{}
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, i := range f {
			seen[i]++
		}
	}
	if total != d.Len() {
		t.Fatalf("folds cover %d of %d", total, d.Len())
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("instance %d appears %d times", i, n)
		}
	}
	// Fold sizes near-equal.
	for _, f := range folds {
		if len(f) < d.Len()/10-len(d.Classes) || len(f) > d.Len()/10+len(d.Classes) {
			t.Fatalf("fold size %d far from %d", len(f), d.Len()/10)
		}
	}
}

func TestWithoutFold(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4, 5}
	rest := WithoutFold(idx, []int{1, 4})
	if len(rest) != 4 {
		t.Fatalf("rest=%v", rest)
	}
	for _, i := range rest {
		if i == 1 || i == 4 {
			t.Fatalf("fold member %d remained", i)
		}
	}
}

func TestSubsetSharesInstances(t *testing.T) {
	d, _ := Benchmark("vote", 4)
	sub := d.Subset([]int{3, 5, 9})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if sub.Class(0) != d.Class(3) {
		t.Fatal("subset does not map instance 0 to original 3")
	}
}

func TestMajorityClass(t *testing.T) {
	d := &Dataset{Classes: []string{"a", "b"}, Instances: []Instance{
		{Class: 0}, {Class: 1}, {Class: 1},
	}}
	c, n := d.MajorityClass(d.AllIndexes())
	if c != 1 || n != 2 {
		t.Fatalf("majority (%d,%d)", c, n)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("nonesuch", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestSmokingCarriesNoSignal(t *testing.T) {
	// With Sep 0 the attribute distributions must not depend on class:
	// compare a numeric attribute's mean across the two largest classes.
	d, _ := Benchmark("smoking", 13)
	sums := make([]float64, len(d.Classes))
	counts := make([]int, len(d.Classes))
	for _, ins := range d.Instances {
		if !IsMissing(ins.Vals[0]) {
			sums[ins.Class] += ins.Vals[0]
			counts[ins.Class]++
		}
	}
	m0 := sums[0] / float64(counts[0])
	m1 := sums[1] / float64(counts[1])
	if math.Abs(m0-m1) > 0.25 {
		t.Fatalf("smoking attribute correlates with class: means %.3f vs %.3f", m0, m1)
	}
}

func TestMushroomsSeparable(t *testing.T) {
	// With Sep >= 8 informative categorical attributes are
	// deterministic given the class: check attribute 0 (when present).
	d, _ := Benchmark("mushrooms", 17)
	seenPerClass := map[[2]int]bool{}
	for _, ins := range d.Instances {
		if IsMissing(ins.Vals[0]) {
			continue
		}
		seenPerClass[[2]int{ins.Class, int(ins.Vals[0])}] = true
	}
	counts := map[int]int{}
	for k := range seenPerClass {
		counts[k[0]]++
	}
	for c, n := range counts {
		if n != 1 {
			t.Fatalf("class %d maps to %d distinct values of cat0; want 1", c, n)
		}
	}
}

// Property: Folds followed by WithoutFold always reconstructs a
// partition: |fold| + |rest| = |idx| with no duplicates.
func TestPropertyFoldComplement(t *testing.T) {
	d, _ := Benchmark("diabetes", 21)
	f := func(seed int64, vRaw uint8) bool {
		v := int(vRaw%9) + 2
		rng := rand.New(rand.NewSource(seed))
		idx := d.AllIndexes()
		folds := d.Folds(idx, v, rng)
		for _, fold := range folds {
			rest := WithoutFold(idx, fold)
			if len(rest)+len(fold) != len(idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateSatimage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Benchmark("satimage", int64(i))
	}
}

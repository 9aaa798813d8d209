package rnatree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{"a", "a(b c)", "N(R(M(H I) B) H)", "a(b(f g) m c)"} {
		tr := mustParse(t, s)
		if tr.String() != s {
			t.Fatalf("round trip %q -> %q", s, tr.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "a(b", "a)b", "(a)"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestSizeNodesEqualClone(t *testing.T) {
	tr := mustParse(t, "a(b(f g) m c)")
	if tr.Size() != 6 {
		t.Fatalf("size %d", tr.Size())
	}
	if len(tr.Nodes()) != 6 {
		t.Fatalf("nodes %d", len(tr.Nodes()))
	}
	c := tr.Clone()
	if !tr.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Children[0].Label = "x"
	if tr.Equal(c) {
		t.Fatal("clone shares structure")
	}
}

func TestEditDistanceBasics(t *testing.T) {
	a := mustParse(t, "a(b c)")
	if EditDistance(a, a) != 0 {
		t.Fatal("self distance")
	}
	b := mustParse(t, "a(b d)")
	if d := EditDistance(a, b); d != 1 {
		t.Fatalf("relabel distance %d", d)
	}
	c := mustParse(t, "a(b)")
	if d := EditDistance(a, c); d != 1 {
		t.Fatalf("delete distance %d", d)
	}
	// Deleting an inner node promotes its children.
	outer := mustParse(t, "a(x(b c))")
	if d := EditDistance(a, outer); d != 1 {
		t.Fatalf("inner delete distance %d", d)
	}
}

// Property: edit distance is a metric on small random trees —
// symmetric, zero iff equal, triangle inequality.
func TestPropertyEditDistanceMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() *Tree { return RandomStructure(rng.Intn(6)+2, rng) }
	f := func() bool {
		a, b, c := gen(), gen(), gen()
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			return false
		}
		if (dab == 0) != a.Equal(b) {
			return false
		}
		return EditDistance(a, c) <= dab+EditDistance(b, c)
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCutDistanceExactSubtree(t *testing.T) {
	// Figure 4.3 style: a motif exactly occurring as a cut subtree.
	data := mustParse(t, "a(b(f g) m c)")
	motif := mustParse(t, "a(b c)")
	// Cut m; b keeps children f,g, but matching b->b then cutting f,g
	// is free; so distance 0.
	if d := CutDistance(motif, data); d != 0 {
		t.Fatalf("cut distance %d, want 0", d)
	}
}

func TestCutDistanceWithinOne(t *testing.T) {
	data := mustParse(t, "a(b(f g) m c)")
	motif := mustParse(t, "a(b x c)") // x unmatched: relabel m -> x
	if d := CutDistance(motif, data); d != 1 {
		t.Fatalf("distance %d, want 1", d)
	}
}

func TestCutDistanceMotifBiggerThanData(t *testing.T) {
	data := mustParse(t, "a")
	motif := mustParse(t, "a(b c)")
	if d := CutDistance(motif, data); d != 2 {
		t.Fatalf("distance %d, want 2 (insert b and c)", d)
	}
}

func TestContainsAndOccurrence(t *testing.T) {
	t1 := mustParse(t, "N(R(H) R(M(H H)))")
	t2 := mustParse(t, "N(R(M(H H)) B)")
	t3 := mustParse(t, "N(R(I))")
	motif := mustParse(t, "M(H H)")
	if !Contains(t1, motif, 0) || !Contains(t2, motif, 0) {
		t.Fatal("exact containment failed")
	}
	if Contains(t3, motif, 0) {
		t.Fatal("false containment")
	}
	if occ := OccurrenceNo([]*Tree{t1, t2, t3}, motif, 0); occ != 2 {
		t.Fatalf("occurrence %d", occ)
	}
	// Within distance 2: M(H H) vs I needs relabel + 2 inserts = 3;
	// still not contained at d=2 via I, but R(I) -> relabel R->M,
	// relabel I->H, insert H = 3. So d=2 fails, d=3 succeeds.
	if Contains(t3, motif, 2) {
		t.Fatal("should not match within 2")
	}
	if !Contains(t3, motif, 3) {
		t.Fatal("should match within 3")
	}
}

// Property: cut distance is bounded by edit distance (cuts only help)
// and containment is monotone in d.
func TestPropertyCutLeqEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(uint8) bool {
		m := RandomStructure(rng.Intn(4)+1, rng)
		u := RandomStructure(rng.Intn(7)+1, rng)
		return CutDistance(m, u) <= EditDistance(m, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPlantMotifMakesContained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	motif := mustParse(t, "M(H H)")
	tr := RandomStructure(8, rng)
	PlantMotif(tr, motif, rng)
	if !Contains(tr, motif, 0) {
		t.Fatal("planted motif not contained")
	}
}

func TestRandomStructureLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := RandomStructure(12, rng)
	for _, n := range tr.Nodes() {
		if len(n.Label) != 1 || !containsByte(Labels, n.Label[0]) {
			t.Fatalf("bad label %q", n.Label)
		}
	}
}

func containsByte(s string, b byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return true
		}
	}
	return false
}

func BenchmarkCutDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := RandomStructure(5, rng)
	u := RandomStructure(15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CutDistance(m, u)
	}
}

// EditDistance is the plain Zhang–Shasha-style ordered tree edit
// distance (no cuttings), which bounds CutDistance from above.
func EditDistance(a, b *Tree) int {
	memo := map[string]int{}
	return forestEditDist(forest{a}, forest{b}, memo)
}

func forestEditDist(a, b forest, memo map[string]int) int {
	if len(a) == 0 {
		return b.size()
	}
	if len(b) == 0 {
		return a.size()
	}
	key := a.key() + "\x00" + b.key()
	if v, ok := memo[key]; ok {
		return v
	}
	ra := a[len(a)-1]
	rb := b[len(b)-1]
	best := forestEditDist(a.dropRightRoot(), b, memo) + 1
	if v := forestEditDist(a, b.dropRightRoot(), memo) + 1; v < best {
		best = v
	}
	sub := 0
	if ra.Label != rb.Label {
		sub = 1
	}
	if v := forestEditDist(forest(ra.Children), forest(rb.Children), memo) +
		forestEditDist(a.dropRightTree(), b.dropRightTree(), memo) + sub; v < best {
		best = v
	}
	memo[key] = best
	return best
}

package treemotif

import (
	"math/rand"
	"strings"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/plinda"
	"freepdm/internal/rnatree"
)

func corpus(t *testing.T, n int, motif string, carriers int, seed int64) []*rnatree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := rnatree.Parse(motif)
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]*rnatree.Tree, n)
	for i := range trees {
		trees[i] = rnatree.RandomStructure(10, rng)
	}
	for _, i := range rng.Perm(n)[:carriers] {
		rnatree.PlantMotif(trees[i], m, rng)
	}
	return trees
}

func TestDiscoverFindsPlantedTreeMotif(t *testing.T) {
	trees := corpus(t, 8, "M(H H)", 6, 1)
	res := Discover(trees, Params{MinOccur: 6, MaxDist: 0, MinSize: 3, MaxSize: 3})
	found := false
	for _, r := range res {
		if r.Pattern.Key() == "M(H H)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted motif missing from %s", Describe(res))
	}
}

func TestChildrenUniqueParentProperty(t *testing.T) {
	trees := corpus(t, 4, "M(H H)", 2, 2)
	pr := NewProblem(trees, Params{MinOccur: 2, MinSize: 2, MaxSize: 4})
	p, _ := pr.Decode("M(H)")
	kids := pr.Children(p)
	if len(kids) == 0 {
		t.Fatal("no children")
	}
	seen := map[string]bool{}
	for _, k := range kids {
		if seen[k.Key()] {
			t.Fatalf("duplicate child %s", k.Key())
		}
		seen[k.Key()] = true
		// Removing the rightmost leaf of each child must restore p.
		subs := pr.Subpatterns(k)
		restored := false
		for _, s := range subs {
			if s.Key() == p.Key() {
				restored = true
			}
		}
		if !restored {
			t.Fatalf("child %s does not have %s as a subpattern", k.Key(), p.Key())
		}
	}
	// M(H) on rightmost path {M, H} with labels present: hosts*labels.
	if len(kids) != 2*len(prLabels(pr)) {
		t.Fatalf("%d children, want %d", len(kids), 2*len(prLabels(pr)))
	}
}

func prLabels(pr *Problem) []string { return pr.labels }

func TestSubpatternsRemoveOneLeaf(t *testing.T) {
	trees := corpus(t, 4, "M(H H)", 2, 3)
	pr := NewProblem(trees, Params{MinOccur: 2, MinSize: 2})
	p, _ := pr.Decode("M(H I)")
	subs := pr.Subpatterns(p)
	got := map[string]bool{}
	for _, s := range subs {
		got[s.Key()] = true
	}
	if !got["M(I)"] || !got["M(H)"] {
		t.Fatalf("subpatterns %v", got)
	}
	// Single node's subpattern is the root pattern.
	leaf, _ := pr.Decode("H")
	if subs := pr.Subpatterns(leaf); len(subs) != 1 || subs[0].Len() != 0 {
		t.Fatalf("leaf subpatterns %v", subs)
	}
}

func TestTraversalsAgree(t *testing.T) {
	trees := corpus(t, 6, "R(H H)", 4, 4)
	params := Params{MinOccur: 4, MaxDist: 0, MinSize: 2, MaxSize: 3}
	want, _ := core.SolveSequential(NewProblem(trees, params))
	ett, _ := core.SolveETTSequential(NewProblem(trees, params))
	if join(ett) != join(want) {
		t.Fatalf("ETT diverged:\n%s\nvs\n%s", join(ett), join(want))
	}
	for name, engine := range map[string]func(*plinda.Server, core.Problem, int) ([]core.Result, error){
		"PLED": core.RunPLED, "PLET": core.RunPLET,
	} {
		srv := plinda.NewServer()
		got, err := engine(srv, NewProblem(trees, params), 4)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if join(got) != join(want) {
			t.Fatalf("%s diverged:\n%s\nvs\n%s", name, join(got), join(want))
		}
	}
}

func join(rs []core.Result) string {
	var ks []string
	for _, r := range rs {
		ks = append(ks, r.Pattern.Key())
	}
	return strings.Join(ks, " ")
}

func TestPLETWorks(t *testing.T) {
	trees := corpus(t, 6, "B(H)", 5, 5)
	params := Params{MinOccur: 5, MaxDist: 0, MinSize: 2, MaxSize: 2}
	pr := NewProblem(trees, params)
	want, _ := core.SolveSequential(NewProblem(trees, params))
	srv := plinda.NewServer()
	defer srv.Close()
	got, err := core.RunPLET(srv, pr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if join(got) != join(want) {
		t.Fatalf("PLET diverged:\n%s\nvs\n%s", join(got), join(want))
	}
}

func TestApproximateDiscovery(t *testing.T) {
	trees := corpus(t, 10, "M(H H I)", 7, 6)
	// Within distance 1, the submotif M(H H) occurs wherever the
	// planted motif does.
	res := Discover(trees, Params{MinOccur: 7, MaxDist: 1, MinSize: 3, MaxSize: 3})
	if len(res) == 0 {
		t.Fatal("no motifs within distance 1")
	}
}

func TestDecodeErrors(t *testing.T) {
	pr := NewProblem(nil, Params{MinOccur: 1, MinSize: 1})
	if _, err := pr.Decode("((bad"); err == nil {
		t.Fatal("accepted bad key")
	}
	p, err := pr.Decode("")
	if err != nil || p.Len() != 0 {
		t.Fatal("root decode failed")
	}
}

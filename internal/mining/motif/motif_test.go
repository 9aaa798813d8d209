package motif

import (
	"fmt"
	"strings"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
)

var toySeqs = []string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}

func keys(rs []core.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Pattern.Key()
	}
	return out
}

func TestToyExampleFromSection231(t *testing.T) {
	// "Find the patterns P of the form *X* where P occurs in at least
	// 2 sequences in D and |P| >= 2": good patterns are *RR* and *RM*.
	res := Discover(toySeqs, Params{MinOccur: 2, MaxMut: 0, MinLength: 2, MaxLength: 4})
	got := map[string]bool{}
	for _, r := range res {
		got[r.Pattern.Key()] = true
	}
	if !got["RR"] || !got["RM"] {
		t.Fatalf("missing expected motifs, got %v", keys(res))
	}
	for k := range got {
		if len(k) < 2 {
			t.Fatalf("short motif %q reported", k)
		}
		if seq.OccurrenceNo(k, toySeqs, 0) < 2 {
			t.Fatalf("reported motif %q occurs < 2 times", k)
		}
	}
}

func TestSubpatternsPrefixAndSuffix(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	p, _ := pr.Decode("FRR")
	subs := pr.Subpatterns(p)
	if len(subs) != 2 || subs[0].Key() != "FR" || subs[1].Key() != "RR" {
		t.Fatalf("subpatterns of FRR: %v", subs)
	}
	// Degenerate: AA has prefix A and suffix A — reported once.
	pAA, _ := pr.Decode("AA")
	if subs := pr.Subpatterns(pAA); len(subs) != 1 || subs[0].Key() != "A" {
		t.Fatalf("subpatterns of AA: %v", subs)
	}
}

func TestChildrenComeFromGST(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 1, MinLength: 2, MaxLength: 4})
	p, _ := pr.Decode("R")
	kids := pr.Children(p)
	var ks []string
	for _, k := range kids {
		ks = append(ks, k.Key())
	}
	if strings.Join(ks, ",") != "RM,RR" {
		t.Fatalf("children of R: %v", ks)
	}
	// Extensions stop at MaxLength.
	long, _ := pr.Decode("FFRR")
	if kids := pr.Children(long); len(kids) != 0 {
		t.Fatalf("children beyond MaxLength: %v", kids)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 1, MinLength: 2})
	if _, err := pr.Decode("AB1"); err == nil {
		t.Fatal("accepted invalid key")
	}
}

// TestDecodeAcceptsExactlyTheAlphabet holds Decode to its definition: a
// key is valid when every rune of it is an amino-acid letter. The empty
// key is the root's.
func TestDecodeAcceptsExactlyTheAlphabet(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 1, MinLength: 2})
	valid := func(key string) bool {
		for _, c := range key {
			if !strings.ContainsRune(seq.Alphabet, c) {
				return false
			}
		}
		return true
	}
	keys := []string{"", seq.Alphabet, "MRAILV", "acd", "Acd", "a", "A1", "0", "9A", "AÄ", "Ä", "A€W", "\xff", "A\x00", "B", "Z"}
	for b := range 256 {
		keys = append(keys, string([]byte{byte(b)}), "A"+string(rune(b)))
	}
	for _, key := range keys {
		p, err := pr.Decode(key)
		if want := valid(key); (err == nil) != want {
			t.Errorf("Decode(%q): err %v, want valid %v", key, err, want)
		} else if want && p.Key() != key {
			t.Errorf("Decode(%q).Key() = %q", key, p.Key())
		}
	}
	if root, err := pr.Decode(""); err != nil || root != pr.Root() {
		t.Fatalf("Decode(\"\") = %v, %v; want the root", root, err)
	}
}

// keyChecked is a Problem that holds every pattern Children and
// Subpatterns return to the key string concatenation builds: the parent
// plus each GST extension, and the parent's prefix and suffix; and to
// Decode's round trip.
type keyChecked struct {
	*Problem
	t     *testing.T
	calls int
}

func (c *keyChecked) check(call string, p core.Pattern, got []core.Pattern, want []string) {
	c.t.Helper()
	c.calls++
	if len(got) != len(want) {
		c.t.Fatalf("%s(%q): %d patterns, want %d", call, p.Key(), len(got), len(want))
	}
	for i, q := range got {
		if q.Key() != want[i] || q.Len() != len(want[i]) {
			c.t.Fatalf("%s(%q)[%d] = %q of length %d, want %q", call, p.Key(), i, q.Key(), q.Len(), want[i])
		}
		if d, err := c.Decode(q.Key()); err != nil || d.Key() != q.Key() || d.Len() != q.Len() {
			c.t.Fatalf("Decode(%q) = %v, %v", q.Key(), d, err)
		}
	}
}

func (c *keyChecked) Children(p core.Pattern) []core.Pattern {
	s := p.Key()
	var want []string
	if len(s) < c.Params.MaxLength {
		for _, e := range c.gst.Extensions(s, c.Params.MinSeedSeqs) {
			want = append(want, s+string(e))
		}
	}
	got := c.Problem.Children(p)
	c.check("Children", p, got, want)
	return got
}

func (c *keyChecked) Subpatterns(p core.Pattern) []core.Pattern {
	s := p.Key()
	want := []string{""}
	if len(s) > 1 {
		want = []string{s[:len(s)-1], s[1:]}
		if want[0] == want[1] {
			want = want[:1]
		}
	}
	got := c.Problem.Subpatterns(p)
	c.check("Subpatterns", p, got, want)
	return got
}

// TestPatternKeysMatchConcatenation runs both sequential traversals on
// the benchmark's motif_exact input, checking the key of every child and
// subpattern they are handed, and wants the motifs of an unchecked run.
func TestPatternKeysMatchConcatenation(t *testing.T) {
	spec := seq.CyclinsSpec(42)
	spec.Length = 80
	seqs := spec.Generate()
	params := Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24}
	want, _ := core.SolveSequential(NewProblem(seqs, params))
	for name, solve := range map[string]func(core.Problem) ([]core.Result, core.Stats){
		"SolveSequential": core.SolveSequential, "SolveETTSequential": core.SolveETTSequential,
	} {
		c := &keyChecked{Problem: NewProblem(seqs, params), t: t}
		got, _ := solve(c)
		if strings.Join(keys(got), ",") != strings.Join(keys(want), ",") {
			t.Fatalf("%s: %d good patterns, want %d", name, len(got), len(want))
		}
		if c.calls < len(want) {
			t.Fatalf("%s: %d checked calls for %d good patterns", name, c.calls, len(want))
		}
	}
}

// TestNewProblemRejectsLongMutationSegments: with mutations, segments
// may grow to 64 letters, the matcher's limit, and no further; the
// default bound counts, and exact matching has no limit.
func TestNewProblemRejectsLongMutationSegments(t *testing.T) {
	panics := func(p Params) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		NewProblem(toySeqs, p)
		return ""
	}
	for _, c := range []struct {
		p    Params
		want bool
	}{
		{Params{MinOccur: 2, MaxMut: 1, MinLength: 2, MaxLength: 64}, false},
		{Params{MinOccur: 2, MaxMut: 0, MinLength: 2, MaxLength: 65}, false},
		{Params{MinOccur: 2, MaxMut: 1, MinLength: 2, MaxLength: 65}, true},
		{Params{MinOccur: 2, MaxMut: 1, MinLength: 57}, true}, // MaxLength defaults to 65
	} {
		msg := panics(c.p)
		if (msg != "") != c.want {
			t.Errorf("NewProblem(%+v) panic %q, want a panic %v", c.p, msg, c.want)
		}
		if c.want && !strings.Contains(msg, "at most 64 letters") {
			t.Errorf("NewProblem(%+v) panic %q does not name the limit", c.p, msg)
		}
	}
}

func TestAllTraversalsAgree(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 12, Length: 80, Seed: 3,
		Motifs: []seq.PlantedMotif{{Pattern: "WWHHWWHH", Carriers: 6}},
	}
	seqs := spec.Generate()
	params := Params{MinOccur: 4, MaxMut: 0, MinLength: 4, MaxLength: 8}

	mk := func() *Problem { return NewProblem(seqs, params) }
	seqRes, _ := core.SolveSequential(mk())
	ettRes, _ := core.SolveETTSequential(mk())
	run := func(engine func(*plinda.Server, core.Problem, int) ([]core.Result, error)) []core.Result {
		srv := plinda.NewServer()
		defer srv.Close()
		res, err := engine(srv, mk(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pledRes, pletRes := run(core.RunPLED), run(core.RunPLET)

	want := strings.Join(keys(seqRes), " ")
	for name, got := range map[string][]core.Result{
		"ETT": ettRes, "PLED": pledRes, "PLET": pletRes,
	} {
		if strings.Join(keys(got), " ") != want {
			t.Fatalf("%s diverged:\n%v\nvs\n%v", name, keys(got), keys(seqRes))
		}
	}
}

func TestPlantedMotifRecoveredWithMutations(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 15, Length: 100, Seed: 9,
		Motifs: []seq.PlantedMotif{{Pattern: "ACDEFGHIKL", Carriers: 10, MutRate: 0.1}},
	}
	seqs := spec.Generate()
	res := Discover(seqs, Params{MinOccur: 8, MaxMut: 2, MinLength: 8, MaxLength: 10})
	found := false
	for _, r := range res {
		if strings.Contains("ACDEFGHIKL", r.Pattern.Key()) && r.Pattern.Len() >= 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted motif not recovered; got %v", keys(res))
	}
}

func TestSubpatternPruningSkipsMatcherRuns(t *testing.T) {
	spec := seq.CorpusSpec{
		Sequences: 10, Length: 120, Seed: 5,
		Motifs: []seq.PlantedMotif{{Pattern: "MMMMWWWW", Carriers: 6}},
	}
	seqs := spec.Generate()
	params := Params{MinOccur: 5, MaxMut: 1, MinLength: 5, MaxLength: 8}

	plain := NewProblem(seqs, params)
	resPlain, _ := core.SolveETTSequential(plain)
	pruned := NewProblem(seqs, params)
	pruned.SubpatternPruning = true
	resPruned, _ := core.SolveETTSequential(pruned)

	if strings.Join(keys(plain.ActiveMotifs(resPlain)), " ") !=
		strings.Join(keys(pruned.ActiveMotifs(resPruned)), " ") {
		t.Fatal("pruning changed the discovered motifs")
	}
	ranPlain, _ := plain.MatcherRuns()
	ranPruned, skipped := pruned.MatcherRuns()
	if skipped == 0 || ranPruned >= ranPlain {
		t.Fatalf("pruning saved nothing: plain=%d pruned=%d skipped=%d",
			ranPlain, ranPruned, skipped)
	}
}

func TestPLETDiscoversSameMotifs(t *testing.T) {
	seqs := seq.CorpusSpec{
		Sequences: 8, Length: 60, Seed: 11,
		Motifs: []seq.PlantedMotif{{Pattern: "QQQYYY", Carriers: 5}},
	}.Generate()
	params := Params{MinOccur: 4, MaxMut: 0, MinLength: 3, MaxLength: 6}
	pr := NewProblem(seqs, params)
	seqRes, _ := core.SolveSequential(NewProblem(seqs, params))

	srv := plinda.NewServer()
	defer srv.Close()
	res, err := core.RunPLET(srv, pr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(keys(pr.ActiveMotifs(res)), " ") !=
		strings.Join(keys(pr.ActiveMotifs(seqRes)), " ") {
		t.Fatalf("PLET diverged")
	}
}

func TestGoodnessOfRootIsAllSequences(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	if g := pr.Goodness(pr.Root()); g != 5 {
		t.Fatalf("root goodness %v", g)
	}
}

func TestCostGrowsWithLength(t *testing.T) {
	pr := NewProblem(toySeqs, Params{MinOccur: 2, MinLength: 2})
	a, _ := pr.Decode("RR")
	b, _ := pr.Decode("RRRR")
	if pr.Cost(b) <= pr.Cost(a) {
		t.Fatal("cost should grow with pattern length")
	}
	if pr.Cost(pr.Root()) != 0 {
		t.Fatal("root costs nothing")
	}
}

func BenchmarkDiscoverSmallCorpus(b *testing.B) {
	seqs := seq.CorpusSpec{
		Sequences: 10, Length: 80, Seed: 2,
		Motifs: []seq.PlantedMotif{{Pattern: "ACACACAC", Carriers: 6}},
	}.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(seqs, Params{MinOccur: 5, MaxMut: 0, MinLength: 4, MaxLength: 8})
	}
}

// evalRecorder records the patterns a traversal asks Goodness about.
type evalRecorder struct {
	*Problem
	evaluated []core.Pattern
}

func (r *evalRecorder) Goodness(p core.Pattern) float64 {
	r.evaluated = append(r.evaluated, p)
	return r.Problem.Goodness(p)
}

// BenchmarkGoodnessMotifMut: one op is one Goodness call on each pattern
// SolveSequential evaluates on the benchmark's motif_mut input (seed 42,
// 120 residues, table 4.2 setting 2 with MinSeedSeqs 5).
func BenchmarkGoodnessMotifMut(b *testing.B) {
	spec := seq.CyclinsSpec(42)
	spec.Length = 120
	rec := &evalRecorder{Problem: NewProblem(spec.Generate(),
		Params{MinOccur: 12, MaxMut: 4, MinLength: 16, MaxLength: 24, MinSeedSeqs: 5})}
	core.SolveSequential(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range rec.evaluated {
			rec.Problem.Goodness(p)
		}
	}
	b.ReportMetric(float64(len(rec.evaluated)), "calls/op")
}

// childRecorder records every pattern Children hands a traversal.
type childRecorder struct {
	*Problem
	made []core.Pattern
}

func (r *childRecorder) Children(p core.Pattern) []core.Pattern {
	kids := r.Problem.Children(p)
	r.made = append(r.made, kids...)
	return kids
}

// TestLocusPatternsMatchDecodedTwins: a pattern Children made carries
// its locus in the suffix tree, and a decoded pattern with the same key
// has none, so the tree is walked from the root for it. On the
// benchmark's motif_exact and motif_mut inputs, every pattern
// SolveSequential and SolveETTSequential are handed must hold a locus of
// its problem's tree, and get the Goodness and the Children (keys, in
// order) of its decoded twin. Asked of a Problem over another corpus,
// where its locus means nothing, it must get that Problem's answers.
func TestLocusPatternsMatchDecodedTwins(t *testing.T) {
	inputs := map[string]struct {
		length int
		params Params
	}{
		"motif_exact": {80, Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24}},
		"motif_mut":   {120, Params{MinOccur: 12, MaxMut: 4, MinLength: 16, MaxLength: 24, MinSeedSeqs: 5}},
	}
	corpus := func(seed int64, length int) []string {
		spec := seq.CyclinsSpec(seed)
		spec.Length = length
		return spec.Generate()
	}
	for name, in := range inputs {
		other := NewProblem(corpus(7, in.length), in.params)
		for solver, solve := range map[string]func(core.Problem) ([]core.Result, core.Stats){
			"SolveSequential": core.SolveSequential, "SolveETTSequential": core.SolveETTSequential,
		} {
			t.Run(name+"/"+solver, func(t *testing.T) {
				rec := &childRecorder{Problem: NewProblem(corpus(42, in.length), in.params)}
				solve(rec)
				if len(rec.made) < 100 {
					t.Fatalf("the traversal made %d patterns", len(rec.made))
				}
				for _, p := range rec.made {
					if p.(*pattern).gst != rec.gst {
						t.Fatalf("Children made %q without a locus in its tree", p.Key())
					}
					for _, pr := range []*Problem{rec.Problem, other} {
						twin, err := pr.Decode(p.Key())
						if err != nil {
							t.Fatal(err)
						}
						if g, want := pr.Goodness(p), pr.Goodness(twin); g != want {
							t.Fatalf("Goodness(%q) = %v, its decoded twin's is %v (own tree %v)", p.Key(), g, want, pr == rec.Problem)
						}
						if got, want := childKeys(pr, p), childKeys(pr, twin); got != want {
							t.Fatalf("Children(%q) = %s, its decoded twin's are %s (own tree %v)", p.Key(), got, want, pr == rec.Problem)
						}
					}
				}
			})
		}
	}
}

// childKeys lists the keys of p's children, in order.
func childKeys(pr *Problem, p core.Pattern) string {
	var ks []string
	for _, c := range pr.Children(p) {
		ks = append(ks, c.Key())
	}
	return strings.Join(ks, ",")
}

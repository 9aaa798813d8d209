package episode

import (
	"testing"
	"testing/quick"

	"freepdm/internal/core"
	"freepdm/internal/plinda"
)

func TestWindowSupportByHand(t *testing.T) {
	s := &Stream{Events: []int{0, 1, 2, 0, 1, 2}, Types: 3}
	// Episode <0 1> in windows of width 3: starts 0..3.
	// [0,1,2] yes; [1,2,0] no; [2,0,1] yes; [0,1,2] yes.
	if got := s.WindowSupport(Episode{0, 1}, 3); got != 3 {
		t.Fatalf("support=%d want 3", got)
	}
	// Order matters: <1 0> occurs in [1,2,0] only.
	if got := s.WindowSupport(Episode{1, 0}, 3); got != 1 {
		t.Fatalf("support=%d want 1", got)
	}
	// Longer than the window: impossible.
	if got := s.WindowSupport(Episode{0, 1, 2, 0}, 3); got != 0 {
		t.Fatalf("support=%d want 0", got)
	}
	// Empty episode supports everywhere.
	if got := s.WindowSupport(nil, 3); got != 6 {
		t.Fatalf("empty support=%d", got)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	e := Episode{3, 1, 4}
	got, err := ParseEpisode(e.Key())
	if err != nil || got.Key() != e.Key() {
		t.Fatalf("round trip: %v %v", got, err)
	}
	if _, err := ParseEpisode("<a>"); err == nil {
		t.Fatal("garbage accepted")
	}
	if e, err := ParseEpisode("<>"); err != nil || len(e) != 0 {
		t.Fatal("empty episode")
	}
}

// TestDecodeAcceptsExactlyTheKeys holds Decode to its definition: a key
// is valid when it is the Key of an episode over the stream's event
// types, so every pattern has exactly one spelling. The key "<>" is the
// root's.
func TestDecodeAcceptsExactlyTheKeys(t *testing.T) {
	pr := NewProblem(GenerateStream(100, 4, []Episode{{1, 3}}, 0.1, 4), 5, 3, 3)
	for _, c := range []struct {
		key   string
		valid bool
	}{
		{"<>", true}, {"<0>", true}, {"<3>", true}, {"<1 3>", true}, {"<3 3 0>", true},
		{"<<1 3>>", false}, {"< 1  3 >", false}, {"1 3", false}, {"<-2>", false}, {"<01>", false},
		{"<4>", false}, {"<1  3>", false}, {"<1\t3>", false}, {"<+1>", false}, {"< >", false},
		{"", false}, {"<", false}, {">", false}, {"<a>", false}, {"<1,3>", false}, {" <1>", false},
	} {
		p, err := pr.Decode(c.key)
		if (err == nil) != c.valid {
			t.Errorf("Decode(%q): err %v, want valid %v", c.key, err, c.valid)
		} else if c.valid && p.Key() != c.key {
			t.Errorf("Decode(%q).Key() = %q", c.key, p.Key())
		}
	}
	if root, err := pr.Decode("<>"); err != nil || root.Key() != pr.Root().Key() || root.Len() != 0 {
		t.Fatalf("Decode(\"<>\") = %v, %v; want the root", root, err)
	}
}

func TestDiscoverFindsPlantedEpisode(t *testing.T) {
	planted := Episode{2, 5, 1}
	s := GenerateStream(2000, 8, []Episode{planted}, 0.05, 1)
	minSupp := s.WindowSupport(planted, 6) // plant sets the bar
	if minSupp < 20 {
		t.Fatalf("planted episode too rare: %d", minSupp)
	}
	freq := Discover(s, 6, minSupp, 3)
	if _, ok := freq[planted.Key()]; !ok {
		t.Fatalf("planted episode missing from %d frequent episodes", len(freq))
	}
}

func TestDiscoverMatchesNaive(t *testing.T) {
	s := GenerateStream(400, 4, []Episode{{0, 2}}, 0.1, 2)
	want := NaiveFrequent(s, 5, 60, 3)
	got := Discover(s, 5, 60, 3)
	if len(got) != len(want) {
		t.Fatalf("E-dag found %d, naive %d", len(got), len(want))
	}
	for k, supp := range want {
		if got[k] != supp {
			t.Fatalf("support mismatch for %s: %d vs %d", k, got[k], supp)
		}
	}
}

// Property: for random small streams, E-dag discovery equals the
// brute-force enumeration, and support is antimonotone under
// right-extension.
func TestPropertyEdagMatchesNaive(t *testing.T) {
	f := func(seed int64, widthRaw, minRaw uint8) bool {
		s := GenerateStream(200, 3, nil, 0, seed)
		width := int(widthRaw%4) + 2
		minSupport := int(minRaw%40) + 20
		want := NaiveFrequent(s, width, minSupport, 3)
		got := Discover(s, width, minSupport, 3)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAntimonotone(t *testing.T) {
	s := GenerateStream(300, 4, nil, 0, 9)
	f := func(raw []uint8, widthRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 4 {
			return true
		}
		width := int(widthRaw%5) + 2
		e := make(Episode, len(raw))
		for i, r := range raw {
			e[i] = int(r) % 4
		}
		for t := 0; t < 4; t++ {
			ext := append(append(Episode(nil), e...), t)
			if s.WindowSupport(ext, width) > s.WindowSupport(e, width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPLETAgrees(t *testing.T) {
	s := GenerateStream(300, 4, []Episode{{1, 3}}, 0.08, 4)
	pr := NewProblem(s, 5, 50, 3)
	want, _ := core.SolveSequential(NewProblem(s, 5, 50, 3))
	srv := plinda.NewServer()
	defer srv.Close()
	got, err := core.RunPLET(srv, pr, 3)
	if err != nil {
		t.Fatal(err)
	}
	wf, gf := Frequent(want), Frequent(got)
	if len(wf) != len(gf) {
		t.Fatalf("PLET found %d, sequential %d", len(gf), len(wf))
	}
	for k, v := range wf {
		if gf[k] != v {
			t.Fatalf("mismatch at %s", k)
		}
	}
}

func TestSubpatternsPrefixSuffix(t *testing.T) {
	pr := NewProblem(&Stream{Types: 4}, 5, 1, 3)
	p, _ := pr.Decode("<1 2 3>")
	subs := pr.Subpatterns(p)
	if len(subs) != 2 || subs[0].Key() != "<1 2>" || subs[1].Key() != "<2 3>" {
		t.Fatalf("subpatterns %v", subs)
	}
	pp, _ := pr.Decode("<2 2>")
	if subs := pr.Subpatterns(pp); len(subs) != 1 || subs[0].Key() != "<2>" {
		t.Fatalf("degenerate subpatterns %v", subs)
	}
}

func BenchmarkDiscover(b *testing.B) {
	s := GenerateStream(1000, 6, []Episode{{0, 3, 5}}, 0.05, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(s, 6, 80, 3)
	}
}

// NaiveFrequent enumerates every episode up to maxLen by brute force —
// the reference implementation for the property tests.
func NaiveFrequent(s *Stream, width, minSupport, maxLen int) map[string]int {
	out := map[string]int{}
	var rec func(e Episode)
	rec = func(e Episode) {
		if len(e) > 0 {
			supp := s.WindowSupport(e, width)
			if supp < minSupport {
				return // antimonotone: no extension can be frequent
			}
			out[e.Key()] = supp
		}
		if len(e) == maxLen {
			return
		}
		for t := 0; t < s.Types; t++ {
			rec(append(append(Episode(nil), e...), t))
		}
	}
	rec(nil)
	return out
}

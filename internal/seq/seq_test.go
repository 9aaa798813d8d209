package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGSTSeqCountToyExample(t *testing.T) {
	// The toy database of section 2.3.1.
	seqs := []string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}
	g := BuildGST(seqs)
	cases := []struct {
		seg  string
		want int
	}{
		{"RR", 2}, {"RM", 2}, {"FFRR", 1}, {"M", 2}, {"Z", 0}, {"", 5}, {"RRM", 1},
	}
	for _, c := range cases {
		if got := g.SeqCount(c.seg); got != c.want {
			t.Errorf("SeqCount(%q)=%d want %d", c.seg, got, c.want)
		}
	}
}

func TestGSTMatchesNaiveCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := RandomSequences(12, 60, rng)
	g := BuildGST(seqs)
	for i := 0; i < 200; i++ {
		s := seqs[rng.Intn(len(seqs))]
		a := rng.Intn(len(s))
		b := a + 1 + rng.Intn(8)
		if b > len(s) {
			b = len(s)
		}
		seg := s[a:b]
		if got, want := g.SeqCount(seg), NaiveSeqCount(seqs, seg); got != want {
			t.Fatalf("SeqCount(%q)=%d want %d", seg, got, want)
		}
	}
}

// Property: for random segment queries (present or not), GST count
// equals the naive count.
func TestPropertyGSTCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := RandomSequences(8, 40, rng)
	g := BuildGST(seqs)
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		var b strings.Builder
		for _, r := range raw {
			b.WriteByte(Alphabet[int(r)%len(Alphabet)])
		}
		seg := b.String()
		return g.SeqCount(seg) == NaiveSeqCount(seqs, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGSTExtensions(t *testing.T) {
	seqs := []string{"FFRR", "MRRM", "MTRM"}
	g := BuildGST(seqs)
	// Extensions of "R": RR (FFRR, MRRM) and RM (MRRM, MTRM).
	exts := g.Extensions("R", 1)
	if string(exts) != "MR" {
		t.Fatalf("Extensions(R)=%q want \"MR\"", exts)
	}
	// With minSeqs 2 both survive; with 3 neither.
	if got := g.Extensions("R", 2); string(got) != "MR" {
		t.Fatalf("Extensions(R,2)=%q", got)
	}
	if got := g.Extensions("R", 3); len(got) != 0 {
		t.Fatalf("Extensions(R,3)=%q", got)
	}
	// Top-level extensions are the distinct first letters.
	top := g.Extensions("", 1)
	if string(top) != "FMRT" {
		t.Fatalf("Extensions('')=%q", top)
	}
}

func TestGSTSegments(t *testing.T) {
	seqs := []string{"ABCDE", "XBCDY", "BCDZZ"}
	g := BuildGST(seqs)
	segs := g.Segments(3, 3)
	if len(segs) != 1 || segs[0] != "BCD" {
		t.Fatalf("Segments(3,3)=%v", segs)
	}
	if segs := g.Segments(2, 3); len(segs) != 2 { // BC, CD
		t.Fatalf("Segments(2,3)=%v", segs)
	}
}

func TestMotifParseAndString(t *testing.T) {
	m := ParseMotif("*RR*")
	if len(m.Segments) != 1 || m.Segments[0] != "RR" || m.Len() != 2 {
		t.Fatalf("%+v", m)
	}
	if m.String() != "*RR*" {
		t.Fatalf("String %q", m.String())
	}
	two := ParseMotif("*AB*CD*")
	if len(two.Segments) != 2 || two.Len() != 4 {
		t.Fatalf("%+v", two)
	}
}

func TestMatchesWithinExact(t *testing.T) {
	m := ParseMotif("*RR*")
	if !m.MatchesWithin("FFRR", 0) || !m.MatchesWithin("MRRM", 0) {
		t.Fatal("exact match failed")
	}
	if m.MatchesWithin("MTRM", 0) {
		t.Fatal("false positive")
	}
	if got := m.OccurrenceNo([]string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}, 0); got != 2 {
		t.Fatalf("occurrence %d want 2 (section 2.3.1)", got)
	}
}

func TestMatchesWithinMutations(t *testing.T) {
	m := ParseMotif("*ACDEF*")
	if !m.MatchesWithin("xxACDEFyy", 0) {
		t.Fatal("exact substring")
	}
	if !m.MatchesWithin("xxACGEFyy", 1) { // mismatch
		t.Fatal("one mismatch within 1")
	}
	if m.MatchesWithin("xxACGEFyy", 0) {
		t.Fatal("mismatch without budget")
	}
	if !m.MatchesWithin("xxACDEyy", 1) { // deletion of F
		t.Fatal("one deletion within 1")
	}
	if !m.MatchesWithin("xxACWDEFyy", 1) { // insertion
		t.Fatal("one insertion within 1")
	}
	if m.MatchesWithin("xxAWWEFyy", 1) {
		t.Fatal("two mismatches within 1")
	}
}

func TestMultiSegmentOrdering(t *testing.T) {
	m := ParseMotif("*AB*CD*")
	if !m.MatchesWithin("xxAByyCDzz", 0) {
		t.Fatal("ordered segments should match")
	}
	if m.MatchesWithin("xxCDyyABzz", 0) {
		t.Fatal("segments out of order must not match exactly")
	}
	// Adjacent segments (empty VLDC) are allowed.
	if !m.MatchesWithin("ABCD", 0) {
		t.Fatal("adjacent segments")
	}
}

// Property: single-segment semi-global matching is consistent with
// edit distance: if some substring has edit distance <= mut the motif
// matches, and conversely.
func TestPropertySemiGlobalVsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(segRaw, sRaw []uint8, mutRaw uint8) bool {
		if len(segRaw) == 0 || len(segRaw) > 5 || len(sRaw) == 0 || len(sRaw) > 12 {
			return true
		}
		mut := int(mutRaw % 3)
		mk := func(raw []uint8) string {
			var b strings.Builder
			for _, r := range raw {
				b.WriteByte(Alphabet[int(r)%4]) // small alphabet: collisions likely
			}
			return b.String()
		}
		seg, s := mk(segRaw), mk(sRaw)
		m := Motif{Segments: []string{seg}}
		want := false
		for i := 0; i <= len(s) && !want; i++ {
			for j := i; j <= len(s); j++ {
				if EditDistance(seg, s[i:j]) <= mut {
					want = true
					break
				}
			}
		}
		return m.MatchesWithin(s, mut) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the subpattern antimonotonicity of section 2.3.4 — a
// right-extension of a motif never occurs in more sequences.
func TestPropertyExtensionAntimonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := RandomSequences(10, 50, rng)
	f := func(raw []uint8, mutRaw uint8) bool {
		if len(raw) < 2 || len(raw) > 6 {
			return true
		}
		var b strings.Builder
		for _, r := range raw {
			b.WriteByte(Alphabet[int(r)%6])
		}
		seg := b.String()
		mut := int(mutRaw % 3)
		short := Motif{Segments: []string{seg[:len(seg)-1]}}
		long := Motif{Segments: []string{seg}}
		return long.OccurrenceNo(seqs, mut) <= short.OccurrenceNo(seqs, mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclinsCorpusShape(t *testing.T) {
	spec := CyclinsSpec(42)
	seqs := spec.Generate()
	if len(seqs) != 47 {
		t.Fatalf("%d sequences", len(seqs))
	}
	avg := AverageLength(seqs)
	if avg < 360 || avg > 440 {
		t.Fatalf("average length %.0f, want ~400", avg)
	}
	// The exactly conserved planted motifs must be recoverable.
	g := BuildGST(seqs)
	for _, m := range spec.Motifs {
		if m.MutRate == 0 && len(m.VarPositions) == 0 {
			if got := g.SeqCount(m.Pattern); got < m.Carriers {
				t.Errorf("planted motif %q found in %d sequences, want >= %d",
					m.Pattern, got, m.Carriers)
			}
		}
	}
	// The position-degenerate motifs should be found by mutation-
	// tolerant search: each copy differs at the variable positions, so
	// allow one mutation per variable column.
	deg := spec.Motifs[3]
	m := Motif{Segments: []string{deg.Pattern}}
	if occ := m.OccurrenceNo(seqs, len(deg.VarPositions)); occ < deg.Carriers*3/4 {
		t.Errorf("degenerate motif occurs in %d sequences, want >= %d", occ, deg.Carriers*3/4)
	}
}

func TestFormatFasta(t *testing.T) {
	out := FormatFasta("cyc", []string{strings.Repeat("A", 70)})
	if !strings.HasPrefix(out, ">cyc_A\n") || !strings.Contains(out, "\nAAAAAAAAAA\n") {
		t.Fatalf("fasta:\n%s", out)
	}
}

// matchesWithinDP is the dense edit DP MatchesWithin ran before Myers'
// bit-vector kernel replaced it, kept verbatim as the kernel's oracle.
func matchesWithinDP(m Motif, s string, mut int) bool {
	if m.Len() == 0 {
		return true
	}
	// state[j] = minimal mutations spent so far for a parse of the
	// segments consumed so far that ends at or before position j of s.
	// Process segments in order; for each, run a semi-global edit DP
	// whose start positions are the allowed continuation points.
	n := len(s)
	const inf = 1 << 30
	// best[j]: minimal cost to have matched the segments so far with
	// the last match ending at position <= j (prefix-min form).
	best := make([]int, n+1)
	for j := range best {
		best[j] = 0 // zero segments matched costs nothing, any start
	}
	cur := make([]int, n+1)
	prev := make([]int, n+1)
	for _, seg := range m.Segments {
		mlen := len(seg)
		// prev/cur rows of the edit DP over the segment (rows) and s
		// (cols). Row 0: starting a match at position j costs best[j]
		// (mutations already spent before this segment).
		for j := 0; j <= n; j++ {
			prev[j] = best[j]
		}
		nextBest := make([]int, n+1)
		for j := range nextBest {
			nextBest[j] = inf
		}
		for i := 1; i <= mlen; i++ {
			cur[0] = prev[0] + 1 // deletion of segment letter
			for j := 1; j <= n; j++ {
				sub := prev[j-1]
				if seg[i-1] != s[j-1] {
					sub++
				}
				del := prev[j] + 1 // delete segment letter
				ins := cur[j-1] + 1
				v := sub
				if del < v {
					v = del
				}
				if ins < v {
					v = ins
				}
				cur[j] = v
			}
			prev, cur = cur, prev
		}
		// prev now holds the final row: cost of matching this segment
		// ending exactly at position j. Convert to prefix-min for the
		// next segment's free start (the * between them).
		run := inf
		for j := 0; j <= n; j++ {
			if prev[j] < run {
				run = prev[j]
			}
			nextBest[j] = run
		}
		best = nextBest
	}
	return best[n] <= mut
}

// EditDistance is the unit-cost Levenshtein distance, for the property
// tests of the matcher.
func EditDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			v := sub
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// checkAgainstDP fails t unless the kernel agrees with the oracle on s at
// mut and, the predicate being monotone in mut, on both sides of the
// oracle's threshold — the least budget that matches, so the kernel's
// cost is checked exactly, not only its verdict at one budget.
func checkAgainstDP(t *testing.T, m Motif, s string, mut int) {
	t.Helper()
	check := func(mut int) {
		if got, want := m.MatchesWithin(s, mut), matchesWithinDP(m, s, mut); got != want {
			t.Fatalf("%s in %q (%d letters) within %d: kernel %v, DP %v", m, s, len(s), mut, got, want)
		}
		seqs, want := []string{s, s[len(s)/3:], ""}, 0
		for _, x := range seqs {
			if matchesWithinDP(m, x, mut) {
				want++
			}
		}
		if got := m.OccurrenceNo(seqs, mut); got != want {
			t.Fatalf("%s in %q within %d: OccurrenceNo %d, DP %d", m, seqs, mut, got, want)
		}
	}
	check(mut)
	lo, hi := 0, m.Len() // the DP matches at Len() whatever s is
	for lo < hi {
		if mid := (lo + hi) / 2; matchesWithinDP(m, s, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	check(lo)
	check(lo - 1)
}

// Property: Myers' kernel decides exactly what the edit DP it replaced
// decides — 1 to 3 segments of 1 to 130 letters, so single segments and
// chains cross the 64- and 128-letter block boundaries, against sequences
// of 0 to 200 letters that carry mutated copies of the segments half the
// time and letters outside Alphabet, at budgets from 0 to Len()+1.
func TestPropertyMatcherAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const foreign = "x*\x00\xff"
	letter := func(pool string) byte {
		if rng.Intn(10) == 0 {
			return foreign[rng.Intn(len(foreign))]
		}
		return pool[rng.Intn(len(pool))]
	}
	cases := 1500
	if testing.Short() {
		cases = 300
	}
	for c := 0; c < cases; c++ {
		pool := Alphabet[:2+rng.Intn(len(Alphabet)-1)] // small pools make near matches likely
		var m Motif
		for k := 1 + rng.Intn(3); k > 0; k-- {
			l := 1 + rng.Intn(130)
			if rng.Intn(3) == 0 { // straddle a block boundary
				l = []int{63, 64, 65, 127, 128, 129}[rng.Intn(6)]
			}
			seg := make([]byte, l)
			for i := range seg {
				seg[i] = pool[rng.Intn(len(pool))]
			}
			m.Segments = append(m.Segments, string(seg))
		}
		s := make([]byte, 0, 200)
		for budget := rng.Intn(201); len(s) < budget; {
			if rng.Intn(2) == 0 && len(s) > 0 {
				seg := m.Segments[rng.Intn(len(m.Segments))]
				for i := 0; i < len(seg) && len(s) < budget; i++ {
					switch rng.Intn(12) {
					case 0: // deleted
					case 1:
						s = append(s, letter(pool)) // substituted
					case 2:
						s = append(s, letter(pool), seg[i]) // inserted before
					default:
						s = append(s, seg[i])
					}
				}
				continue
			}
			s = append(s, letter(pool))
		}
		checkAgainstDP(t, m, string(s), rng.Intn(m.Len()+2))
	}
}

// FuzzOccurrenceNo holds the kernel to the DP oracle on arbitrary
// motifs in "*SEG*SEG*" notation (any bytes but '*' are letters),
// sequences and budgets. The seed corpus is testdata/fuzz/FuzzOccurrenceNo.
func FuzzOccurrenceNo(f *testing.F) {
	f.Fuzz(func(t *testing.T, motif, s string, mut uint16) {
		m := ParseMotif(motif)
		if len(m.Segments) > 3 || m.Len() > 260 || len(s) > 400 {
			return
		}
		checkAgainstDP(t, m, s, int(mut)%(m.Len()+2))
	})
}

// TestOccurrenceNoAllocs: the kernel takes nothing from the heap for a
// single segment of up to 64 letters, the shape every Goodness call of a
// motif_mut run asks about, over the benchmark's motif_mut corpus (seed
// 42, sequences cut to 120 residues).
func TestOccurrenceNoAllocs(t *testing.T) {
	seqs := CyclinsSpec(42).Generate()
	for i, s := range seqs {
		seqs[i] = s[:120]
	}
	for _, l := range []int{1, 5, 16, 24, 63, 64} {
		m := Motif{Segments: []string{strings.Repeat("SLEYKLLPETLYLAISYVDRYPSK", 3)[:l]}}
		if got := testing.AllocsPerRun(20, func() { m.OccurrenceNo(seqs, 4) }); got != 0 {
			t.Errorf("OccurrenceNo of a %d-letter segment allocates %v times, want 0", l, got)
		}
	}
}

func TestEditDistanceBasics(t *testing.T) {
	if EditDistance("kitten", "sitting") != 3 {
		t.Fatal("kitten/sitting")
	}
	if EditDistance("", "abc") != 3 || EditDistance("abc", "") != 3 {
		t.Fatal("empty cases")
	}
	if EditDistance("same", "same") != 0 {
		t.Fatal("identity")
	}
}

func BenchmarkBuildGSTCyclins(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGST(seqs)
	}
}

func BenchmarkOccurrenceNoMut4(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	m := ParseMotif("*SLEYKLLPETLYLAISY*")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OccurrenceNo(seqs, 4)
	}
}

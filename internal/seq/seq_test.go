package seq

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// NaiveSeqCount is the reference implementation of SeqCount used by
// the property tests: strings.Contains over every sequence.
func NaiveSeqCount(seqs []string, segment string) int {
	c := 0
	for _, s := range seqs {
		if strings.Contains(s, segment) {
			c++
		}
	}
	return c
}

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

// checkGSTAgainstNaive holds the GST's queries to the naive oracle on
// one segment: SeqCount is NaiveSeqCount; Find finds the segment exactly
// when it occurs (the empty segment always does) and Count at its locus
// is NaiveSeqCount; and for m = 1, 2, 3 Extensions(seg, m) and Extend
// at the locus are exactly the bytes c, in byte order, with
// NaiveSeqCount(seqs, seg+c) >= m, each of Extend's loci is Find's for
// seg+c, and Count there is NaiveSeqCount(seqs, seg+c).
func checkGSTAgainstNaive(t *testing.T, g *GST, seqs []string, seg string) {
	t.Helper()
	naive := NaiveSeqCount(seqs, seg)
	if got := g.SeqCount(seg); got != naive {
		t.Fatalf("SeqCount(%q) = %d, want %d on %q", seg, got, naive, seqs)
	}
	at, found := g.Find(seg)
	if found != (seg == "" || naive > 0) {
		t.Fatalf("Find(%q) found %v, but the segment occurs in %d sequences of %q", seg, found, naive, seqs)
	}
	if found && g.Count(at) != naive {
		t.Fatalf("Count(Find(%q)) = %d, want %d on %q", seg, g.Count(at), naive, seqs)
	}
	var counts [256]int // a byte no sequence holds extends nothing
	for _, s := range seqs {
		for i := range len(s) {
			if c := s[i]; counts[c] == 0 {
				counts[c] = NaiveSeqCount(seqs, seg+string([]byte{c}))
			}
		}
	}
	for m := 1; m <= 3; m++ {
		var want []byte
		for c, n := range counts {
			if n >= m {
				want = append(want, byte(c))
			}
		}
		if got := g.Extensions(seg, m); string(got) != string(want) {
			t.Fatalf("Extensions(%q, %d) = %q, want %q on %q", seg, m, got, want, seqs)
		}
		if !found {
			continue
		}
		letters, loci := g.Extend(at, m, nil, nil)
		if string(letters) != string(want) || len(loci) != len(letters) {
			t.Fatalf("Extend(Find(%q), %d) = %q with %d loci, want %q on %q", seg, m, letters, len(loci), want, seqs)
		}
		for i, c := range letters {
			child := seg + string([]byte{c})
			if l, ok := g.Find(child); !ok || l != loci[i] {
				t.Fatalf("Extend(Find(%q), %d) gives %q the locus %v, Find gives %v (found %v) on %q", seg, m, child, loci[i], l, ok, seqs)
			}
			if got := g.Count(loci[i]); got != counts[c] {
				t.Fatalf("Count at %q's locus from Extend = %d, want %d on %q", child, got, counts[c], seqs)
			}
		}
	}
}

// endsMidEdge reports, from the data alone, whether a segment ends
// inside an edge of the tree: it occurs, no sequence ends with it, and
// one letter is all that ever follows it.
func endsMidEdge(seqs []string, seg string) bool {
	if seg == "" || NaiveSeqCount(seqs, seg) == 0 {
		return false
	}
	next := -1
	for _, s := range seqs {
		for i := 0; ; {
			j := strings.Index(s[i:], seg)
			if j < 0 {
				break
			}
			end := i + j + len(seg)
			if end == len(s) || next >= 0 && int(s[end]) != next {
				return false
			}
			next = int(s[end])
			i += j + 1
		}
	}
	return true
}

// Property: on random corpora over pools of 2 to 20 letters, on the toy
// database of section 2.3.1 and on sequences with bytes outside
// Alphabet, SeqCount and Extensions agree with the naive oracle on the
// empty segment, on every short substring (many of which end mid-edge),
// on those substrings with one letter changed, and on random strings
// (mostly absent).
func TestPropertyGSTAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpora := [][]string{
		{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"},
		{"x*\x00\xffAC", "AC\xff\x00", "\xff\xff\xffA", "", "zzAC*"},
	}
	for c := 0; c < 40; c++ {
		pool := Alphabet[:2+rng.Intn(len(Alphabet)-1)]
		if c%4 == 0 {
			pool += "x*\x00\xff"
		}
		seqs := make([]string, 1+rng.Intn(8))
		for i := range seqs {
			b := make([]byte, rng.Intn(40))
			for j := range b {
				b[j] = pool[rng.Intn(len(pool))]
			}
			seqs[i] = string(b)
		}
		corpora = append(corpora, seqs)
	}
	midEdge := 0
	for _, seqs := range corpora {
		g := BuildGST(seqs)
		segs := []string{""}
		for _, s := range seqs {
			for i := range len(s) {
				for l := 1; l <= 6 && i+l <= len(s); l++ {
					seg := s[i : i+l]
					changed := []byte(seg)
					changed[rng.Intn(l)] = "ACx\xff"[rng.Intn(4)]
					segs = append(segs, seg, string(changed))
				}
			}
		}
		for range 20 {
			b := make([]byte, 1+rng.Intn(5))
			for j := range b {
				b[j] = Alphabet[rng.Intn(len(Alphabet))]
			}
			segs = append(segs, string(b))
		}
		for _, seg := range segs {
			checkGSTAgainstNaive(t, g, seqs, seg)
			if endsMidEdge(seqs, seg) {
				midEdge++
			}
		}
	}
	if midEdge == 0 {
		t.Fatal("no segment ended mid-edge")
	}
}

// TestBuildGSTAllocs: a build allocates a fixed number of times, the
// same on the benchmark's 80-residue motif_exact input as on the full
// 400-residue corpus; SeqCount, Find, Count and Extend into buffers with
// room allocate nothing, and Extensions at most its result.
func TestBuildGSTAllocs(t *testing.T) {
	spec := CyclinsSpec(42)
	full := spec.Generate()
	spec.Length = 80
	short := spec.Generate()
	// A collection during the count adds the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a80 := testing.AllocsPerRun(5, func() { BuildGST(short) })
	a400 := testing.AllocsPerRun(5, func() { BuildGST(full) })
	if a80 != a400 || a400 > 2 {
		t.Errorf("BuildGST allocates %v times on 80 residues and %v on 400, want the same and at most 2", a80, a400)
	}
	g := BuildGST(full)
	for _, seg := range []string{"", "M", "MRAILV", "MRAILVDWLVEV", "WWWWWW"} {
		if got := testing.AllocsPerRun(20, func() { g.SeqCount(seg) }); got != 0 {
			t.Errorf("SeqCount(%q) allocates %v times, want 0", seg, got)
		}
		if got := testing.AllocsPerRun(20, func() { g.Extensions(seg, 1) }); got > 1 {
			t.Errorf("Extensions(%q) allocates %v times, want at most 1", seg, got)
		}
		var letters [len(Alphabet)]byte
		var loci [len(Alphabet)]Locus
		if got := testing.AllocsPerRun(20, func() {
			if at, ok := g.Find(seg); ok {
				g.Count(at)
				g.Extend(at, 1, letters[:0], loci[:0])
			}
		}); got != 0 {
			t.Errorf("Find, Count and Extend of %q allocate %v times, want 0", seg, got)
		}
	}
}

// FuzzGST holds the GST's queries to the naive oracle on arbitrary
// sequences (a, b and c; any byte is a letter) and segments. The seed
// corpus is testdata/fuzz/FuzzGST.
func FuzzGST(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c, seg string) {
		if len(a)+len(b)+len(c) > 300 || len(seg) > 12 {
			return
		}
		seqs := []string{a, b, c}
		checkGSTAgainstNaive(t, BuildGST(seqs), seqs, seg)
	})
}

func TestMatchesWithinExact(t *testing.T) {
	matches := func(s string) bool { return OccurrenceNo("RR", []string{s}, 0) == 1 }
	if !matches("FFRR") || !matches("MRRM") {
		t.Fatal("exact match failed")
	}
	if matches("MTRM") {
		t.Fatal("false positive")
	}
	if got := OccurrenceNo("RR", []string{"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"}, 0); got != 2 {
		t.Fatalf("occurrence %d want 2 (section 2.3.1)", got)
	}
}

func TestMatchesWithinMutations(t *testing.T) {
	matches := func(s string, mut int) bool { return OccurrenceNo("ACDEF", []string{s}, mut) == 1 }
	if !matches("xxACDEFyy", 0) {
		t.Fatal("exact substring")
	}
	if !matches("xxACGEFyy", 1) { // mismatch
		t.Fatal("one mismatch within 1")
	}
	if matches("xxACGEFyy", 0) {
		t.Fatal("mismatch without budget")
	}
	if !matches("xxACDEyy", 1) { // deletion of F
		t.Fatal("one deletion within 1")
	}
	if !matches("xxACWDEFyy", 1) { // insertion
		t.Fatal("one insertion within 1")
	}
	if matches("xxAWWEFyy", 1) {
		t.Fatal("two mismatches within 1")
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
		want := false
		for i := 0; i <= len(s) && !want; i++ {
			for j := i; j <= len(s); j++ {
				if EditDistance(seg, s[i:j]) <= mut {
					want = true
					break
				}
			}
		}
		return (OccurrenceNo(seg, []string{s}, mut) == 1) == want
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
		return OccurrenceNo(seg, seqs, mut) <= OccurrenceNo(seg[:len(seg)-1], seqs, mut)
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
	if occ := OccurrenceNo(deg.Pattern, seqs, len(deg.VarPositions)); occ < deg.Carriers*3/4 {
		t.Errorf("degenerate motif occurs in %d sequences, want >= %d", occ, deg.Carriers*3/4)
	}
}

func TestFormatFasta(t *testing.T) {
	out := FormatFasta("cyc", []string{strings.Repeat("A", 70)})
	if !strings.HasPrefix(out, ">cyc_A\n") || !strings.Contains(out, "\nAAAAAAAAAA\n") {
		t.Fatalf("fasta:\n%s", out)
	}
}

// FormatFasta renders sequences in a simple FASTA-like form.
func FormatFasta(name string, seqs []string) string {
	var b strings.Builder
	for i, s := range seqs {
		b.WriteString(">")
		b.WriteString(name)
		b.WriteString("_")
		b.WriteByte(byte('A' + i%26))
		b.WriteString("\n")
		for len(s) > 60 {
			b.WriteString(s[:60])
			b.WriteString("\n")
			s = s[60:]
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}

// RandomSequences generates n random sequences of the given length
// over the amino-acid alphabet.
func RandomSequences(n, length int, rng *rand.Rand) []string {
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for j := 0; j < length; j++ {
			b.WriteByte(Alphabet[rng.Intn(len(Alphabet))])
		}
		out[i] = b.String()
	}
	return out
}

// leastBudgetDP is the least mutation budget within which seg matches s:
// the minimum over the last row of the dense edit DP that Myers'
// bit-vector kernel replaced, kept as the kernel's oracle. Row 0 is all
// zeros, so a match may start at any letter of s, and the minimum lets
// it end at any.
func leastBudgetDP(seg, s string) int {
	prev := make([]int, len(s)+1)
	cur := make([]int, len(s)+1)
	for i := 1; i <= len(seg); i++ {
		cur[0] = i // seg[:i] deleted
		for j := 1; j <= len(s); j++ {
			sub := prev[j-1]
			if seg[i-1] != s[j-1] {
				sub++
			}
			cur[j] = min(sub, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return slices.Min(prev)
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

// checkAgainstDP fails t unless the kernel agrees with the oracle on s,
// s[len(s)/3:] and the empty sequence at mut and, the predicate being
// monotone in mut, on both sides of s's least budget, so the kernel's
// cost is checked exactly, not only its verdict at one budget. The DP
// runs once a sequence: its least budget decides every check.
func checkAgainstDP(t *testing.T, seg, s string, mut int) {
	t.Helper()
	seqs := []string{s, s[len(s)/3:], ""}
	least := make([]int, len(seqs))
	for i, x := range seqs {
		least[i] = leastBudgetDP(seg, x)
	}
	for _, b := range []int{mut, least[0] - 1, least[0]} {
		if got, want := OccurrenceNo(seg, seqs[:1], b) == 1, least[0] <= b; got != want {
			t.Fatalf("%q in %q (%d letters) within %d: kernel %v, DP %v", seg, s, len(s), b, got, want)
		}
		want := 0
		for _, l := range least {
			if l <= b {
				want++
			}
		}
		if got := OccurrenceNo(seg, seqs, b); got != want {
			t.Fatalf("%q in %q within %d: OccurrenceNo %d, DP %d", seg, seqs, b, got, want)
		}
	}
}

// Property: Myers' kernel decides exactly what the edit DP it replaced
// decides — one segment of 1 to 64 letters, often 63 or 64 so the top
// rows of the column are exercised, against sequences of 0 to 200
// letters that carry mutated copies of the segment half the time and
// letters outside Alphabet, at budgets from 0 to len(seg)+1.
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
		l := 1 + rng.Intn(64)
		if rng.Intn(3) == 0 { // fill the column
			l = 63 + rng.Intn(2)
		}
		seg := make([]byte, l)
		for i := range seg {
			seg[i] = pool[rng.Intn(len(pool))]
		}
		s := make([]byte, 0, 200)
		for budget := rng.Intn(201); len(s) < budget; {
			if rng.Intn(2) == 0 && len(s) > 0 {
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
		checkAgainstDP(t, string(seg), string(s), rng.Intn(l+2))
	}
}

// FuzzOccurrenceNo holds the kernel to the DP oracle on arbitrary
// segments of 1 to 64 bytes, sequences and budgets. The seed corpus is
// testdata/fuzz/FuzzOccurrenceNo.
func FuzzOccurrenceNo(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg, s string, mut uint16) {
		if len(seg) == 0 || len(seg) > 64 || len(s) > 400 {
			return
		}
		checkAgainstDP(t, seg, s, int(mut)%(len(seg)+2))
	})
}

// mutCorpus is the benchmark's motif_mut corpus at seed: the cyclins
// family at 120 residues a sequence.
func mutCorpus(seed int64) []string {
	spec := CyclinsSpec(seed)
	spec.Length = 120
	return spec.Generate()
}

// TestOccurrenceNoOnMutCorpus holds the kernel to the DP oracle on the
// inputs a motif_mut run gives it: single segments of 1 to 24 letters cut
// from the corpus itself, so planted regions and near matches occur, over
// the whole corpus at budgets 0 to 5.
func TestOccurrenceNoOnMutCorpus(t *testing.T) {
	stride := 7
	if testing.Short() {
		stride = 29
	}
	for _, seed := range []int64{42, 7} {
		seqs := mutCorpus(seed)
		least := make([]int, len(seqs))
		for l := 1; l <= 24; l++ {
			for k := 0; k < len(seqs); k += stride {
				s := seqs[k]
				lo := (k*13 + l*5) % (len(s) - l)
				seg := s[lo : lo+l]
				for i, x := range seqs {
					least[i] = leastBudgetDP(seg, x)
				}
				for mut := 0; mut <= 5; mut++ {
					want := 0
					for _, b := range least {
						if b <= mut {
							want++
						}
					}
					if got := OccurrenceNo(seg, seqs, mut); got != want {
						t.Fatalf("seed %d: %q within %d: OccurrenceNo %d, DP %d", seed, seg, mut, got, want)
					}
				}
			}
		}
	}
}

// TestOccurrenceNoAllocs: the kernel takes nothing from the heap, over
// the benchmark's motif_mut corpus (seed 42, 120 residues), for segments
// up to the 64 letters it takes.
func TestOccurrenceNoAllocs(t *testing.T) {
	seqs := mutCorpus(42)
	long := strings.Repeat("SLEYKLLPETLYLAISYVDRYPSK", 3)
	for _, l := range []int{1, 5, 16, 24, 63, 64} {
		if got := testing.AllocsPerRun(20, func() { OccurrenceNo(long[:l], seqs, 4) }); got != 0 {
			t.Errorf("OccurrenceNo of %d letters allocates %v times, want 0", l, got)
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

// BenchmarkBuildGST builds the tree of the benchmark rig's motif_exact
// input (seed 42, 47 sequences cut to 80 residues), the build that
// motif.NewProblem puts inside every exact-motif run's setup.
func BenchmarkBuildGST(b *testing.B) {
	spec := CyclinsSpec(42)
	spec.Length = 80
	seqs := spec.Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGST(seqs)
	}
}

func BenchmarkBuildGSTCyclins(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGST(seqs)
	}
}

func BenchmarkOccurrenceNoMut4(b *testing.B) {
	seqs := CyclinsSpec(1).Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OccurrenceNo("SLEYKLLPETLYLAISY", seqs, 4)
	}
}

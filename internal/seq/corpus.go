package seq

import "math/rand"

// CorpusSpec parameterizes the synthetic protein family standing in
// for cyclins.pirx (47 sequences, average length ~400). Motifs are
// planted into subsets of the sequences, some copies mutated, so that
// the discovery settings of table 4.2 find comparable numbers of
// active motifs and the resulting E-tree has the same shape (20 top
// level patterns, a few hundred second-level patterns).
type CorpusSpec struct {
	Sequences int // number of sequences (47)
	Length    int // average sequence length (~400)
	// Planted motifs: each is inserted into Carriers sequences; within
	// a carrier each copy mutates with MutRate per letter.
	Motifs []PlantedMotif
	Seed   int64
}

// PlantedMotif describes one conserved region. Conservation can be
// position-structured, as in real protein families: positions listed
// in VarPositions are variable — each copy draws that letter from a
// small per-position alternative set of VarChoices letters — while all
// other positions are copied exactly. MutRate additionally applies
// uniform per-letter noise.
type PlantedMotif struct {
	Pattern      string // the conserved segment
	Carriers     int    // how many sequences carry it
	MutRate      float64
	VarPositions []int // positions randomized per copy
	VarChoices   int   // alternative letters per variable position (default 4)
}

// CyclinsSpec is the default corpus matching the experimental data
// set: strongly conserved long motifs carried by most of the family
// (found by setting 2's mutation-tolerant search) plus a few exactly
// conserved shorter regions (found by setting 1's exact search).
func CyclinsSpec(seed int64) CorpusSpec {
	return CorpusSpec{
		Sequences: 47,
		Length:    400,
		Seed:      seed,
		Motifs: []PlantedMotif{
			// Exactly conserved: found with Mut=0, Occur>=5, Len>=12.
			{Pattern: "MRAILVDWLVEV", Carriers: 7, MutRate: 0},
			{Pattern: "YLDRFLSCMSVL", Carriers: 6, MutRate: 0},
			{Pattern: "KYEEIYPPEVGD", Carriers: 5, MutRate: 0},
			// Widely carried but position-degenerate: variable columns
			// every ~5 positions mean every exact 12-window is shared by
			// too few sequences for setting 1, while the mutation
			// tolerant setting 2 (Mut=4, Occur>=12, Len>=16) finds these
			// regions and their many active submotifs.
			{Pattern: "SLEYKLLPETLYLAISYVDRYPSK", Carriers: 20,
				VarPositions: []int{2, 7, 12, 17, 22}, VarChoices: 4},
			{Pattern: "TDNTYSQQEVVKMEADLLKTLAFE", Carriers: 18,
				VarPositions: []int{3, 8, 13, 18, 23}, VarChoices: 4},
			{Pattern: "KFRLLQETMYMTVSIIDRFMQNNC", Carriers: 16,
				VarPositions: []int{4, 9, 14, 19}, VarChoices: 4},
		},
	}
}

// Generate materializes the corpus.
func (cs CorpusSpec) Generate() []string {
	rng := rand.New(rand.NewSource(cs.Seed))
	seqs := make([][]byte, cs.Sequences)
	for i := range seqs {
		// Lengths vary ±10% around the average.
		l := cs.Length + rng.Intn(cs.Length/5+1) - cs.Length/10
		b := make([]byte, l)
		for j := range b {
			b[j] = Alphabet[rng.Intn(len(Alphabet))]
		}
		seqs[i] = b
	}
	// Track planted intervals so later motifs do not overwrite earlier
	// ones in sequences that carry several.
	occupied := make([][][2]int, cs.Sequences)
	overlaps := func(seq int, lo, hi int) bool {
		for _, iv := range occupied[seq] {
			if lo < iv[1] && iv[0] < hi {
				return true
			}
		}
		return false
	}
	for _, m := range cs.Motifs {
		carriers := rng.Perm(cs.Sequences)[:m.Carriers]
		for _, c := range carriers {
			copySeg := []byte(m.Pattern)
			choices := m.VarChoices
			if choices <= 0 {
				choices = 4
			}
			for _, vp := range m.VarPositions {
				if vp < len(copySeg) {
					base := int(m.Pattern[vp]-'A') % len(Alphabet)
					copySeg[vp] = Alphabet[(base+rng.Intn(choices))%len(Alphabet)]
				}
			}
			for j := range copySeg {
				if m.MutRate > 0 && rng.Float64() < m.MutRate {
					copySeg[j] = Alphabet[rng.Intn(len(Alphabet))]
				}
			}
			s := seqs[c]
			if len(s) <= len(copySeg) {
				continue
			}
			pos := -1
			for try := 0; try < 50; try++ {
				p := rng.Intn(len(s) - len(copySeg))
				if !overlaps(c, p, p+len(copySeg)) {
					pos = p
					break
				}
			}
			if pos < 0 {
				continue
			}
			occupied[c] = append(occupied[c], [2]int{pos, pos + len(copySeg)})
			copy(s[pos:], copySeg)
		}
	}
	out := make([]string, len(seqs))
	for i, b := range seqs {
		out[i] = string(b)
	}
	return out
}

// AverageLength reports the mean sequence length of a corpus.
func AverageLength(seqs []string) float64 {
	if len(seqs) == 0 {
		return 0
	}
	t := 0
	for _, s := range seqs {
		t += len(s)
	}
	return float64(t) / float64(len(seqs))
}

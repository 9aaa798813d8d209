package seq

// OccurrenceNo is occurrence_no^mut_S(P) for the motif *seg*: the
// number of sequences that contain seg within mut mutations, a mutation
// being an insertion, a deletion or a mismatch, all unit cost. The match
// is semi-global: the flanking VLDCs absorb any letters of a sequence.
// seg has at most 64 letters.
//
// It decides the edit DP whose row 0 is all zeros a column at a time with
// Myers' bit-vector algorithm (J. ACM 46(3), 1999): the column's vertical
// deltas are two masks held in registers, and a score follows row 64. A
// segment shorter than 64 is read there all the same: its rows past the
// segment match no letter, so a column's score lies between the least
// cost of seg ending at or before that column and its cost ending at it,
// and the score reaches mut exactly when some ending's cost has.
func OccurrenceNo(seg string, seqs []string, mut int) int {
	var peq [256]uint64
	for i := range len(seg) {
		peq[seg[i]] |= 1 << i
	}
	c := 0
	for _, s := range seqs {
		pv, mv, score := ^uint64(0), uint64(0), len(seg) // column 0 climbs by one a row
		for j := 0; j < len(s) && score > mut; j++ {
			var hp, hm uint64
			pv, mv, hp, hm = advance(pv, mv, peq[s[j]])
			score += int(hp) - int(hm)
		}
		if score <= mut {
			c++
		}
	}
	return c
}

// advance is Myers' step of a 64-row column by one text letter. pv and
// mv mark the rows whose cell is one more and one less than the cell
// above it, and eq the rows whose letter is the text's. Row 0 is all
// zeros, so no delta enters the first row. It returns the next column's
// pv and mv, and whether its last row's cell is one more (hp) or one
// less (hm) than its left neighbour.
func advance(pv, mv, eq uint64) (uint64, uint64, uint64, uint64) {
	xv := eq | mv
	xh := (eq&pv + pv) ^ pv | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	hp, hm := ph>>63, mh>>63
	ph, mh = ph<<1, mh<<1
	return mh | ^(xv | ph), ph & xv, hp, hm
}

package seq

import "strings"

// Motif is a VLDC pattern *S1*S2*...*Sk*: segments separated by
// variable length don't cares. In matching, each * substitutes for
// zero or more letters; segments may mutate (insert, delete,
// mismatch) within a total budget.
type Motif struct {
	Segments []string
}

// ParseMotif parses the "*SEG*SEG*" notation.
func ParseMotif(s string) Motif {
	var segs []string
	for _, part := range strings.Split(s, "*") {
		if part != "" {
			segs = append(segs, part)
		}
	}
	return Motif{Segments: segs}
}

// String renders the motif in VLDC notation.
func (m Motif) String() string {
	if len(m.Segments) == 0 {
		return "*"
	}
	return "*" + strings.Join(m.Segments, "*") + "*"
}

// Len is |P|: the number of non-VLDC letters.
func (m Motif) Len() int {
	n := 0
	for _, s := range m.Segments {
		n += len(s)
	}
	return n
}

// MatchesWithin reports whether the motif matches the sequence within
// at most mut mutations after an optimal substitution for the VLDCs.
// A mutation is an insertion, a deletion, or a mismatch, all unit
// cost. For each segment the match is semi-global (the flanking VLDCs
// absorb any letters of s), and segments must match in order at
// non-overlapping, left-to-right positions; the mutation budget is
// shared across segments.
func (m Motif) MatchesWithin(s string, mut int) bool {
	return m.OccurrenceNo([]string{s}, mut) == 1
}

// OccurrenceNo is occurrence_no^mut_S(P): the number of sequences in
// the set that contain the motif within mut mutations.
//
// It decides MatchesWithin's edit DP — segment k's row 0 at column j is
// the least cost of segments 1..k-1 ending at or before j — a column at
// a time with Myers' bit-vector algorithm (J. ACM 46(3), 1999): each
// 64-letter block of a segment keeps the column's vertical deltas as
// two masks, and the horizontal delta leaving one block's last row
// enters the next block's first. After a segment's last block the DP
// needs only its running minimum, whose step (0 or -1) enters the next
// segment in the same way; once the last one is within mut, s matches.
// A last block shorter than 64 is read at row 64 all the same: its rows
// past the segment match no letter, and each such row adds exactly one
// to the running minimum of the row above, so the steps are the same.
func (m Motif) OccurrenceNo(seqs []string, mut int) int {
	if l := m.Len(); l == 0 || l <= mut { // row 0 and column 0 already cost l
		return len(seqs)
	}
	var one [1]block // a segment of up to 64 letters takes no heap
	bs := one[:0]
	for _, seg := range m.Segments {
		for lo := 0; lo < len(seg); lo += 64 {
			var b block
			for i := lo; i < min(lo+64, len(seg)); i++ {
				b.peq[seg[i]] |= 1 << (i - lo)
			}
			if lo+64 >= len(seg) {
				b.seg = len(seg)
			}
			bs = append(bs, b)
		}
	}
	last, c := &bs[len(bs)-1], 0
	for _, s := range seqs {
		row0 := 0
		for i := range bs {
			bs[i].pv, bs[i].mv = ^uint64(0), 0 // column 0 climbs by one a row
			row0 += bs[i].seg
			bs[i].score, bs[i].run = row0, row0
		}
		for j := 0; j < len(s) && last.run > mut; j++ {
			var hp, hm uint64 // the first segment's row 0 is all zeros
			for i := range bs {
				b := &bs[i]
				b.pv, b.mv, hp, hm = advance(b.pv, b.mv, b.peq[s[j]], hp, hm)
				if b.seg > 0 {
					b.score += int(hp) - int(hm)
					hp, hm = 0, 0
					if b.score < b.run {
						b.run, hm = b.score, 1
					}
				}
			}
		}
		if last.run <= mut {
			c++
		}
	}
	return c
}

// block is 64 rows of one segment in OccurrenceNo, peq[c] marking the
// rows whose letter is c, pv and mv the column's vertical deltas. A
// segment's last block has seg set to its length, the cost of the
// segment ending at the current column (as row 64 reads it) in score,
// and the least cost ending at or before it in run.
type block struct {
	peq             [256]uint64
	pv, mv          uint64
	seg, score, run int
}

// advance is Myers' step of one block by one text letter. pv and mv
// mark the rows whose cell is one more and one less than the cell above
// it, eq the rows whose letter is the text's, and hp or hm is set when
// the cell above the first row is one more or one less than its left
// neighbour. It returns the next column's pv and mv, and hp and hm of
// its last row.
func advance(pv, mv, eq, hp, hm uint64) (uint64, uint64, uint64, uint64) {
	eq |= hm // a -1 from above opens the first row's diagonal
	xv := eq | mv
	xh := (eq&pv + pv) ^ pv | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	hpOut, hmOut := ph>>63, mh>>63
	ph, mh = ph<<1|hp, mh<<1|hm
	return mh | ^(xv | ph), ph & xv, hpOut, hmOut
}

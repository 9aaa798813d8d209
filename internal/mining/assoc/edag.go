package assoc

import (
	"fmt"
	"math/bits"

	"freepdm/internal/core"
)

// Problem maps frequent-itemset mining onto the chapter 3 E-dag
// framework (figure 3.2): patterns are itemsets; a child extends its
// parent with a larger item (unique parent = remove the largest item);
// immediate subpatterns are all (k-1)-subsets; goodness is support;
// good means support >= the minimum.
//
// NewProblem snapshots DB: mutating DB.Txns afterwards is unsupported,
// because Goodness counts from the snapshot, not from DB.Txns.
type Problem struct {
	DB         *DB
	MinSupport int
	txns       int      // len(DB.Txns), the root's support
	total      int      // summed length of DB.Txns, for Cost
	words      int      // ceil(txns/64), the length of one column
	cols       []uint64 // item i's column is cols[i*words : (i+1)*words]
}

// NewProblem binds the framework adapter to a database and builds its
// vertical index: one bitmap per item, bit t set when transaction t
// contains the item. Items outside [0, db.Items) are in no pattern and
// get no column.
func NewProblem(db *DB, minSupport int) *Problem {
	words := (len(db.Txns) + 63) / 64
	cols, total := make([]uint64, db.Items*words), 0
	for t, txn := range db.Txns {
		total += len(txn)
		for _, it := range txn {
			if uint(it) < uint(db.Items) {
				cols[it*words+t/64] |= 1 << uint(t%64)
			}
		}
	}
	return &Problem{DB: db, MinSupport: minSupport, txns: len(db.Txns), total: total, words: words, cols: cols}
}

type pattern struct{ s Itemset }

func (p pattern) Key() string { return p.s.Key() }
func (p pattern) Len() int    { return len(p.s) }

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return pattern{} }

// Decode implements core.Decoder. A key decodes only if it is the Key
// of an itemset over the database's items, so that no pattern has a
// second spelling that a string comparison of keys would miss.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	s, err := ParseItemset(key)
	if err != nil {
		return nil, err
	}
	if len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= pr.DB.Items) {
		return nil, fmt.Errorf("assoc: itemset key %q has an item outside [0, %d)", key, pr.DB.Items)
	}
	if s.Key() != key {
		return nil, fmt.Errorf("assoc: itemset key %q is not in canonical form %q", key, s.Key())
	}
	return pattern{s}, nil
}

// Children implements core.Problem.
func (pr *Problem) Children(p core.Pattern) []core.Pattern {
	s := p.(pattern).s
	start := 0
	if len(s) > 0 {
		start = s[len(s)-1] + 1
	}
	var out []core.Pattern
	for it := start; it < pr.DB.Items; it++ {
		child := append(append(Itemset(nil), s...), it)
		out = append(out, pattern{child})
	}
	return out
}

// Subpatterns implements core.Problem: all (k-1)-subsets.
func (pr *Problem) Subpatterns(p core.Pattern) []core.Pattern {
	s := p.(pattern).s
	if len(s) <= 1 {
		return []core.Pattern{pattern{}}
	}
	out := make([]core.Pattern, 0, len(s))
	for drop := range s {
		sub := make(Itemset, 0, len(s)-1)
		sub = append(sub, s[:drop]...)
		sub = append(sub, s[drop+1:]...)
		out = append(out, pattern{sub})
	}
	return out
}

// Goodness implements core.Problem: the support of the itemset, a
// popcount of the AND of its items' columns, equal to DB.Support.
func (pr *Problem) Goodness(p core.Pattern) float64 {
	s := p.(pattern).s
	if len(s) == 0 {
		return float64(pr.txns)
	}
	cols, words, c := pr.cols, pr.words, 0
	for w := 0; w < words; w++ {
		x := cols[s[0]*words+w]
		for _, it := range s[1:] {
			x &= cols[it*words+w]
		}
		c += bits.OnesCount64(x)
	}
	return float64(c)
}

// Good implements core.Problem.
func (pr *Problem) Good(p core.Pattern, goodness float64) bool {
	if p.Len() == 0 {
		return true
	}
	return int(goodness) >= pr.MinSupport
}

// Cost implements core.CostModel with the reference machine's support
// count of section 2.2.5, one scan of the database per pattern
// (DB.Support); Goodness's bitmap count is cheaper.
func (pr *Problem) Cost(p core.Pattern) float64 {
	return float64(pr.total) * float64(p.Len()+1) * 1e-7
}

// FrequentSets converts traversal results into FrequentSet form.
func FrequentSets(results []core.Result) []FrequentSet {
	var out []FrequentSet
	for _, r := range results {
		if r.Pattern.Len() == 0 {
			continue
		}
		s, _ := ParseItemset(r.Pattern.Key())
		out = append(out, FrequentSet{s, int(r.Goodness)})
	}
	return out
}

package assoc

import (
	"freepdm/internal/core"
)

// Problem maps frequent-itemset mining onto the chapter 3 E-dag
// framework (figure 3.2): patterns are itemsets; a child extends its
// parent with a larger item (unique parent = remove the largest item);
// immediate subpatterns are all (k-1)-subsets; goodness is support;
// good means support >= the minimum.
type Problem struct {
	DB         *DB
	MinSupport int
	total      int // summed length of DB.Txns, for Cost
}

// NewProblem binds the framework adapter to a database.
func NewProblem(db *DB, minSupport int) *Problem {
	pr := &Problem{DB: db, MinSupport: minSupport}
	for _, t := range db.Txns {
		pr.total += len(t)
	}
	return pr
}

type pattern struct{ s Itemset }

func (p pattern) Key() string { return p.s.Key() }
func (p pattern) Len() int    { return len(p.s) }

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return pattern{} }

// Decode implements core.Decoder.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	s, err := ParseItemset(key)
	if err != nil {
		return nil, err
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

// Goodness implements core.Problem: the support of the itemset.
func (pr *Problem) Goodness(p core.Pattern) float64 {
	s := p.(pattern).s
	if len(s) == 0 {
		return float64(len(pr.DB.Txns))
	}
	return float64(pr.DB.Support(s))
}

// Good implements core.Problem.
func (pr *Problem) Good(p core.Pattern, goodness float64) bool {
	if p.Len() == 0 {
		return true
	}
	return int(goodness) >= pr.MinSupport
}

// Cost implements core.CostModel: support counting scans the database
// once per pattern.
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

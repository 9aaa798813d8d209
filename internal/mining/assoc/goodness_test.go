package assoc

import (
	"math/rand"
	"testing"

	"freepdm/internal/core"
)

// scanChecked is a Problem whose Goodness holds the bitmap kernel to
// DB.Support, the per-candidate scan of section 2.2.5, on every pattern
// a traversal evaluates.
type scanChecked struct {
	*Problem
	t     *testing.T
	evals int
}

func (c *scanChecked) Goodness(p core.Pattern) float64 {
	c.t.Helper()
	c.evals++
	got := c.Problem.Goodness(p)
	s, err := ParseItemset(p.Key())
	if err != nil {
		c.t.Fatal(err)
	}
	if want := c.DB.Support(s); got != float64(want) {
		c.t.Fatalf("Goodness(%s) = %v, DB.Support = %d", p.Key(), got, want)
	}
	return got
}

// oracleDB is GenerateDB with one group spanning the item range, so the
// lattice has depth at every size, and every fourth transaction emptied.
func oracleDB(n, items int, seed int64) *DB {
	db := GenerateDB(n, items, [][]int{{0, items / 2, items - 1}, {items / 3}}, 0.3, seed)
	for t := range db.Txns {
		if t%4 == 3 {
			db.Txns[t] = nil
		}
	}
	return db
}

// itemsetPattern is the pattern of s, as Decode would return it.
func itemsetPattern(s Itemset) core.Pattern {
	return &pattern{key: s.Key(), n: len(s)}
}

func randomItemset(rng *rand.Rand, items int) Itemset {
	var s Itemset
	for it := 0; it < items; it++ {
		if rng.Intn(items) < 3 {
			s = append(s, it)
		}
	}
	return s
}

// TestGoodnessMatchesScan holds Problem.Goodness to DB.Support on every
// pattern SolveSequential evaluates, on random itemsets and on the root,
// at transaction counts that end a column on each side of a word
// boundary and at 1 to 130 items.
func TestGoodnessMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, items := range []int{1, 2, 7, 24, 63, 64, 65, 130} {
			db := oracleDB(n, items, int64(n*131+items))
			pr := NewProblem(db, max(1, n/8))
			if got := pr.Goodness(pr.Root()); got != float64(n) {
				t.Fatalf("n=%d items=%d: root goodness %v", n, items, got)
			}
			checked := &scanChecked{Problem: pr, t: t}
			core.SolveSequential(checked)
			if checked.evals < items {
				t.Fatalf("n=%d items=%d: %d evaluations, fewer than the items", n, items, checked.evals)
			}
			for i := 0; i < 50; i++ {
				checked.Goodness(itemsetPattern(randomItemset(rng, items)))
			}
		}
	}
}

// FuzzGoodnessMatchesScan is TestGoodnessMatchesScan's property on
// arbitrary databases: txns is split into transactions at 0xff bytes,
// each other byte naming item b % items, and query is the itemset to
// count; every single item is counted too.
func FuzzGoodnessMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 1, 2, 0xff, 0xff, 2}, []byte{1, 2}, uint8(3))
	f.Add(make([]byte, 64), []byte{0}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{}, uint8(129))
	f.Fuzz(func(t *testing.T, txns, query []byte, itemsRaw uint8) {
		items := int(itemsRaw)%130 + 1
		set := func(bs []byte) Itemset {
			in := make([]bool, items)
			for _, b := range bs {
				in[int(b)%items] = true
			}
			var s Itemset
			for it, ok := range in {
				if ok {
					s = append(s, it)
				}
			}
			return s
		}
		db := &DB{Items: items}
		start := 0
		for i, b := range txns {
			if b == 0xff {
				db.Txns = append(db.Txns, set(txns[start:i]))
				start = i + 1
			}
		}
		db.Txns = append(db.Txns, set(txns[start:]))
		checked := &scanChecked{Problem: NewProblem(db, 1), t: t}
		checked.Goodness(itemsetPattern(set(query)))
		for it := 0; it < items; it++ {
			checked.Goodness(itemsetPattern(Itemset{it}))
		}
	})
}

package assoc

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

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

// pattern is an itemset held as its key, e.g. "{1,3,4}", and its size:
// the key is the pattern, so Key is free and Goodness reads the item ids
// off it. Children and Subpatterns cut every key they return from one
// string and hand out pointers into one slab of patterns, so their
// allocations do not grow with the number of patterns they return.
type pattern struct {
	key string
	n   int
}

func (p *pattern) Key() string { return p.key }
func (p *pattern) Len() int    { return p.n }

// root is the empty itemset, the one root of every Problem.
var root = &pattern{key: "{}"}

// items appends the item ids of p to dst.
func (p *pattern) items(dst []int) []int {
	if p.n == 0 {
		return dst
	}
	v := 0
	for i := 1; i < len(p.key); i++ {
		if c := p.key[i]; c == ',' || c == '}' {
			dst = append(dst, v)
			v = 0
		} else {
			v = v*10 + int(c-'0')
		}
	}
	return dst
}

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return root }

// Decode implements core.Decoder. A key decodes only if it is the Key
// of an itemset over the database's items: "{", then strictly ascending
// decimal ids in [0, DB.Items) without sign or leading zero, separated
// by ",", then "}". So no pattern has a second spelling that a string
// comparison of keys would miss. One pass over the key checks it.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	if key == root.key {
		return root, nil
	}
	if len(key) < 3 || key[0] != '{' || key[len(key)-1] != '}' {
		return nil, malformed(key)
	}
	n, prev, v, digits := 0, -1, 0, 0
	for i := 1; i < len(key); i++ {
		c := key[i]
		if c == ',' || i == len(key)-1 {
			if digits == 0 || v <= prev {
				return nil, malformed(key)
			}
			n, prev, v, digits = n+1, v, 0, 0
			continue
		}
		if c < '0' || c > '9' || digits > 0 && v == 0 {
			return nil, malformed(key)
		}
		v, digits = v*10+int(c-'0'), digits+1
		if v >= pr.DB.Items {
			return nil, fmt.Errorf("assoc: itemset key %q has an item outside [0, %d)", key, pr.DB.Items)
		}
	}
	return &pattern{key: key, n: n}, nil
}

func malformed(key string) error {
	return fmt.Errorf("assoc: %q is not the key of an itemset", key)
}

// Children implements core.Problem: the parent's key with one larger
// item before its "}".
func (pr *Problem) Children(pat core.Pattern) []core.Pattern {
	p := pat.(*pattern)
	first, sep := 0, ""
	if p.n > 0 {
		var buf [64]int
		s := p.items(buf[:0])
		first, sep = s[len(s)-1]+1, ","
	}
	prefix := p.key[:len(p.key)-1]
	count := pr.DB.Items - first
	if count <= 0 {
		return nil
	}
	var num [20]byte
	var b strings.Builder
	b.Grow(count * (len(prefix) + len(sep) + len(strconv.AppendInt(num[:0], int64(pr.DB.Items), 10)) + 1))
	slab := make([]pattern, count)
	out := make([]core.Pattern, count)
	for i := range slab {
		// b never rewrites what it holds, so a string cut from b.String()
		// stays valid as b grows.
		from := b.Len()
		b.WriteString(prefix)
		b.WriteString(sep)
		b.Write(strconv.AppendInt(num[:0], int64(first+i), 10))
		b.WriteByte('}')
		slab[i] = pattern{key: b.String()[from:], n: p.n + 1}
		out[i] = &slab[i]
	}
	return out
}

// Subpatterns implements core.Problem: all (k-1)-subsets, the i-th
// without the parent's i-th item. Dropping an item cuts its digits and
// one separator out of the parent's key.
func (pr *Problem) Subpatterns(pat core.Pattern) []core.Pattern {
	p := pat.(*pattern)
	if p.n <= 1 {
		return []core.Pattern{root}
	}
	k := p.key
	var b strings.Builder
	b.Grow((p.n-1)*len(k) + 1)
	slab := make([]pattern, p.n)
	out := make([]core.Pattern, p.n)
	at := 1 // where the dropped item's digits start
	for i := range slab {
		end := at + strings.IndexAny(k[at:], ",}")
		from := b.Len()
		if i < p.n-1 {
			b.WriteString(k[:at])
			b.WriteString(k[end+1:])
		} else {
			b.WriteString(k[:at-1])
			b.WriteByte('}')
		}
		slab[i] = pattern{key: b.String()[from:], n: p.n - 1}
		out[i] = &slab[i]
		at = end + 1
	}
	return out
}

// Goodness implements core.Problem: the support of the itemset, a
// popcount of the AND of its items' columns, equal to DB.Support.
func (pr *Problem) Goodness(pat core.Pattern) float64 {
	p := pat.(*pattern)
	if p.n == 0 {
		return float64(pr.txns)
	}
	var buf [64]int
	s := p.items(buf[:0])
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

// Package assoc implements association rule mining as surveyed and
// used in "Free Parallel Data Mining": the Apriori algorithm with
// apriori-gen candidate generation (section 2.2.5), rule construction
// (phase II, section 2.2.4) with the confidence-inference pruning of
// property 4, an E-dag adapter mapping frequent-itemset mining onto the
// chapter 3 framework (figure 3.2), and PEAR's prefix-tree counting
// (section 2.2.6).
package assoc

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Itemset is a sorted set of item ids.
type Itemset []int

// Key is the canonical string form, e.g. "{1,3,4}".
func (s Itemset) Key() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = strconv.Itoa(it)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ParseItemset parses the Key form.
func ParseItemset(key string) (Itemset, error) {
	key = strings.Trim(key, "{}")
	if key == "" {
		return nil, nil
	}
	var out Itemset
	for _, f := range strings.Split(key, ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("assoc: bad itemset key: %w", err)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("assoc: itemset key not strictly ascending: %q", key)
		}
		out = append(out, v)
	}
	return out, nil
}

// Contains reports whether s contains item v (s sorted).
func (s Itemset) Contains(v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// SubsetOf reports whether every item of s is in t (both sorted).
func (s Itemset) SubsetOf(t Itemset) bool {
	i := 0
	for _, v := range s {
		for i < len(t) && t[i] < v {
			i++
		}
		if i == len(t) || t[i] != v {
			return false
		}
	}
	return true
}

// Union merges two sorted itemsets.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s \ t.
func (s Itemset) Minus(t Itemset) Itemset {
	var out Itemset
	for _, v := range s {
		if !t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// DB is a transaction database: each transaction a sorted itemset.
type DB struct {
	Txns  []Itemset
	Items int // item universe size
}

// Support counts the transactions containing all items of s.
func (db *DB) Support(s Itemset) int {
	c := 0
	for _, t := range db.Txns {
		if s.SubsetOf(t) {
			c++
		}
	}
	return c
}

// FrequentSet is an itemset with its global support.
type FrequentSet struct {
	Items   Itemset
	Support int
}

// AprioriGen generates candidate (k+1)-itemsets from frequent
// k-itemsets: join pairs sharing their k-1 smallest items, then prune
// candidates with an infrequent k-subset (section 2.2.5).
func AprioriGen(frequent []Itemset) []Itemset {
	freq := map[string]bool{}
	for _, f := range frequent {
		freq[f.Key()] = true
	}
	var out []Itemset
	seen := map[string]bool{}
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			k := len(a)
			if k == 0 || len(b) != k {
				continue
			}
			share := true
			for x := 0; x < k-1; x++ {
				if a[x] != b[x] {
					share = false
					break
				}
			}
			if !share || a[k-1] == b[k-1] {
				continue
			}
			cand := a.Union(b)
			if seen[cand.Key()] {
				continue
			}
			seen[cand.Key()] = true
			// Prune: every k-subset must be frequent.
			ok := true
			for drop := range cand {
				sub := make(Itemset, 0, k)
				sub = append(sub, cand[:drop]...)
				sub = append(sub, cand[drop+1:]...)
				if !freq[sub.Key()] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Apriori finds all frequent itemsets with support >= minSupport
// (an absolute transaction count).
func Apriori(db *DB, minSupport int) []FrequentSet {
	var results []FrequentSet
	// Level 1 candidates: every item.
	var level []Itemset
	for it := 0; it < db.Items; it++ {
		level = append(level, Itemset{it})
	}
	for len(level) > 0 {
		var frequent []Itemset
		for _, c := range level {
			if supp := db.Support(c); supp >= minSupport {
				frequent = append(frequent, c)
				results = append(results, FrequentSet{c, supp})
			}
		}
		level = AprioriGen(frequent)
	}
	sort.Slice(results, func(i, j int) bool {
		if len(results[i].Items) != len(results[j].Items) {
			return len(results[i].Items) < len(results[j].Items)
		}
		return results[i].Items.Key() < results[j].Items.Key()
	})
	return results
}

// Rule is an association rule X -> Y with support and confidence.
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	Support    int
	Confidence float64
}

// String renders "X -> Y (supp, conf)".
func (r Rule) String() string {
	return fmt.Sprintf("%s -> %s (supp=%d, conf=%.2f)",
		r.Antecedent.Key(), r.Consequent.Key(), r.Support, r.Confidence)
}

// Rules runs phase II (section 2.2.4): for every frequent itemset X
// and every antecedent subset Y, emit Y -> X-Y when its confidence
// reaches minConf. Property 4 prunes: once Y -> (X-Y) fails, no
// subset of Y need be considered.
func Rules(frequent []FrequentSet, minConf float64) []Rule {
	supp := map[string]int{}
	for _, f := range frequent {
		supp[f.Items.Key()] = f.Support
	}
	var out []Rule
	for _, f := range frequent {
		if len(f.Items) < 2 {
			continue
		}
		// BFS from the largest antecedents downward, pruning subsets of
		// failed antecedents (property 4).
		level := [][]int{f.Items} // antecedent candidates of current size
		seen := map[string]bool{}
		var next [][]int
		for size := len(f.Items) - 1; size >= 1; size-- {
			next = next[:0]
			for _, parent := range level {
				for drop := range parent {
					ant := make(Itemset, 0, size)
					ant = append(ant, parent[:drop]...)
					ant = append(ant, parent[drop+1:]...)
					k := Itemset(ant).Key()
					if seen[k] {
						continue
					}
					seen[k] = true
					conf := float64(f.Support) / float64(supp[k])
					if conf >= minConf {
						out = append(out, Rule{
							Antecedent: ant,
							Consequent: f.Items.Minus(ant),
							Support:    f.Support,
							Confidence: conf,
						})
						next = append(next, ant)
					}
					// Failed antecedents are not expanded: property 4.
				}
			}
			level = append([][]int(nil), next...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Antecedent.Key() < out[j].Antecedent.Key()
	})
	return out
}

// GenerateDB creates a synthetic market-basket database with planted
// co-occurring item groups, in the spirit of the K-mart example of
// section 2.2.1. Group items lie in [0, items). Every transaction is cut
// from one backing array, presized to the expected total length.
func GenerateDB(txns, items int, groups [][]int, groupProb float64, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	// An item is in a transaction with at most the summed probability of
	// the draws that can put it there.
	expect := 0.05 * float64(items)
	for _, g := range groups {
		expect += groupProb * float64(len(g))
	}
	all := make(Itemset, 0, int(expect*float64(txns))+items)
	db := &DB{Items: items, Txns: make([]Itemset, txns)}
	in := make([]bool, items)
	for t := range db.Txns {
		// Background noise: each item independently with low probability.
		for it := 0; it < items; it++ {
			if rng.Float64() < 0.05 {
				in[it] = true
			}
		}
		for _, g := range groups {
			if rng.Float64() < groupProb {
				for _, it := range g {
					in[it] = true
				}
			}
		}
		from := len(all)
		for it, ok := range in {
			if ok {
				all = append(all, it)
				in[it] = false
			}
		}
		// At full capacity, so that appending to one transaction cannot
		// overwrite the next. An empty one stays nil.
		if to := len(all); to > from {
			db.Txns[t] = all[from:to:to]
		}
	}
	return db
}

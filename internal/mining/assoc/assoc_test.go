package assoc

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"freepdm/internal/core"
)

// kmartDB is the imaginary sales database of table 2.2:
// items: 0 pamper, 1 soap, 2 lipstick, 3 soda, 4 candy, 5 beer.
func kmartDB() *DB {
	return &DB{
		Items: 6,
		Txns: []Itemset{
			{0, 1, 2},
			{0, 2, 3, 4},
			{3, 5},
			{0, 4, 5},
		},
	}
}

func TestSupportCounting(t *testing.T) {
	db := kmartDB()
	if s := db.Support(Itemset{0}); s != 3 {
		t.Fatalf("supp(pamper)=%d want 3", s)
	}
	if s := db.Support(Itemset{0, 2}); s != 2 {
		t.Fatalf("supp(pamper,lipstick)=%d want 2", s)
	}
	if s := db.Support(Itemset{}); s != 4 {
		t.Fatalf("supp({})=%d want 4", s)
	}
}

func TestAprioriKmartExample(t *testing.T) {
	db := kmartDB()
	freq := Apriori(db, 2)
	keys := map[string]int{}
	for _, f := range freq {
		keys[f.Items.Key()] = f.Support
	}
	// pamper 3, lipstick 2, soda 2, candy 2, beer 2, {pamper,lipstick} 2,
	// {pamper, candy} 2.
	want := map[string]int{
		"{0}": 3, "{2}": 2, "{3}": 2, "{4}": 2, "{5}": 2, "{0,2}": 2, "{0,4}": 2,
	}
	if len(keys) != len(want) {
		t.Fatalf("got %v want %v", keys, want)
	}
	for k, s := range want {
		if keys[k] != s {
			t.Fatalf("supp(%s)=%d want %d", k, keys[k], s)
		}
	}
}

func TestRulesKmartExample(t *testing.T) {
	db := kmartDB()
	freq := Apriori(db, 2)
	rules := Rules(freq, 0.6)
	// The section 2.2.1 rule: pamper -> lipstick with conf 2/3.
	found := false
	for _, r := range rules {
		if r.Antecedent.Key() == "{0}" && r.Consequent.Key() == "{2}" {
			found = true
			if r.Confidence < 0.66 || r.Confidence > 0.67 {
				t.Fatalf("conf %.3f", r.Confidence)
			}
		}
	}
	if !found {
		t.Fatalf("pamper->lipstick not found in %v", rules)
	}
}

func TestAprioriGenJoinAndPrune(t *testing.T) {
	freq := []Itemset{{1, 2}, {1, 3}, {2, 3}, {2, 4}}
	cands := AprioriGen(freq)
	// {1,2}+{1,3} -> {1,2,3}: all 2-subsets frequent -> kept.
	// {2,3}+{2,4} -> {2,3,4}: {3,4} missing -> pruned.
	if len(cands) != 1 || cands[0].Key() != "{1,2,3}" {
		t.Fatalf("candidates %v", cands)
	}
}

func naiveFrequent(db *DB, minSupport int) map[string]int {
	out := map[string]int{}
	n := db.Items
	for mask := 1; mask < 1<<n; mask++ {
		var s Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, i)
			}
		}
		if supp := db.Support(s); supp >= minSupport {
			out[s.Key()] = supp
		}
	}
	return out
}

// Property: Apriori and the E-dag traversal both find exactly the
// brute-force frequent sets.
func TestPropertyAllMinersAgree(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := GenerateDB(60, 7, [][]int{{0, 1, 2}, {3, 4}}, 0.4, seed)
		minSupport := int(minRaw%10) + 3
		want := naiveFrequent(db, minSupport)

		check := func(fs []FrequentSet) bool {
			if len(fs) != len(want) {
				return false
			}
			for _, f := range fs {
				if want[f.Items.Key()] != f.Support {
					return false
				}
			}
			return true
		}
		if !check(Apriori(db, minSupport)) {
			return false
		}
		res, _ := core.SolveSequential(NewProblem(db, minSupport))
		return check(FrequentSets(res))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEdagAdapterShape(t *testing.T) {
	db := kmartDB()
	pr := NewProblem(db, 2)
	// Children of {} are the 6 single items (figure 3.2's first level).
	if kids := pr.Children(pr.Root()); len(kids) != 6 {
		t.Fatalf("%d top-level patterns", len(kids))
	}
	p, _ := pr.Decode("{1,3}")
	subs := pr.Subpatterns(p)
	if len(subs) != 2 || subs[0].Key() != "{3}" || subs[1].Key() != "{1}" {
		t.Fatalf("subpatterns %v", subs)
	}
	// Children of {1,3} only extend with larger items.
	kids := pr.Children(p)
	for _, k := range kids {
		s, _ := ParseItemset(k.Key())
		if s[len(s)-1] <= 3 {
			t.Fatalf("child %v does not extend upward", k.Key())
		}
	}
}

func TestItemsetOps(t *testing.T) {
	a := Itemset{1, 3, 5}
	b := Itemset{2, 3}
	if got := a.Union(b).Key(); got != "{1,2,3,5}" {
		t.Fatalf("union %s", got)
	}
	if got := a.Minus(b).Key(); got != "{1,5}" {
		t.Fatalf("minus %s", got)
	}
	if !b.SubsetOf(Itemset{1, 2, 3, 4}) || a.SubsetOf(b) {
		t.Fatal("subset checks")
	}
	if !a.Contains(3) || a.Contains(2) {
		t.Fatal("contains")
	}
}

func TestParseItemset(t *testing.T) {
	s, err := ParseItemset("{1,2,10}")
	if err != nil || s.Key() != "{1,2,10}" {
		t.Fatalf("%v %v", s, err)
	}
	if _, err := ParseItemset("{2,1}"); err == nil {
		t.Fatal("unsorted accepted")
	}
	if _, err := ParseItemset("{1,1}"); err == nil {
		t.Fatal("repeated item accepted")
	}
	if _, err := ParseItemset("{a}"); err == nil {
		t.Fatal("garbage accepted")
	}
	if s, err := ParseItemset("{}"); err != nil || len(s) != 0 {
		t.Fatal("empty set")
	}
}

// TestDecodeAcceptsExactlyTheKeys holds Decode to its definition: a key
// is valid when it is the Key of an itemset over the database's items,
// so every pattern has exactly one spelling. The key "{}" is the root's.
func TestDecodeAcceptsExactlyTheKeys(t *testing.T) {
	pr := NewProblem(GenerateDB(50, 24, [][]int{{0, 1}}, 0.5, 3), 5)
	for _, c := range []struct {
		key   string
		valid bool
	}{
		{"{}", true}, {"{0}", true}, {"{23}", true}, {"{1,2,10}", true}, {"{0,5,23}", true},
		{"{1,1}", false}, {"{01}", false}, {"1,2", false}, {"{{1}}", false}, {"{-1}", false},
		{"{99}", false}, {"{24}", false}, {"{1, 2}", false}, {"{+1}", false}, {"{2,1}", false},
		{"{1,}", false}, {"{,1}", false}, {"", false}, {"{", false}, {"}", false}, {"{}}", false},
		{"{a}", false}, {" {1}", false},
	} {
		p, err := pr.Decode(c.key)
		if (err == nil) != c.valid {
			t.Errorf("Decode(%q): err %v, want valid %v", c.key, err, c.valid)
		} else if c.valid && p.Key() != c.key {
			t.Errorf("Decode(%q).Key() = %q", c.key, p.Key())
		}
	}
	if root, err := pr.Decode("{}"); err != nil || root.Key() != pr.Root().Key() || root.Len() != 0 {
		t.Fatalf("Decode(\"{}\") = %v, %v; want the root", root, err)
	}
}

// decodeOracle is the decoder Decode's one pass replaced: parse the key,
// check its items' range, and want the canonical key back.
func decodeOracle(key string, items int) (Itemset, bool) {
	s, err := ParseItemset(key)
	if err != nil {
		return nil, false
	}
	if len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= items) {
		return nil, false
	}
	return s, s.Key() == key
}

// FuzzDecode holds Decode to decodeOracle on arbitrary keys and item
// universes: it accepts exactly the keys the oracle accepts, and a
// decoded pattern has the key it came from, the oracle's size, and the
// oracle's items where Goodness reads them.
func FuzzDecode(f *testing.F) {
	for _, key := range []string{"{}", "{0}", "{23}", "{1,2,10}", "{01}", "{1,1}", "{2,1}", "{-1}",
		"{+1}", "{24}", "{1,}", "{,1}", "{1, 2}", "", "{", "}", "{}}", "{{}", "{99999999999999999999}"} {
		f.Add(key, uint8(24))
	}
	f.Add("{0}", uint8(0))
	f.Fuzz(func(t *testing.T, key string, items uint8) {
		pr := NewProblem(&DB{Items: int(items)}, 1)
		want, ok := decodeOracle(key, int(items))
		p, err := pr.Decode(key)
		if (err == nil) != ok {
			t.Fatalf("Decode(%q) over %d items: err %v, oracle accepts: %v", key, items, err, ok)
		}
		if !ok {
			return
		}
		if got := p.(*pattern).items(nil); p.Key() != key || p.Len() != len(want) || len(want) > 0 && !slices.Equal(got, want) {
			t.Fatalf("Decode(%q) = key %q, Len %d, items %v; want %v", key, p.Key(), p.Len(), got, want)
		}
	})
}

// keyChecked is a Problem that holds every pattern Children and
// Subpatterns return to the key Itemset.Key builds for the same item
// set, and to Decode's round trip.
type keyChecked struct {
	*Problem
	t     *testing.T
	calls int
}

func (c *keyChecked) check(call string, p core.Pattern, got []core.Pattern, want []Itemset) {
	c.t.Helper()
	c.calls++
	if len(got) != len(want) {
		c.t.Fatalf("%s(%s): %d patterns, want %d", call, p.Key(), len(got), len(want))
	}
	for i, q := range got {
		if q.Key() != want[i].Key() || q.Len() != len(want[i]) {
			c.t.Fatalf("%s(%s)[%d] = %q of length %d, want %q", call, p.Key(), i, q.Key(), q.Len(), want[i].Key())
		}
		if d, err := c.Decode(q.Key()); err != nil || d.Key() != q.Key() || d.Len() != q.Len() {
			c.t.Fatalf("Decode(%q) = %v, %v", q.Key(), d, err)
		}
	}
}

func (c *keyChecked) Children(p core.Pattern) []core.Pattern {
	s, _ := ParseItemset(p.Key())
	var want []Itemset
	for it := 0; it < c.DB.Items; it++ {
		if len(s) == 0 || it > s[len(s)-1] {
			want = append(want, append(slices.Clone(s), it))
		}
	}
	got := c.Problem.Children(p)
	c.check("Children", p, got, want)
	return got
}

func (c *keyChecked) Subpatterns(p core.Pattern) []core.Pattern {
	s, _ := ParseItemset(p.Key())
	want := []Itemset{{}}
	if len(s) > 1 {
		want = want[:0]
		for drop := range s {
			want = append(want, slices.Delete(slices.Clone(s), drop, drop+1))
		}
	}
	got := c.Problem.Subpatterns(p)
	c.check("Subpatterns", p, got, want)
	return got
}

// supports maps each frequent set's key to its support.
func supports(fs []FrequentSet) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Items.Key()] = f.Support
	}
	return out
}

// TestPatternKeysMatchItemsetKeys runs both sequential traversals on the
// benchmark's apriori input at two seeds, checking the key of every
// child and subpattern they are handed, and wants the frequent sets
// Apriori finds.
func TestPatternKeysMatchItemsetKeys(t *testing.T) {
	groups := [][]int{{0, 2, 4}, {5, 6, 7, 8}, {10, 11, 12}, {3, 9, 13, 14}}
	for _, seed := range []int64{42, 7} {
		db := GenerateDB(20000, 24, groups, 0.3, seed)
		want := Apriori(db, 1200)
		for name, solve := range map[string]func(core.Problem) ([]core.Result, core.Stats){
			"SolveSequential": core.SolveSequential, "SolveETTSequential": core.SolveETTSequential,
		} {
			c := &keyChecked{Problem: NewProblem(db, 1200), t: t}
			res, _ := solve(c)
			if got := supports(FrequentSets(res)); !maps.Equal(got, supports(want)) {
				t.Fatalf("seed %d, %s: frequent sets %v, Apriori finds %v", seed, name, got, supports(want))
			}
			if c.calls < len(want) {
				t.Fatalf("seed %d, %s: %d checked calls for %d frequent sets", seed, name, c.calls, len(want))
			}
		}
	}
}

func TestRuleConfidencePruning(t *testing.T) {
	// All rules from frequent sets must satisfy minConf, and every
	// rule's support equals the full set's support.
	db := GenerateDB(100, 6, [][]int{{0, 1}, {2, 3}}, 0.5, 9)
	freq := Apriori(db, 10)
	rules := Rules(freq, 0.7)
	for _, r := range rules {
		if r.Confidence < 0.7 {
			t.Fatalf("rule below minconf: %v", r)
		}
		full := r.Antecedent.Union(r.Consequent)
		if db.Support(full) != r.Support {
			t.Fatalf("support mismatch for %v", r)
		}
		got := float64(r.Support) / float64(db.Support(r.Antecedent))
		if got != r.Confidence {
			t.Fatalf("confidence mismatch for %v", r)
		}
	}
}

func TestGenerateDBPlantsGroups(t *testing.T) {
	db := GenerateDB(500, 10, [][]int{{0, 1, 2}}, 0.6, 4)
	group := db.Support(Itemset{0, 1, 2})
	if group < 200 {
		t.Fatalf("planted group support %d too low", group)
	}
	// Sorted transactions.
	for _, txn := range db.Txns {
		if !sort.IntsAreSorted(txn) {
			t.Fatalf("unsorted transaction %v", txn)
		}
	}
}

// TestGenerateDBPinned pins GenerateDB's output, the SHA-256 of its
// transactions' keys in order, at the benchmark's apriori shape for two
// seeds and at the a.prefixtree ablation's: a change to the generator
// must leave every database it builds as it was.
func TestGenerateDBPinned(t *testing.T) {
	bench := [][]int{{0, 2, 4}, {5, 6, 7, 8}, {10, 11, 12}, {3, 9, 13, 14}}
	ablation := [][]int{{0, 1, 2}, {5, 6}, {10, 11, 12}, {15, 16, 17, 18}}
	for _, c := range []struct {
		txns   int
		groups [][]int
		seed   int64
		want   string
	}{
		{20000, bench, 42, "bc0e0e146c69522f9502d35432df24a624ce1885df4f241ff976af8968db8774"},
		{20000, bench, 7, "a60df3784eb061208d256478eae0466604bb2496d1e51fe5278e850b2a432883"},
		{4000, ablation, 7, "23c1334bc06e6b51a0c3af14307b54f48c78af8d52a095681dfc97206e4cf53d"},
	} {
		h := sha256.New()
		for _, txn := range GenerateDB(c.txns, 24, c.groups, 0.3, c.seed).Txns {
			h.Write([]byte(txn.Key()))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("GenerateDB(%d, 24, %v, 0.3, %d) hashes to %s, want %s", c.txns, c.groups, c.seed, got, c.want)
		}
	}
}

func BenchmarkAprioriSynthetic(b *testing.B) {
	db := GenerateDB(1000, 20, [][]int{{0, 1, 2}, {5, 6}, {10, 11, 12}}, 0.3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Apriori(db, 100)
	}
}

// Property: the PEAR prefix-tree miner finds exactly Apriori's
// frequent sets with identical supports.
func TestPropertyPrefixTreeMatchesApriori(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := GenerateDB(80, 8, [][]int{{0, 1, 2}, {4, 5}, {2, 6, 7}}, 0.35, seed)
		minSupport := int(minRaw%12) + 4
		want := Apriori(db, minSupport)
		got := AprioriPrefixTree(db, minSupport)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Items.Key() != want[i].Items.Key() || got[i].Support != want[i].Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixTreeDeadBranches(t *testing.T) {
	// An item that never appears becomes a dead level-1 branch and the
	// tree never extends under it.
	db := &DB{Items: 4, Txns: []Itemset{{0, 1}, {0, 1}, {0, 1}}}
	tr := NewPrefixTree(db.Items)
	for _, txn := range db.Txns {
		tr.count(txn)
	}
	newly := tr.harvest(2)
	if len(newly) != 2 {
		t.Fatalf("level 1 frequent: %v", newly)
	}
	if tr.root.children[3].state != ptDead {
		t.Fatal("absent item not marked dead")
	}
	frequent := map[string]bool{}
	for _, f := range newly {
		frequent[f.Items.Key()] = true
	}
	if added := tr.extend(frequent); added != 1 {
		t.Fatalf("extended %d candidates, want just {0,1}", added)
	}
}

func BenchmarkAprioriPrefixTree(b *testing.B) {
	db := GenerateDB(1000, 20, [][]int{{0, 1, 2}, {5, 6}, {10, 11, 12}}, 0.3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AprioriPrefixTree(db, 100)
	}
}

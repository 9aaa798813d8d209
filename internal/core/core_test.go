package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"freepdm/internal/now"
	"freepdm/internal/plinda"
)

// toyProblem is a miniature frequent-itemset application over the item
// universe {0..n-1} with a synthetic transaction database, exactly the
// shape of figure 3.2's E-dag. Patterns are sorted itemsets; a child
// extends its parent with a larger item (unique parent = prefix).
type toyProblem struct {
	n       int
	txns    [][]bool // txns[t][i] = transaction t contains item i
	minSupp float64
}

func newToyProblem(n, txnCount int, minSupp float64, seed uint64) *toyProblem {
	p := &toyProblem{n: n, minSupp: minSupp}
	s := seed
	rnd := func() uint64 { s ^= s << 13; s ^= s >> 7; s ^= s << 17; return s }
	for t := 0; t < txnCount; t++ {
		row := make([]bool, n)
		for i := range row {
			// Lower-numbered items are more frequent.
			row[i] = rnd()%uint64(i+2) == 0
		}
		p.txns = append(p.txns, row)
	}
	return p
}

type itemset struct{ items []int }

func (s itemset) Key() string {
	parts := make([]string, len(s.items))
	for i, it := range s.items {
		parts[i] = fmt.Sprint(it)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
func (s itemset) Len() int { return len(s.items) }

func (p *toyProblem) Root() Pattern { return itemset{} }

func (p *toyProblem) Children(pat Pattern) []Pattern {
	s := pat.(itemset)
	start := 0
	if len(s.items) > 0 {
		start = s.items[len(s.items)-1] + 1
	}
	var out []Pattern
	for i := start; i < p.n; i++ {
		child := append(append([]int(nil), s.items...), i)
		out = append(out, itemset{child})
	}
	return out
}

func (p *toyProblem) Subpatterns(pat Pattern) []Pattern {
	s := pat.(itemset)
	if len(s.items) <= 1 {
		return []Pattern{itemset{}}
	}
	var out []Pattern
	for drop := range s.items {
		sub := make([]int, 0, len(s.items)-1)
		sub = append(sub, s.items[:drop]...)
		sub = append(sub, s.items[drop+1:]...)
		out = append(out, itemset{sub})
	}
	return out
}

func (p *toyProblem) Goodness(pat Pattern) float64 {
	s := pat.(itemset)
	count := 0
	for _, row := range p.txns {
		all := true
		for _, it := range s.items {
			if !row[it] {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return float64(count)
}

func (p *toyProblem) Good(pat Pattern, g float64) bool {
	return g >= p.minSupp*float64(len(p.txns))
}

func (p *toyProblem) Decode(key string) (Pattern, error) {
	key = strings.Trim(key, "{}")
	if key == "" {
		return itemset{}, nil
	}
	var items []int
	for _, f := range strings.Split(key, ",") {
		var v int
		if _, err := fmt.Sscan(f, &v); err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	return itemset{items}, nil
}

func (p *toyProblem) Cost(pat Pattern) float64 {
	return float64(len(p.txns)) * float64(pat.Len()+1) * 1e-4
}

func resultKeys(rs []Result) []string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = r.Pattern.Key()
	}
	return keys
}

// eachResultOnce fails the test for every key the results carry twice.
func eachResultOnce(t *testing.T, rs []Result) {
	t.Helper()
	seen := map[string]bool{}
	for _, k := range resultKeys(rs) {
		if seen[k] {
			t.Errorf("result %s reported twice", k)
		}
		seen[k] = true
	}
}

func sameResults(t *testing.T, a, b []Result, la, lb string) {
	t.Helper()
	ka, kb := resultKeys(a), resultKeys(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s found %d patterns, %s found %d:\n%v\nvs\n%v", la, len(ka), lb, len(kb), ka, kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("mismatch at %d: %s=%s %s=%s", i, la, ka[i], lb, kb[i])
		}
		if math.Abs(a[i].Goodness-b[i].Goodness) > 1e-12 {
			t.Fatalf("goodness mismatch for %s", ka[i])
		}
	}
}

func TestSequentialFindsPlantedFrequentSets(t *testing.T) {
	p := newToyProblem(6, 200, 0.15, 42)
	res, st := SolveSequential(p)
	if len(res) == 0 {
		t.Fatal("no good patterns found")
	}
	if st.Evaluated == 0 || st.Good != len(res) {
		t.Fatalf("stats inconsistent: %+v vs %d results", st, len(res))
	}
	// Downward closure: every subpattern of a good pattern is good.
	good := map[string]bool{}
	for _, r := range res {
		good[r.Pattern.Key()] = true
	}
	for _, r := range res {
		for _, s := range p.Subpatterns(r.Pattern) {
			if s.Len() > 0 && !good[s.Key()] {
				t.Fatalf("subpattern %s of good %s is not good", s.Key(), r.Pattern.Key())
			}
		}
	}
}

func TestEDTMatchesSequential(t *testing.T) {
	p := newToyProblem(7, 300, 0.12, 7)
	seqRes, seqSt := SolveSequential(p)
	parRes, parSt := SolveEDT(p, 4)
	sameResults(t, seqRes, parRes, "sequential", "PEDT")
	if seqSt.Evaluated != parSt.Evaluated {
		t.Fatalf("PEDT evaluated %d, sequential %d (theorem 2 violated)",
			parSt.Evaluated, seqSt.Evaluated)
	}
}

func TestETTMatchesSequentialResults(t *testing.T) {
	p := newToyProblem(7, 300, 0.12, 11)
	seqRes, seqSt := SolveSequential(p)
	for _, strat := range []Strategy{Optimistic, LoadBalanced} {
		parRes, parSt := SolveETT(p, 4, strat)
		sameResults(t, seqRes, parRes, "sequential", "PETT-"+strat.String())
		// Lemma 2/3: same good patterns; the E-tree may evaluate MORE
		// candidates (it gives up non-parent subpattern pruning).
		if parSt.Evaluated < seqSt.Evaluated {
			t.Fatalf("PETT evaluated fewer (%d) than EDT (%d)?", parSt.Evaluated, seqSt.Evaluated)
		}
	}
}

func TestETTSequentialMatches(t *testing.T) {
	p := newToyProblem(6, 150, 0.18, 3)
	a, _ := SolveSequential(p)
	b, _ := SolveETTSequential(p)
	sameResults(t, a, b, "EDT", "ETT")
}

func TestEdagPrunesAtLeastAsMuchAsEtree(t *testing.T) {
	p := newToyProblem(8, 400, 0.1, 99)
	_, edag := SolveSequential(p)
	_, etree := SolveETTSequential(p)
	if edag.Evaluated > etree.Evaluated {
		t.Fatalf("E-dag evaluated %d > E-tree %d", edag.Evaluated, etree.Evaluated)
	}
}

func TestPLEDMatchesSequential(t *testing.T) {
	p := newToyProblem(6, 120, 0.15, 21)
	seqRes, _ := SolveSequential(p)
	srv := plinda.NewServer()
	defer srv.Close()
	res, err := RunPLED(srv, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLED")
}

func TestPLETMatchesSequential(t *testing.T) {
	p := newToyProblem(6, 120, 0.15, 33)
	seqRes, _ := SolveSequential(p)
	srv := plinda.NewServer()
	defer srv.Close()
	res, err := RunPLET(srv, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLET")
}

func TestPLETSurvivesWorkerFailure(t *testing.T) {
	p := newToyProblem(6, 120, 0.15, 55)
	seqRes, _ := SolveSequential(p)
	srv := plinda.NewServer()
	defer srv.Close()
	done := make(chan struct{})
	var res []Result
	var err error
	go func() {
		res, err = RunPLET(srv, p, 3)
		close(done)
	}()
	// Repeatedly shoot a worker while the traversal runs; PLinda
	// recovery must preserve exactly-once task effects.
	for i := 0; i < 3; i++ {
		srv.Kill("plet-worker-0")
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, seqRes, res, "sequential", "PLET-with-failures")
}

func TestPLEDRequiresDecoder(t *testing.T) {
	srv := plinda.NewServer()
	defer srv.Close()
	if _, err := RunPLED(srv, nonDecodable{}, 1); err == nil {
		t.Fatal("expected decoder error")
	}
	if _, err := RunPLET(srv, nonDecodable{}, 1); err == nil {
		t.Fatal("expected decoder error")
	}
}

type nonDecodable struct{}

func (nonDecodable) Root() Pattern                 { return itemset{} }
func (nonDecodable) Children(Pattern) []Pattern    { return nil }
func (nonDecodable) Subpatterns(Pattern) []Pattern { return nil }
func (nonDecodable) Goodness(Pattern) float64      { return 0 }
func (nonDecodable) Good(Pattern, float64) bool    { return false }

func TestPrunedTrackerLinearChain(t *testing.T) {
	tr := NewPrunedTracker("root")
	tr.Expanded("root", []string{"a"})
	tr.Expanded("a", []string{"b"})
	if tr.Done() {
		t.Fatal("done too early")
	}
	if !tr.Pruned("b") {
		t.Fatal("pruning the only leaf should complete the chain")
	}
}

func TestPrunedTrackerSiblings(t *testing.T) {
	tr := NewPrunedTracker("root")
	tr.Expanded("root", []string{"a", "b", "c"})
	tr.Pruned("a")
	tr.Pruned("b")
	if tr.Done() {
		t.Fatal("root pruned with sibling outstanding")
	}
	if !tr.Pruned("c") {
		t.Fatal("last sibling should finish root")
	}
}

func TestPrunedTrackerEarlyPrune(t *testing.T) {
	// Prune for "x" arrives before its parent's expansion registers it.
	tr := NewPrunedTracker("root")
	tr.Expanded("root", []string{"p"})
	tr.Pruned("x") // unknown yet: buffered
	if tr.Done() {
		t.Fatal("spurious completion")
	}
	if !tr.Expanded("p", []string{"x"}) {
		t.Fatal("registering x should apply the buffered prune and finish")
	}
}

func TestPrunedTrackerGoodLeafViaExpandedEmpty(t *testing.T) {
	tr := NewPrunedTracker("root")
	tr.Expanded("root", []string{"leaf"})
	if !tr.Expanded("leaf", nil) {
		t.Fatal("good leaf with no children should prune itself")
	}
}

// TestPrunedTrackerFloatingSubtree is the regression for the
// stale-control-tuple bug a re-spawned master exposes: a fresh tracker
// can consume a leftover expansion for a node whose parent it has not
// registered yet. When that floating subtree completes, the prune walk
// used the zero-value "" as the missing parent — corrupting an
// unrelated count, and, when the root key IS "" (the motif problem's
// empty pattern), draining the root's counter so the traversal
// terminated early with the deep results still undrained.
func TestPrunedTrackerFloatingSubtree(t *testing.T) {
	// Root key "": the motif E-tree shape. Pre-fix, completing the
	// floating node "B" decremented remaining[""] and finished the run.
	tr := NewPrunedTracker("")
	tr.Expanded("", []string{"A"})
	tr.Expanded("B", []string{"C"}) // stale ctl: B's parent A not registered yet
	tr.Pruned("C")                  // B's subtree completes while floating
	if tr.Done() {
		t.Fatal("floating subtree completion terminated the traversal early")
	}
	// A's expansion registers B; the parked completion must reattach.
	if !tr.Expanded("A", []string{"B"}) {
		t.Fatal("registering the floating node should finish the traversal")
	}
}

// TestPrunedTrackerFloatingSubtreeNonEmptyRoot pins the other failure
// shape of the same bug: with a non-"" root the prune walk spun
// forever on the "" pseudo-node instead of terminating early. The test
// simply completing is the assertion.
func TestPrunedTrackerFloatingSubtreeNonEmptyRoot(t *testing.T) {
	tr := NewPrunedTracker("root")
	tr.Expanded("root", []string{"a"})
	tr.Expanded("b", []string{"c"}) // floating: parent "a" not registered
	tr.Pruned("c")                  // pre-fix: infinite loop in prune()
	if tr.Done() {
		t.Fatal("floating subtree completion terminated the traversal early")
	}
	tr.Pruned("x") // another early prune, still parked
	if !tr.Expanded("a", []string{"b", "x"}) {
		t.Fatal("registering both parked completions should finish the traversal")
	}
}

func TestBuildTraceShapeAndCosts(t *testing.T) {
	p := newToyProblem(5, 100, 0.2, 17)
	tr := BuildTrace(p)
	_, st := SolveETTSequential(p)
	// The trace is exactly the evaluated E-tree plus the root node.
	if tr.NodeCnt != st.Evaluated+1 {
		t.Fatalf("trace has %d nodes, E-tree evaluated %d", tr.NodeCnt, st.Evaluated)
	}
	if tr.TotalCost() <= 0 {
		t.Fatal("non-positive total cost")
	}
	lvl1 := tr.LevelNodes(1)
	if len(lvl1) != 5 {
		t.Fatalf("level 1 has %d nodes, want 5", len(lvl1))
	}
}

func TestAdaptiveDepth(t *testing.T) {
	for _, tc := range []struct{ workers, depth int }{{1, 1}, {5, 1}, {6, 2}, {45, 2}} {
		if d := AdaptiveDepth(tc.workers); d != tc.depth {
			t.Fatalf("AdaptiveDepth(%d)=%d want %d", tc.workers, d, tc.depth)
		}
	}
}

func TestTraceTasksConserveWork(t *testing.T) {
	p := newToyProblem(6, 100, 0.15, 29)
	tr := BuildTrace(p)
	total := tr.TotalCost()
	for _, strat := range []Strategy{Optimistic, LoadBalanced} {
		for depth := 1; depth <= 2; depth++ {
			tasks, pre := tr.Tasks(strat, depth)
			c := &now.Cluster{Machines: now.Uniform(1), MasterPre: pre}
			res := c.Run(tasks)
			// On one overhead-free machine, master work + task work must
			// equal the sequential traversal cost.
			if math.Abs(res.Makespan-total) > 1e-9 {
				t.Fatalf("%v depth %d: makespan %v != total %v", strat, depth, res.Makespan, total)
			}
		}
	}
}

func TestLoadBalancedBeatsOptimisticOnSkewedTrees(t *testing.T) {
	// Hand-built skewed trace: one huge subtree and many small ones.
	big := &TraceNode{Key: "big", Cost: 1, Good: true}
	for i := 0; i < 40; i++ {
		big.Children = append(big.Children, &TraceNode{Key: fmt.Sprintf("big/%d", i), Cost: 1})
	}
	root := &TraceNode{Key: "root", Good: true, Children: []*TraceNode{big}}
	for i := 0; i < 9; i++ {
		root.Children = append(root.Children, &TraceNode{Key: fmt.Sprint(i), Cost: 1})
	}
	tr := &Trace{Root: root, NodeCnt: 51}
	machines := 10
	opt, preO := tr.Tasks(Optimistic, 1)
	lb, preL := tr.Tasks(LoadBalanced, 1)
	co := &now.Cluster{Machines: now.Uniform(machines), MasterPre: preO}
	cl := &now.Cluster{Machines: now.Uniform(machines), MasterPre: preL}
	mo := co.Run(opt).Makespan
	ml := cl.Run(lb).Makespan
	if ml >= mo {
		t.Fatalf("load-balanced (%v) not faster than optimistic (%v) on skewed tree", ml, mo)
	}
}

// Property: for random toy problems, PEDT with any worker count finds
// exactly the sequential result set.
func TestPropertyEDTWorkerCountInvariance(t *testing.T) {
	f := func(seed uint64, workers uint8) bool {
		p := newToyProblem(5, 60, 0.2, seed|1)
		a, _ := SolveSequential(p)
		b, _ := SolveEDT(p, int(workers%6)+1)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Pattern.Key() != b[i].Pattern.Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveSequentialToy(b *testing.B) {
	p := newToyProblem(10, 500, 0.08, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SolveSequential(p)
	}
}

func BenchmarkSolveEDT4Workers(b *testing.B) {
	p := newToyProblem(10, 500, 0.08, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SolveEDT(p, 4)
	}
}

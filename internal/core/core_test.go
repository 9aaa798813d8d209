package core

import (
	"fmt"
	"math"
	"math/rand"
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

// sharedChild breaks Children's unique-parent contract: both children of
// the root generate "shared". Every pattern is good.
type sharedChild struct{}

type keyPattern string

func (k keyPattern) Key() string { return string(k) }
func (k keyPattern) Len() int    { return len(k) }

func (sharedChild) Root() Pattern { return keyPattern("") }
func (sharedChild) Children(p Pattern) []Pattern {
	switch p {
	case keyPattern(""):
		return []Pattern{keyPattern("a"), keyPattern("b")}
	case keyPattern("a"), keyPattern("b"):
		return []Pattern{keyPattern("shared")}
	}
	return nil
}
func (sharedChild) Subpatterns(Pattern) []Pattern      { return nil }
func (sharedChild) Goodness(Pattern) float64           { return 1 }
func (sharedChild) Good(Pattern, float64) bool         { return true }
func (sharedChild) Decode(key string) (Pattern, error) { return keyPattern(key), nil }

// TestSharedChildFailsRun: a problem whose Children is not unique-parent
// has two tasks report the same good pattern, once from each parent's
// task. Neither program may drop the second copy silently or return it
// twice: the run fails, naming the key.
func TestSharedChildFailsRun(t *testing.T) {
	for name, run := range map[string]func(*plinda.Server, Problem, int) ([]Result, error){"PLET": RunPLET, "PLED": RunPLED} {
		t.Run(name, func(t *testing.T) {
			srv := plinda.NewServer()
			defer srv.Close()
			res, err := run(srv, sharedChild{}, 1)
			if err == nil || !strings.Contains(err.Error(), `"shared"`) {
				t.Fatalf("want an error naming \"shared\", got %v and %d results %v", err, len(res), resultKeys(res))
			}
		})
	}
}

// TestAssembleResultsChecksRuns: the merge returns SortResults' order
// from runs in that order, and fails on a run out of order, naming its
// task and key.
func TestAssembleResultsChecksRuns(t *testing.T) {
	dec := sharedChild{}
	res, err := assembleResults(dec, []goodRun{
		{"t1", []string{"b", "d", "a"}, []float64{3, 3, 1}},
		{"t2", nil, nil},
		{"t3", []string{"c", "e"}, []float64{3, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(resultKeys(res), " "); got != "b c d e a" {
		t.Fatalf("merged %q, want %q", got, "b c d e a")
	}
	_, err = assembleResults(dec, []goodRun{{"t1", []string{"a", "b"}, []float64{1, 2}}})
	if err == nil || !strings.Contains(err.Error(), `"t1"`) || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("want a malformed-report error naming task \"t1\" and key \"b\", got %v", err)
	}
}

// TestBalance pins the PLET master's termination detection report by
// report: after each step, whether the report was fresh and whether the
// traversal is done. A report names its task and the tasks it spilled;
// a prune spills nothing.
func TestBalance(t *testing.T) {
	type step struct {
		task    string
		spilled []string
		fresh   bool
		done    bool
	}
	for _, tc := range []struct {
		name  string
		root  string
		steps []step
	}{
		{"LinearChain", "root", []step{
			{"root", []string{"a"}, true, false},
			{"a", []string{"b"}, true, false},
			{"b", nil, true, true},
		}},
		{"Siblings", "root", []step{
			{"root", []string{"a", "b", "c"}, true, false},
			{"a", nil, true, false},
			{"b", nil, true, false},
			{"c", nil, true, true},
		}},
		{"ChildBeforeParent", "root", []step{
			{"root", []string{"p"}, true, false},
			{"x", nil, true, false},
			{"p", []string{"x"}, true, true},
		}},
		{"GoodLeaf", "root", []step{
			{"root", []string{"leaf"}, true, false},
			{"leaf", nil, true, true},
		}},
		// A re-spawned master can take a stale report of a task whose
		// parent has not reported to it yet, and see that task's whole
		// subtree complete first: the count must not finish early,
		// whether the root key is "" (the motif problem's empty pattern)
		// or not.
		{"FloatingSubtree", "", []step{
			{"", []string{"A"}, true, false},
			{"B", []string{"C"}, true, false},
			{"C", nil, true, false},
			{"A", []string{"B"}, true, true},
		}},
		{"FloatingSubtreeNonEmptyRoot", "root", []step{
			{"root", []string{"a"}, true, false},
			{"b", []string{"c"}, true, false},
			{"c", nil, true, false},
			{"x", nil, true, false},
			{"a", []string{"b", "x"}, true, true},
		}},
		// A repeat — a cluster 2PC re-run, a stale report — is not fresh
		// and changes nothing, before the traversal is done and after.
		{"Repeats", "root", []step{
			{"root", []string{"a", "b"}, true, false},
			{"root", []string{"a", "b"}, false, false},
			{"y", nil, true, false},
			{"y", nil, false, false},
			{"a", []string{"x"}, true, false},
			{"a", []string{"x"}, false, false},
			{"x", nil, true, false},
			{"x", nil, false, false},
			{"a", nil, false, false},
			{"b", []string{"y"}, true, true},
			{"y", nil, false, true},
			{"b", []string{"y"}, false, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBalance(tc.root)
			for i, s := range tc.steps {
				if fresh := b.report(s.task, s.spilled); fresh != s.fresh {
					t.Fatalf("step %d, report of %q: fresh %v, want %v", i, s.task, fresh, s.fresh)
				}
				if b.done() != s.done {
					t.Fatalf("step %d, report of %q: done %v, want %v", i, s.task, b.done(), s.done)
				}
			}
		})
	}
}

// TestBalanceShuffledReports delivers the reports of seeded random task
// trees in random order, each repeated 0–2 times: the traversal is done
// exactly from the last distinct report on, and each task's report is
// fresh exactly once.
func TestBalanceShuffledReports(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		spilled := make([][]string, n) // task 0 is the root
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			spilled[p] = append(spilled[p], fmt.Sprint(i))
		}
		var reports []int
		for i := range spilled {
			for r := rng.Intn(3); r >= 0; r-- {
				reports = append(reports, i)
			}
		}
		rng.Shuffle(len(reports), func(i, j int) { reports[i], reports[j] = reports[j], reports[i] })
		b := newBalance("0")
		seen := map[int]bool{}
		for _, i := range reports {
			if fresh := b.report(fmt.Sprint(i), spilled[i]); fresh == seen[i] {
				t.Fatalf("seed %d: report of task %d fresh %v after %v", seed, i, fresh, seen[i])
			}
			seen[i] = true
			if b.done() != (len(seen) == n) {
				t.Fatalf("seed %d: done %v with %d of %d tasks reported", seed, b.done(), len(seen), n)
			}
		}
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

// Property: for random toy problems, both PLinda programs find exactly
// the sequential result set with any worker count.
func TestPropertyPLindaWorkerCountInvariance(t *testing.T) {
	f := func(seed uint64, workers uint8) bool {
		p := newToyProblem(5, 60, 0.2, seed|1)
		want, _ := SolveSequential(p)
		w := int(workers%5) + 1
		for _, run := range []func(*plinda.Server, Problem, int) ([]Result, error){RunPLED, RunPLET} {
			srv := plinda.NewServer()
			got, err := run(srv, p, w)
			srv.Close()
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range want {
				if want[i].Pattern.Key() != got[i].Pattern.Key() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
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

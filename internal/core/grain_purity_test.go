package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/mining/episode"
	"freepdm/internal/mining/motif"
	"freepdm/internal/mining/treemotif"
	"freepdm/internal/rnatree"
	"freepdm/internal/seq"
)

// inTreeProblems builds every in-tree mining problem the PLinda programs
// can run, and the package's toy problem, small. Each call of a builder
// returns a fresh instance: it stands for the problem as another process
// constructs it.
func inTreeProblems(t *testing.T) map[string]func() core.Problem {
	motifSeqs := func() []string {
		spec := seq.CyclinsSpec(3)
		spec.Length = 40
		return spec.Generate()
	}
	trees := func() []*rnatree.Tree {
		rng := rand.New(rand.NewSource(5))
		m, err := rnatree.Parse("B(H)")
		if err != nil {
			t.Fatal(err)
		}
		ts := make([]*rnatree.Tree, 6)
		for i := range ts {
			ts[i] = rnatree.RandomStructure(10, rng)
		}
		for _, i := range rng.Perm(len(ts))[:5] {
			rnatree.PlantMotif(ts[i], m, rng)
		}
		return ts
	}
	return map[string]func() core.Problem{
		"toy": func() core.Problem { return core.NewToyProblem(9, 120, 0.06, 82) },
		"motif-exact": func() core.Problem {
			return motif.NewProblem(motifSeqs(), motif.Params{MinOccur: 5, MinLength: 6, MaxLength: 12})
		},
		"motif-mut": func() core.Problem {
			pr := motif.NewProblem(motifSeqs(), motif.Params{MinOccur: 12, MaxMut: 2, MinLength: 6, MaxLength: 9, MinSeedSeqs: 5})
			pr.SubpatternPruning = true // scores of bad patterns come from the cache; reports must not
			return pr
		},
		"assoc": func() core.Problem {
			return assoc.NewProblem(assoc.GenerateDB(300, 10, [][]int{{0, 1, 2}, {4, 5}}, 0.5, 4), 40)
		},
		"episode": func() core.Problem {
			return episode.NewProblem(episode.GenerateStream(300, 4, []episode.Episode{{1, 3}}, 0.08, 4), 5, 50, 3)
		},
		"treemotif": func() core.Problem {
			return treemotif.NewProblem(trees(), treemotif.Params{MinOccur: 4, MaxDist: 0, MinSize: 2, MaxSize: 3})
		},
	}
}

// TestExpandTaskIsPure checks, for every in-tree mining problem the
// PLET program can run and for the package's toy problem, the invariant
// its node budget exists for: what a task reports — good keys, scores,
// spilled frontier — is a function of the task tuple's bundle and the
// budget alone. Two goroutines run every task of a walk at once against
// one instance of the problem (two workers of a run share it, so under
// -race this is also Children and Goodness being safe to call
// concurrently with no lock around them; motif-mut memoises occurrence
// counts in a sync.Map, the one shared write in the tree) and a third
// report comes from a fresh instance, which stands for a remote worker;
// all three must be equal. The master's duplicate tolerance rests on it:
// a re-run task may only report again what its first run reported.
//
// The walk follows the spilled bundles, so it also shows that the tasks
// of a run cover the E-tree: the goods add up to SolveETTSequential's.
func TestExpandTaskIsPure(t *testing.T) {
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			_, ett := core.SolveETTSequential(build())
			if ett.Good == 0 {
				t.Fatal("problem has no good pattern: the walk would assert nothing")
			}
			for _, budget := range []int{1, 7, core.PLETBudget()} {
				a, b := build(), build()
				queue := core.PLETSeeds(a, 2)
				good := 0
				for len(queue) > 0 {
					bundle := queue[0]
					queue = queue[1:]
					var r [3]core.PLETTask
					var wg sync.WaitGroup
					for i, pr := range []core.Problem{a, a, b} {
						wg.Add(1)
						go func() {
							defer wg.Done()
							r[i] = core.ExpandTask(pr, bundle, budget)
						}()
					}
					wg.Wait()
					if !reflect.DeepEqual(r[0], r[1]) || !reflect.DeepEqual(r[0], r[2]) {
						t.Fatalf("budget %d: task %q reports differently:\nconcurrently   %+v\n               %+v\nfresh instance %+v",
							budget, bundle, r[0], r[1], r[2])
					}
					good += len(r[0].Goods)
					queue = append(queue, r[0].Spills()...)
				}
				if good != ett.Good {
					t.Fatalf("budget %d: the tasks report %d good patterns, the E-tree has %d", budget, good, ett.Good)
				}
			}
		})
	}
}

// TestPLETTaskIDsUnique checks the identity argument of the bundle
// protocol over every in-tree problem: a task is named, on its control
// tuple and in the tracker, by its bundle's first key, and no first key
// names two bundles of a run; every pattern of the E-tree is evaluated
// by exactly one task; every task reports its good patterns in result
// order (descending goodness, then key), which the master's merge relies
// on; and the union of the reports is the E-tree's good set. It holds at
// budget 1, where a bundle's first key is all its task evaluates, as at
// the default.
func TestPLETTaskIDsUnique(t *testing.T) {
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			ettRes, ett := core.SolveETTSequential(build())
			want := make([]string, len(ettRes))
			for i, r := range ettRes {
				want[i] = r.Pattern.Key()
			}
			sort.Strings(want)
			for _, budget := range []int{1, 7, core.PLETBudget()} {
				ids, evaluated := map[string][]string{}, map[string]bool{}
				var goods []string
				for _, task := range core.PLETTasks(build(), 2, budget, 2) {
					if other, dup := ids[task.ID()]; dup {
						t.Errorf("budget %d: %q names the bundles %q and %q", budget, task.ID(), other, task.Keys)
					}
					ids[task.ID()] = task.Keys
					if len(task.Evaluated) == 0 || task.Evaluated[0] != task.ID() {
						t.Errorf("budget %d: task %q evaluated %q first, not its own first key", budget, task.Keys, task.Evaluated)
					}
					for _, key := range task.Evaluated {
						if evaluated[key] {
							t.Errorf("budget %d: %q is evaluated twice", budget, key)
						}
						evaluated[key] = true
					}
					for i := 1; i < len(task.Goods); i++ {
						if a, b := task.Scores[i-1], task.Scores[i]; a < b || a == b && task.Goods[i-1] >= task.Goods[i] {
							t.Errorf("budget %d: task %q reports %q (%v) before %q (%v)", budget, task.ID(), task.Goods[i-1], a, task.Goods[i], b)
						}
					}
					goods = append(goods, task.Goods...)
				}
				if len(evaluated) != ett.Evaluated {
					t.Errorf("budget %d: the tasks evaluate %d patterns, the E-tree has %d", budget, len(evaluated), ett.Evaluated)
				}
				sort.Strings(goods)
				if !reflect.DeepEqual(goods, want) {
					t.Errorf("budget %d: the tasks report %d good patterns, the E-tree has %d:\n%v\n%v", budget, len(goods), len(want), goods, want)
				}
			}
		})
	}
}

// pledLevels walks a problem the way a PLED run does, on one goroutine
// and with no store: every level's good set is dealt into tasks, visit
// sees each task's fields and returns its report, and the reports are
// unioned in chunk order into the next level's good set. It returns the
// good keys of all levels.
func pledLevels(pr core.Problem, workers int, visit func(level int, parents, good []string) []string) []string {
	var all []string
	good := []string{pr.Root().Key()}
	for level := 0; len(good) > 0; level++ {
		var next []string
		for _, parents := range core.LevelParents(good, workers) {
			next = append(next, visit(level, parents, good)...)
		}
		all = append(all, next...)
		good = next
	}
	return all
}

// TestExpandChunkIsPure is TestExpandTaskIsPure for the PLED kernel:
// what a task reports — good keys and scores — is a function of the task
// tuple's fields alone. Two goroutines run every task of a walk at once
// against one instance of the problem (two workers of a run share it, so
// under -race this is also the problems' Children, Subpatterns and
// Goodness being safe to call concurrently) and a third report comes
// from a fresh instance, which stands for a remote worker; all three
// must be equal. The master's duplicate tolerance rests on it: it drops
// the second report of a chunk unread. The walk also shows the tasks of
// a run cover the E-dag exactly: the goods add up to SolveSequential's.
func TestExpandChunkIsPure(t *testing.T) {
	type report struct {
		goods  []string
		scores []float64
		err    error
	}
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			seqRes, _ := core.SolveSequential(build())
			if len(seqRes) == 0 {
				t.Fatal("problem has no good pattern: the walk would assert nothing")
			}
			a, b := build(), build()
			all := pledLevels(a, 2, func(level int, parents, good []string) []string {
				var r [3]report
				var wg sync.WaitGroup
				for i, pr := range []core.Problem{a, a, b} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r[i].goods, r[i].scores, r[i].err = core.ExpandChunk(pr, level, parents, good)
					}()
				}
				wg.Wait()
				if r[0].err != nil {
					t.Fatal(r[0].err)
				}
				if !reflect.DeepEqual(r[0], r[1]) || !reflect.DeepEqual(r[0], r[2]) {
					t.Fatalf("level %d task %q reports differently:\nconcurrently  %v %v\n              %v %v\nfresh instance %v %v",
						level, parents, r[0].goods, r[0].scores, r[1].goods, r[1].scores, r[2].goods, r[2].scores)
				}
				return r[0].goods
			})
			sort.Strings(all)
			want := make([]string, len(seqRes))
			for i, r := range seqRes {
				want[i] = r.Pattern.Key()
			}
			sort.Strings(want)
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("the tasks report %d good patterns, sequential finds %d:\n%v\n%v", len(all), len(want), all, want)
			}
		})
	}
}

// TestChildrenUniqueParent checks the contract of Problem.Children that
// PLED's partition by parent relies on: every pattern is generated
// exactly once, by its parent, so no key appears twice among the
// children of a level's good patterns — pruned candidates included — and
// two chunks of a level never evaluate the same pattern.
func TestChildrenUniqueParent(t *testing.T) {
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			pr := build()
			parentOf := map[string]string{}
			pledLevels(pr, 2, func(level int, parents, good []string) []string {
				for _, key := range parents {
					pat := pr.Root()
					if level > 0 {
						var err error
						if pat, err = pr.(core.Decoder).Decode(key); err != nil {
							t.Fatal(err)
						}
					}
					for _, c := range pr.Children(pat) {
						if other, dup := parentOf[c.Key()]; dup {
							t.Errorf("%q is a child of %q and of %q", c.Key(), other, key)
						}
						parentOf[c.Key()] = key
					}
				}
				goods, _, err := core.ExpandChunk(pr, level, parents, good)
				if err != nil {
					t.Fatal(err)
				}
				return goods
			})
			if len(parentOf) == 0 {
				t.Fatal("the walk generated no candidate")
			}
		})
	}
}

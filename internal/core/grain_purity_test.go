package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/mining/episode"
	"freepdm/internal/mining/motif"
	"freepdm/internal/mining/treemotif"
	"freepdm/internal/rnatree"
	"freepdm/internal/seq"
)

// TestExpandTaskIsPure checks, for every in-tree mining problem the
// PLET program can run and for the package's toy problem, the invariant
// its node budget exists for: what a task reports — good keys, scores,
// spilled frontier — is a function of the task's key and the budget
// alone. It must not depend on which
// process expands the task (a fresh instance of the problem stands for
// a remote worker), on what that process expanded before (the motif
// problem caches occurrence counts), or on the order Children happens to
// produce. The master's duplicate tolerance rests on it: a re-run task
// may only report again what its first run reported.
//
// The walk follows the spilled keys, so it also shows that the tasks of
// a run cover the E-tree exactly once: the goods add up to
// SolveETTSequential's.
func TestExpandTaskIsPure(t *testing.T) {
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
	problems := map[string]func() core.Problem{
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
	for name, build := range problems {
		t.Run(name, func(t *testing.T) {
			_, ett := core.SolveETTSequential(build())
			if ett.Good == 0 {
				t.Fatal("problem has no good pattern: the walk would assert nothing")
			}
			for _, budget := range []int{1, 7, core.PLETBudget()} {
				a, b := build(), build()
				var queue []string
				for _, c := range a.Children(a.Root()) {
					queue = append(queue, c.Key())
				}
				good := 0
				for len(queue) > 0 {
					key := queue[0]
					queue = queue[1:]
					pat, err := a.(core.Decoder).Decode(key)
					if err != nil {
						t.Fatal(err)
					}
					g1, s1, f1 := core.ExpandTask(a, pat, budget)
					g2, s2, f2 := core.ExpandTask(b, pat, budget) // another process
					g3, s3, f3 := core.ExpandTask(a, pat, budget) // the same one again, caches warm
					if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(f1, f2) {
						t.Fatalf("budget %d: task %q reports differently on a fresh instance:\n%v %v %v\n%v %v %v",
							budget, key, g1, s1, f1, g2, s2, f2)
					}
					if !reflect.DeepEqual(g1, g3) || !reflect.DeepEqual(s1, s3) || !reflect.DeepEqual(f1, f3) {
						t.Fatalf("budget %d: task %q reports differently when re-run:\n%v %v %v\n%v %v %v",
							budget, key, g1, s1, f1, g3, s3, f3)
					}
					good += len(g1)
					queue = append(queue, f1...)
				}
				if good != ett.Good {
					t.Fatalf("budget %d: the tasks report %d good patterns, the E-tree has %d", budget, good, ett.Good)
				}
			}
		})
	}
}

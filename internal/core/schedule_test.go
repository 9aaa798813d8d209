package core_test

import (
	"slices"
	"testing"

	"freepdm/internal/core"
)

// makespan replays a task graph under greedy list scheduling: a task is
// ready when the task that spilled it has committed, a free worker takes
// the task that has been ready longest, and a task costs the patterns it
// evaluates. No clock: the unit is one evaluation.
func makespan(tasks []core.PLETTask, workers int) (span, total int) {
	type entry struct{ at, task int }
	var ready []entry
	children := make([][]int, len(tasks))
	for i, t := range tasks {
		if t.Parent < 0 {
			ready = append(ready, entry{0, i})
		} else {
			children[t.Parent] = append(children[t.Parent], i)
		}
	}
	free := make([]int, workers)
	for len(ready) > 0 {
		next := ready[0] // ready is sorted by (at, task)
		ready = ready[1:]
		w := slices.Index(free, slices.Min(free))
		done := max(free[w], next.at) + len(tasks[next.task].Evaluated)
		free[w] = done
		span, total = max(span, done), total+len(tasks[next.task].Evaluated)
		for _, c := range children[next.task] {
			ready = append(ready, entry{done, c})
		}
		slices.SortFunc(ready, func(a, b entry) int {
			if a.at != b.at {
				return a.at - b.at
			}
			return a.task - b.task
		})
	}
	return span, total
}

// TestPLETBundleSchedule is the clock-free guard on how a PLET run
// scales past the workers this machine has: the run's task graph,
// replayed (tasks are pure functions of their tuples) at 2 and at 8
// virtual workers, must finish within total/W + 2·budget evaluations —
// an even share of the tree plus the two budgets a worker can be left
// holding while the others have run dry. That holds because a spent
// budget splits what is left in two, so the parallel slack under a
// subtree larger than the budget doubles with every transaction. The
// same replay with a one-bundle spill — fewer transactions, and faster
// on two hyperthreads — must break the bound on some input: there every
// oversized bundle is a chain of budget-sized transactions that no
// second worker can join. That is why two stays.
func TestPLETBundleSchedule(t *testing.T) {
	problems := inTreeProblems(t)
	// 7 150 patterns: a tree the default budget splits, too.
	problems["toy"] = func() core.Problem { return core.NewToyProblem(26, 400, 0.005, 82) }
	for _, budget := range []int{7, core.PLETBudget()} {
		chained := false
		for _, name := range []string{"motif-exact", "motif-mut", "toy"} {
			for _, workers := range []int{2, 8} {
				span, total := makespan(core.PLETTasks(problems[name](), workers, budget, 2), workers)
				bound := total/workers + 2*budget
				if span > bound {
					t.Errorf("%s, budget %d, %d workers: makespan %d of %d evaluations, want at most total/W + 2·budget = %d",
						name, budget, workers, span, total, bound)
				}
				one, _ := makespan(core.PLETTasks(problems[name](), workers, budget, 1), workers)
				t.Logf("%s, budget %d, %d workers: %d evaluations, makespan %d (bound %d), with a one-bundle spill %d",
					name, budget, workers, total, span, bound, one)
				chained = chained || one > bound
			}
		}
		if !chained {
			t.Errorf("budget %d: a one-bundle spill met the bound on every input: the replay cannot tell binary splitting from a serial chain", budget)
		}
	}
}

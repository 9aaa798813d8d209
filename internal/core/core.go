// Package core implements the E-dag framework of chapter 3 of "Free
// Parallel Data Mining" (Li, NYU 1998): a uniform computation model
// for "pattern lattice" data mining applications — classification rule
// mining, association rule mining, and combinatorial pattern
// discovery — and parallel traversal engines for it.
//
// A data mining application defines four elements (section 3.1.2): a
// database, patterns with a length function, a goodness measure, and a
// goodness predicate. The exploration dag (E-dag) has a vertex per
// possible pattern and an edge from every immediate subpattern; the
// exploration tree (E-tree) keeps only parent→child edges. The package
// provides:
//
//   - SolveSequential: the optimal sequential data mining virtual
//     machine (DMVM, section 3.1.5).
//   - SolveETTSequential: the sequential E-tree traversal, the
//     reference for what parent-only pruning evaluates.
//   - The parallel traversals as PLinda master/worker programs, one per
//     lattice shape. RunPLED is the parallel E-dag traversal (PEDT,
//     section 3.2.1, figures 3.4/3.5) as level-wise count distribution:
//     the workers generate, prune and evaluate each level's candidates
//     against the level's good set, the master only unions their
//     reports. RunPLET is the parallel E-tree traversal (PETT, section
//     3.3.2, figures 3.9/3.10): a task is a bundle of frontier patterns
//     a worker explores under a node budget, spilling what is left as
//     two bundles.
//   - Trace extraction and conversion to simulated NOW task graphs for
//     the chapter 4 timing experiments (optimistic, load-balanced and
//     adaptive-master strategies are simulated schedules, not runtimes).
package core

import (
	"slices"
	"strings"
)

// Pattern is a vertex label in an E-dag. Implementations are supplied
// by the concrete mining problems (motifs, itemsets, rule conjuncts).
type Pattern interface {
	// Key uniquely identifies the pattern; it is also the wire format
	// used in tuple-space task tuples.
	Key() string
	// Len is the pattern length (0 for the root pattern).
	Len() int
}

// Problem is a pattern-lattice data mining application: the four
// elements of section 3.1.2 plus the unique-parent child relation that
// turns the pattern lattice into an E-tree.
//
// Every worker of a run calls one instance at once, the way the
// dissertation's workers share nothing but the tuple space: Children,
// Subpatterns, Goodness, Good and Decode are pure and safe for
// concurrent use, and take no process-wide lock and write no shared map
// per call. A memo is per-worker or lock-free to read, and bounded by
// the patterns evaluated; a counter is an atomic or lives with the
// observer. TestKernelTakesNoLock and TestGoodnessAllocs hold the
// in-tree problems to it.
type Problem interface {
	// Root returns the zero-length pattern, which is always good.
	Root() Pattern
	// Children returns the child patterns of p under the unique-parent
	// generation relation. Every non-root pattern is generated exactly
	// once, by its parent: PLED partitions a level's candidates by
	// parent and never checks two chunks for a shared child, and PLET
	// names a task by the first key of its bundle. The order
	// must be deterministic — the same for the same p in every process
	// and on every call — because a task's report is required to be a
	// function of its tuple (see pletBudget, expandChunk).
	Children(p Pattern) []Pattern
	// Subpatterns returns all immediate subpatterns of p (those of
	// length Len(p)-1). The E-dag traversal evaluates p only when all
	// of them are good; the E-tree traversal checks only the parent.
	Subpatterns(p Pattern) []Pattern
	// Goodness evaluates the pattern against the database. This is the
	// expensive "task" of table 3.1.
	Goodness(p Pattern) float64
	// Good reports whether a pattern with the given goodness is good
	// (and hence whether its children should be explored).
	Good(p Pattern, goodness float64) bool
}

// Decoder is implemented by problems whose patterns can be
// reconstructed from their keys, as required by the PLinda programs
// (task tuples carry pattern keys across the tuple space).
type Decoder interface {
	Decode(key string) (Pattern, error)
}

// CostModel optionally reports the abstract cost (reference-machine
// seconds) of evaluating Goodness for a pattern, used by the NOW
// timing experiments. Problems without a cost model get unit costs.
type CostModel interface {
	Cost(p Pattern) float64
}

// Result is a good pattern together with its goodness.
type Result struct {
	Pattern  Pattern
	Goodness float64
}

// compareResults is result order: descending goodness, then ascending
// key. SortResults, every PLET report and the merge that assembles a
// parallel run's results all use it.
func compareResults(ka string, ga float64, kb string, gb float64) int {
	switch {
	case ga > gb:
		return -1
	case ga < gb:
		return 1
	}
	return strings.Compare(ka, kb)
}

// SortResults orders results by descending goodness, then by key, for
// deterministic output. A pattern is asked for its key only on a tie in
// goodness, the one case in which compareResults reads keys.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		var ka, kb string
		if a.Goodness == b.Goodness {
			ka, kb = a.Pattern.Key(), b.Pattern.Key()
		}
		return compareResults(ka, a.Goodness, kb, b.Goodness)
	})
}

// Stats counts the work a traversal performed, for comparing E-dag
// and E-tree pruning power.
type Stats struct {
	Evaluated int // Goodness calls
	Good      int // patterns found good
	Pruned    int // generated patterns never evaluated (subpattern not good)
}

// SolveSequential runs the optimal sequential DMVM: a level-
// synchronous lazy E-dag traversal. A pattern is evaluated only if all
// of its immediate subpatterns are good (section 3.1.3), which the
// dissertation proves equivalent to any optimal sequential program.
func SolveSequential(pr Problem) ([]Result, Stats) {
	var results []Result
	var st Stats
	good := map[string]bool{pr.Root().Key(): true}
	level := pr.Children(pr.Root())
	for len(level) > 0 {
		var next []Pattern
		seen := map[string]bool{}
		for _, p := range level {
			if seen[p.Key()] {
				continue
			}
			seen[p.Key()] = true
			if !allSubpatternsGood(pr, p, good) {
				st.Pruned++
				continue
			}
			g := pr.Goodness(p)
			st.Evaluated++
			if pr.Good(p, g) {
				st.Good++
				good[p.Key()] = true
				results = append(results, Result{p, g})
				next = append(next, pr.Children(p)...)
			}
		}
		level = next
	}
	SortResults(results)
	return results, st
}

func allSubpatternsGood(pr Problem, p Pattern, good map[string]bool) bool {
	for _, s := range pr.Subpatterns(p) {
		if !good[s.Key()] {
			return false
		}
	}
	return true
}

// SolveETTSequential runs a sequential E-tree traversal (depth-first,
// parent-only pruning). It returns the same good patterns as the EDT
// (lemma 2) but may evaluate more candidates; the Stats difference is
// the pruning opportunity the E-tree gives up for asynchrony.
func SolveETTSequential(pr Problem) ([]Result, Stats) {
	var results []Result
	var st Stats
	stack := append([]Pattern(nil), pr.Children(pr.Root())...)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := pr.Goodness(p)
		st.Evaluated++
		if pr.Good(p, g) {
			st.Good++
			results = append(results, Result{p, g})
			stack = append(stack, pr.Children(p)...)
		}
	}
	SortResults(results)
	return results, st
}

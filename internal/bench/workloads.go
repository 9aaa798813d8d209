// Package bench is the repository's end-to-end benchmark: it runs whole
// PLET/PLED mining runs on every tuple-space backend, checks each run
// against core.SolveSequential, and reports end-to-end metrics from an
// untraced pass and a per-layer budget from a traced pass. See README.md
// for the metric glossary and how to compare two commits.
package bench

import (
	"fmt"

	"freepdm/internal/core"
	"freepdm/internal/mining/assoc"
	"freepdm/internal/mining/motif"
	"freepdm/internal/seq"
)

// Workload is one named mining run: a program over an input on a backend.
type Workload struct {
	Name    string
	Program string // "plet" or "pled"
	Input   string // key of inputs
	Backend string // "space", "client", "durable" or "router3"
	Why     string // the reason it exists; mirrored in BENCHMARK.json
}

// Workloads is the benchmark's fixed workload list. The five
// motif_exact_* workloads share their input and differ only in backend
// or program on purpose: their differences are the layer costs.
var Workloads = []Workload{
	{"motif_exact_plet_space", "plet", "motif_exact", "space",
		"Coordination-bound, local: 3.5k tasks of ~1us, so plinda txns and the in-process Space do the work; no wire, no WAL."},
	{"motif_mut_plet_space", "plet", "motif_mut", "space",
		"Compute-bound: the seq matcher is >90% of the run; coordination changes must show no change here."},
	{"motif_exact_plet_client", "plet", "motif_exact", "client",
		"Wire-bound: the same run through one TCP client per proc; codec and net dominate."},
	{"motif_exact_plet_durable", "plet", "motif_exact", "durable",
		"WAL-bound: group commit plus a snapshot compaction every 1024 records, Fsync off."},
	{"motif_exact_plet_router3", "plet", "motif_exact", "router3",
		"cluster + wire + WAL: Router over 3 served durable nodes; all task tuples home on one node."},
	{"apriori_pled_space", "pled", "apriori", "space",
		"Master-centric E-dag: every result crosses the PLED master, few medium tasks; guards PLED against PLET-side gains."},
	{"motif_exact_pled_space", "pled", "motif_exact", "space",
		"PLED master at scale: thousands of continuation commits, the O(n^2) gob event log dominates."},
}

// WorkloadByName finds a workload of the fixed list.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// inputs builds each named problem from the seed. The program under test
// sees only the returned problem. small shrinks the data for the smoke
// test; it is never set by the command.
var inputs = map[string]func(seed int64, small bool) core.Problem{
	// Table 4.2 setting 1 on the synthetic cyclins family, sequences cut
	// to 80 residues: exact matching answered by the GST, ~1 us a task,
	// ~3.5k PLET tasks and ~2.7k PLED tasks. The full 400 residues would
	// make a PLED rep take seconds (its master re-encodes the whole event
	// log at every commit) and a router3 rep nearly two, and a pass needs
	// more than a handful of reps to hold a steady median.
	"motif_exact": func(seed int64, small bool) core.Problem {
		return motif.NewProblem(corpus(seed, 80, small),
			motif.Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24})
	},
	// Table 4.2 setting 2 on 120 residues: mutation-tolerant matching
	// scans the database, ~0.2 ms a task. MinSeedSeqs 5 keeps it to ~1k
	// tasks.
	"motif_mut": func(seed int64, small bool) core.Problem {
		return motif.NewProblem(corpus(seed, 120, small),
			motif.Params{MinOccur: 12, MaxMut: 4, MinLength: 16, MaxLength: 24, MinSeedSeqs: 5})
	},
	// Market baskets with four planted groups: 916 support counts of
	// ~0.3 ms under the E-dag prune (PLET would evaluate 8,555).
	"apriori": func(seed int64, small bool) core.Problem {
		txns, minSupport := 20000, 1200
		if small {
			txns, minSupport = 500, 40
		}
		groups := [][]int{{0, 2, 4}, {5, 6, 7, 8}, {10, 11, 12}, {3, 9, 13, 14}}
		return assoc.NewProblem(assoc.GenerateDB(txns, 24, groups, 0.3, seed), minSupport)
	},
}

func corpus(seed int64, length int, small bool) []string {
	spec := seq.CyclinsSpec(seed)
	spec.Length = length
	if small {
		spec.Length = 30
	}
	return spec.Generate()
}

// run executes the workload's program once.
func (w Workload) run(be *backend, pr core.Problem, workers int) ([]core.Result, error) {
	switch w.Program {
	case "plet":
		return core.RunPLET(be.srv, pr, workers)
	case "pled":
		return core.RunPLED(be.srv, pr, workers)
	}
	return nil, fmt.Errorf("bench: unknown program %q", w.Program)
}

// sameResults is the correctness oracle: the full (key, goodness) set
// of a run must equal SolveSequential's. Both sides are sorted by
// core.SortResults.
func sameResults(want, got []core.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, sequential found %d", len(got), len(want))
	}
	for i := range want {
		wk, gk := want[i].Pattern.Key(), got[i].Pattern.Key()
		if wk != gk || want[i].Goodness != got[i].Goodness {
			return fmt.Errorf("result %d is (%q, %v), sequential has (%q, %v)",
				i, gk, got[i].Goodness, wk, want[i].Goodness)
		}
	}
	return nil
}

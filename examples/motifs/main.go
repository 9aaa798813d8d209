// Motifs: discover active motifs in a cyclins-like protein family
// (chapter 4) sequentially and with the PLinda parallel E-tree
// traversal, then predict how the run would scale on a simulated
// network of workstations.
package main

import (
	"fmt"
	"log"
	"time"

	"freepdm/internal/core"
	"freepdm/internal/mining/motif"
	"freepdm/internal/now"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
)

func main() {
	corpus := seq.CyclinsSpec(42).Generate()
	fmt.Printf("corpus: %d sequences, average length %.0f\n",
		len(corpus), seq.AverageLength(corpus))

	params := motif.Params{MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24}
	fmt.Printf("query: motifs *X* with |X| >= %d occurring exactly in >= %d sequences\n\n",
		params.MinLength, params.MinOccur)

	// Sequential discovery.
	start := time.Now()
	results := motif.Discover(corpus, params)
	fmt.Printf("sequential E-tree traversal (%v): %d active motifs\n",
		time.Since(start).Round(time.Millisecond), len(results))
	for _, r := range results {
		fmt.Printf("  *%s*  occurs in %d sequences\n", r.Pattern.Key(), int(r.Goodness))
	}

	// The PLinda parallel E-tree traversal agrees.
	pr := motif.NewProblem(corpus, params)
	srv := plinda.NewServer()
	res, err := core.RunPLET(srv, pr, 8)
	srv.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPLET with 8 workers: %d active motifs", len(pr.ActiveMotifs(res)))

	// Predict scaling on a simulated NOW, the chapter 4 experiment.
	trace := core.BuildTrace(motif.NewProblem(corpus, params))
	fmt.Printf("\n\nsimulated idle-workstation scaling (load-balanced + adaptive master):\n")
	seqCost := trace.TotalCost()
	for _, n := range []int{1, 5, 10, 20, 45} {
		depth := core.AdaptiveDepth(n)
		chunked := trace.Chunked(trace.TotalCost()/100, depth)
		tasks, pre := chunked.Tasks(core.LoadBalanced, depth)
		cl := &now.Cluster{Machines: now.Uniform(n), Overhead: seqCost / 2000, MasterPre: pre}
		r := cl.Run(tasks)
		fmt.Printf("  %2d machines: %5.1f work-units (speedup %.1fx, efficiency %.0f%%)\n",
			n, r.Makespan, now.Speedup(seqCost, r.Makespan),
			100*now.Efficiency(seqCost, r.Makespan, n))
	}
}

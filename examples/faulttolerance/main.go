// Faulttolerance: demonstrate the chapter 7 software architecture —
// a Parallel NyuMiner-CV run on a PLinda server whose processes, master
// and workers alike, keep getting killed (owners reclaiming their
// workstations), with the process-watch table printed along the way.
// The result is identical to a failure-free run, PLinda's
// fault-tolerance guarantee.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"freepdm/internal/classify"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
	"freepdm/internal/parallel"
	"freepdm/internal/plinda"
)

func main() {
	d, err := dataset.Benchmark("diabetes", 7)
	if err != nil {
		log.Fatal(err)
	}
	train := d.AllIndexes()
	cfg := nyuminer.Config{}

	// Failure-free reference run.
	grow := func(dd *dataset.Dataset, ii []int) *classify.Tree { return nyuminer.Grow(dd, ii, cfg) }
	want, _ := classify.CVPrune(d, train, 8, grow, rand.New(rand.NewSource(99)))

	// The same program on a PLinda server under constant failure.
	srv := plinda.NewServer()
	defer srv.Close()
	done := make(chan struct{})
	var got *classify.PrunedTree
	go func() {
		defer close(done)
		var err error
		got, err = parallel.NyuMinerCV(srv, d, train, 8, 3, cfg, rand.New(rand.NewSource(99)))
		if err != nil {
			log.Fatal(err)
		}
	}()

	// Owners keep reclaiming the workstations.
	killer := time.NewTicker(15 * time.Millisecond)
	defer killer.Stop()
	victims := []string{"nmcv-worker-0", "nmcv-master", "nmcv-worker-1", "nmcv-worker-2"}
	k := 0
loop:
	for {
		select {
		case <-done:
			break loop
		case <-killer.C:
			srv.Kill(victims[k%len(victims)]) //nolint:errcheck
			k++
		}
	}

	fmt.Println("process watch (figure 7.6):")
	for _, p := range srv.Processes() {
		fmt.Printf("  %-16s %-16s incarnation %d\n", p.Name, p.Status, p.Incarnation)
	}
	fmt.Printf("\nfailures injected: %d, recoveries performed: %d\n", srv.Kills(), srv.Respawns())
	fmt.Printf("transactions: %d committed, %d aborted by failures\n", srv.Commits(), srv.Aborts())

	if got.LeafCount != want.LeafCount || got.Resub != want.Resub {
		log.Fatalf("MISMATCH: failure run selected (%d leaves, %d errors), failure-free run (%d, %d)",
			got.LeafCount, got.Resub, want.LeafCount, want.Resub)
	}
	fmt.Printf("\nresult identical to the failure-free run: %d-leaf pruned tree, %d resubstitution errors\n",
		got.LeafCount, got.Resub)
	fmt.Printf("training accuracy %.1f%%\n", 100*got.Accuracy(d, train))
}

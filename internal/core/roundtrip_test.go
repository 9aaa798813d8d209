package core

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// pletTasks replays the task graph of a PLET run (PLETTasks) and
// returns how many tasks — seed bundles and spilled ones — a run with
// these workers makes at this budget. Budget 1 makes one per pattern.
func pletTasks(pr *toyProblem, workers, budget int) int {
	return len(PLETTasks(pr, workers, budget, 2))
}

// roundTripBackends are the stores the round-trip guards run on: a local
// Space, and one Client dialed to a served Space. A registry, when
// given, observes the Space, so the serving side counts the wire's bytes
// into it (net.rx_bytes, net.tx_bytes).
var roundTripBackends = map[string]func(*testing.T, *obs.Registry) tuplespace.TxnStore{
	"space": func(*testing.T, *obs.Registry) tuplespace.TxnStore { return tuplespace.New() },
	"client": func(t *testing.T, reg *obs.Registry) tuplespace.TxnStore {
		space := tuplespace.New()
		if reg != nil {
			space.Observe(reg, nil)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close(); space.Close() }) //nolint:errcheck
		go tuplespace.ServeTCP(ln, space)               //nolint:errcheck
		cl, err := tuplespace.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return cl
	},
}

// TestPLETRoundTripGuard is the clock-free guard on what a PLET run
// asks of its store, on a local Space and through a dialed Client: one
// transaction per task on each side plus the seed and the workers'
// poison exits, no Inp at all (nothing is drained), and nothing
// published but task tuples (the poison among them) and one control
// tuple per task — in particular no good tuple: good patterns ride the
// control tuple. A change that puts a separate report message or a
// polling loop back fails here, on any machine.
func TestPLETRoundTripGuard(t *testing.T) {
	base := newToyProblem(16, 400, 0.005, 82)
	seqRes, _ := SolveSequential(base)
	const workers = 2
	for _, budget := range []int{1, pletBudget} {
		tasks := pletTasks(base, workers, budget)
		for name, backend := range roundTripBackends {
			t.Run(fmt.Sprintf("budget=%d/%s", budget, name), func(t *testing.T) {
				withPLETBudget(t, budget)
				store := &CountingStore{TxnStore: backend(t, nil)}
				srv := plinda.NewServerOnStore(store)
				defer srv.Close()
				res, err := RunPLET(srv, base, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, seqRes, res, "sequential", "PLET")
				want := map[string]int{TagTask: tasks + workers, TagCtl: tasks}
				if got := store.Outs(); !reflect.DeepEqual(got, want) {
					t.Errorf("budget %d: the run published %v, want %v: %d tasks and %d poison, one ctl per task, nothing else",
						budget, got, want, tasks, workers)
				}
				if n := store.Inps.Load(); n != 0 {
					t.Errorf("budget %d: the run made %d Inp calls, want none", budget, n)
				}
				txns := int64(1 + 2*tasks + workers)
				if b, c := store.Begins.Load(), store.Commits.Load(); b != txns || c != txns {
					t.Errorf("budget %d: %d begins and %d commits, want %d of each (seed, a worker and a master transaction per task, %d poison exits)",
						budget, b, c, txns, workers)
				}
			})
		}
	}
}

// TestPLEDRoundTripGuard is the clock-free guard on what a PLED run asks
// of its store, on a local Space and through a dialed Client: one
// transaction per chunk on the workers' side and one per level on the
// master's, plus the seed and the workers' poison exits; no Inp and no
// Rd at all (nothing is polled, drained or read in place: the level's
// good set rides the task); and nothing published but one task tuple per
// chunk, the poison, and one result tuple per chunk. The dialed run logs
// the bytes its wire carried: the price of shipping every level's good
// set with every one of its chunks (DESIGN.md "PLED level grain").
func TestPLEDRoundTripGuard(t *testing.T) {
	base := newToyProblem(16, 400, 0.005, 82)
	seqRes, st := SolveSequential(base)
	const workers = 2
	levels, chunks := PLEDChunks(seqRes, workers)
	for name, backend := range roundTripBackends {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			store := &CountingStore{TxnStore: backend(t, reg)}
			srv := plinda.NewServerOnStore(store)
			defer srv.Close()
			res, err := RunPLED(srv, base, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, seqRes, res, "sequential", "PLED")
			want := map[string]int{TagTask: chunks + workers, TagResult: chunks}
			if got := store.Outs(); !reflect.DeepEqual(got, want) {
				t.Errorf("the run published %v, want %v: %d chunks and %d poison, one result per chunk, nothing else", got, want, chunks, workers)
			}
			if inps, rds := store.Inps.Load(), store.Rds.Load(); inps != 0 || rds != 0 {
				t.Errorf("the run made %d Inp and %d Rd calls, want none", inps, rds)
			}
			txns := int64(1 + chunks + levels + workers)
			if b, c := store.Begins.Load(), store.Commits.Load(); b != txns || c != txns {
				t.Errorf("%d begins and %d commits, want %d of each (seed, %d chunks, %d levels, %d poison exits)", b, c, txns, chunks, levels, workers)
			}
			if c := reg.Snapshot().Counters; name == "client" {
				t.Logf("%d evaluations, %d good, %d levels, %d chunks: the server received %d bytes and sent %d",
					st.Evaluated, st.Good, levels, chunks, c["net.rx_bytes"], c["net.tx_bytes"])
			}
		})
	}
}

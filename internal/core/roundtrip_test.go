package core

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"freepdm/internal/durable"
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
// Space, one Client dialed to a served Space, and a WAL-backed space. A
// registry, when given, observes the store, so the serving side counts
// the wire's bytes and frames into it (net.rx_bytes, net.tx_bytes,
// net.op.<op>) and the WAL its records (wal.appends).
var roundTripBackends = map[string]func(*testing.T, *obs.Registry) tuplespace.TxnStore{
	"space": func(*testing.T, *obs.Registry) tuplespace.TxnStore { return tuplespace.New() },
	"durable": func(t *testing.T, reg *obs.Registry) tuplespace.TxnStore {
		ds, err := durable.Open(t.TempDir(), nil, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reg != nil {
			ds.Observe(reg, nil)
		}
		return ds
	},
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
		go tuplespace.Serve(ln, space)                  //nolint:errcheck
		cl, err := tuplespace.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return cl
	},
}

// checkWireFrames holds the dialed run's frames to the two a
// transaction needs, read off the served space's registry: no txbegin
// frame, every request a take or a commit — a begin rides its
// transaction's first operation — and one transaction begun on the
// server per commit, commits as many as the run made.
func checkWireFrames(t *testing.T, reg *obs.Registry, commits int64) {
	t.Helper()
	s := reg.Snapshot()
	var requests int64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "net.op.") {
			requests += h.Count
		}
	}
	if n := s.Histograms["net.op.txbegin"].Count; n != 0 {
		t.Errorf("the client sent %d txbegin frames, want none", n)
	}
	takes := s.Histograms["net.op.in"].Count + s.Histograms["net.op.inp"].Count
	if c := s.Histograms["net.op.txcommit"].Count; c != commits || requests != takes+c {
		t.Errorf("the client sent %d requests: %d takes and %d commits of the run's %d, want takes + commits",
			requests, takes, c, commits)
	}
	if b := s.Counters["net.txn_begins"]; b != commits {
		t.Errorf("the server began %d transactions, want one per commit, %d", b, commits)
	}
}

// checkWALAppends holds a WAL-backed run to one record per commit,
// read off the WAL's registry: a transaction is one log append.
func checkWALAppends(t *testing.T, reg *obs.Registry, commits int64) {
	t.Helper()
	if n := reg.Snapshot().Counters["wal.appends"]; n != commits {
		t.Errorf("the WAL appended %d records, want one per commit, %d", n, commits)
	}
}

// TestPLETRoundTripGuard is the clock-free guard on what a PLET run
// asks of its store, on a local Space, through a dialed Client and on a
// WAL: one worker transaction per task, the master's seed and its one
// report-stream transaction, and the workers' poison exits; no Inp at
// all (nothing is drained), and nothing published but task tuples (the
// poison among them) and one control tuple per task — in particular no
// good tuple: good patterns ride the control tuple. On the wire a
// transaction is two frames (checkWireFrames), and on the WAL one
// record (checkWALAppends). A change that puts a separate report
// message, a master commit per report, a polling loop or a begin frame
// back fails here, on any machine.
func TestPLETRoundTripGuard(t *testing.T) {
	base := newToyProblem(16, 400, 0.005, 82)
	seqRes, _ := SolveSequential(base)
	const workers = 2
	for _, budget := range []int{1, pletBudget} {
		tasks := pletTasks(base, workers, budget)
		for name, backend := range roundTripBackends {
			t.Run(fmt.Sprintf("budget=%d/%s", budget, name), func(t *testing.T) {
				withPLETBudget(t, budget)
				reg := obs.NewRegistry()
				store := &CountingStore{TxnStore: backend(t, reg)}
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
				txns := int64(tasks + 2 + workers)
				if b, c := store.Begins.Load(), store.Commits.Load(); b != txns || c != txns {
					t.Errorf("budget %d: %d begins and %d commits, want %d of each (a worker transaction per task, the seed and the report stream, %d poison exits)",
						budget, b, c, txns, workers)
				}
				switch name {
				case "client":
					checkWireFrames(t, reg, txns)
				case "durable":
					checkWALAppends(t, reg, txns)
				}
			})
		}
	}
}

// TestPLEDRoundTripGuard is the clock-free guard on what a PLED run asks
// of its store, on a local Space, through a dialed Client and on a WAL: one
// transaction per chunk on the workers' side and one per level on the
// master's, plus the seed and the workers' poison exits; no Inp and no
// Rd at all (nothing is polled, drained or read in place: the level's
// good set rides the task); and nothing published but one task tuple per
// chunk, the poison, and one result tuple per chunk; on the wire, two
// frames a transaction (checkWireFrames), and on the WAL one record
// (checkWALAppends). The dialed run logs
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
			switch c := reg.Snapshot().Counters; name {
			case "client":
				checkWireFrames(t, reg, txns)
				t.Logf("%d evaluations, %d good, %d levels, %d chunks: the server received %d bytes and sent %d",
					st.Evaluated, st.Good, levels, chunks, c["net.rx_bytes"], c["net.tx_bytes"])
			case "durable":
				checkWALAppends(t, reg, txns)
			}
		})
	}
}

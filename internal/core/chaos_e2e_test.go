package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/faultnet"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// chaosHarness is the scripted-failure cluster every scenario runs
// against: three WAL-backed tuple-space servers, each fronted by a
// faultnet chaos proxy, and a router dialing the proxies. Scenario
// injectors flip proxy faults and arm fault points while PLET works.
type chaosHarness struct {
	nodes   []*clusterNode
	proxies []*faultnet.Proxy
	router  *cluster.Router
	prob    *countingProblem
}

// awaitEvals blocks until the workers are demonstrably mid-traversal,
// so injected faults land on a working cluster, not an idle one.
func (h *chaosHarness) awaitEvals(min int64) {
	deadline := time.Now().Add(10 * time.Second)
	for h.prob.evals.Load() < min && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosScenario is one scripted failure. inject arms its faults and
// returns a cleanup that disarms them and waits out any in-flight
// crash/heal goroutines (the runner defers it before asserting).
type chaosScenario struct {
	name   string
	seed   uint64
	inject func(t *testing.T, h *chaosHarness) (cleanup func())
}

// runChaosScenario runs PLET over the harness with the scenario's
// faults firing and asserts the global invariant the cluster claims:
// the run's results equal SolveSequential's — work may be duplicated
// by retries and recoveries, it is never lost.
func runChaosScenario(t *testing.T, g faultGrain, sc chaosScenario) {
	base, prob := g.problem(t, sc.seed)
	seqRes, _ := SolveSequential(base)
	h := &chaosHarness{prob: prob}

	defer faultnet.Reset() // a failed scenario must not leak chaos into the next

	addrs := make([]string, 3)
	for i := range addrs {
		n := startClusterNode(t, t.TempDir(), "127.0.0.1:0")
		defer n.crash()
		p, err := faultnet.NewProxy(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close() //nolint:errcheck
		h.nodes = append(h.nodes, n)
		h.proxies = append(h.proxies, p)
		addrs[i] = p.Addr()
	}

	router, err := cluster.New(addrs, cluster.Options{
		Dial: tuplespace.DialOptions{
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
		},
		RetryTimeout: 15 * time.Second,
		Backoff:      25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h.router = router

	cleanup := sc.inject(t, h)

	srv := plinda.NewServerOnStore(router)
	defer srv.Close()
	res, err := RunPLET(srv, h.prob, 4)
	cleanup()
	if err != nil {
		t.Fatalf("RunPLET under %s: %v", sc.name, err)
	}
	sameResults(t, seqRes, res, "sequential", "PLET-chaos-"+sc.name)
	if kills := srv.Kills(); kills > 0 {
		t.Logf("%s: run survived %d proc respawns", sc.name, kills)
	}
}

// TestChaosLocalStoreErrRate drives PLET through the chaos store
// middleware over a plain in-memory space — the `plinda -chaos` path,
// with no cluster in between. The static error rate kills incarnations
// (master included) at arbitrary operation boundaries, so re-spawned
// masters consume control tuples left over from earlier incarnations:
// the floating-subtree case PrunedTracker must park rather than walk
// into a missing parent (see TestPrunedTrackerFloatingSubtree).
//
// Under unbounded random faults the respawn budget may run out, so the
// invariant is either/or: the run completes with exactly
// SolveSequential's results, or it fails loudly. The two bugs this
// test pins down are the silent third ways: finishing with results
// missing (the floating-subtree walk), and hanging forever because the
// master's terminal failure left the workers blocked on a task tuple
// that would never come (Server.Stop exists for that).
//
// The rate is sized to the master's stream, because a re-spawned PLET
// master re-seeds the tree and every stale control tuple it has to read
// on the way lengthens the next incarnation's stream: a master has to
// live through ~70 store operations on the budget-1 tree (24 tasks;
// 0.985^70, one chance in three) and ~45 on the default grain's (14
// bundles; 0.985^45, one in two), so both grains run at one rate. Much
// above it the large run only ever exercises the fail-loudly arm, after
// half a minute of respawns; much below it a single incarnation dies
// and no master meets a stale control tuple. The coin is seeded, so
// which operations fail is fixed — the 24th first — and only who is
// running them varies.
func TestChaosLocalStoreErrRate(t *testing.T) { testChaosLocalStoreErrRate(t, grainDefault, 0.015) }

func testChaosLocalStoreErrRate(t *testing.T, g faultGrain, errRate float64) {
	base, prob := g.problem(t, 81)
	seqRes, _ := SolveSequential(base)

	store := faultnet.WrapStore(tuplespace.NewSpace(tuplespace.Options{}), faultnet.StoreOptions{
		ErrRate: errRate,
		Seed:    7,
	})
	srv := plinda.NewServerOnStore(store)
	defer srv.Close()

	res, err := RunPLET(srv, prob, 4)
	if srv.Respawns() == 0 {
		t.Error("the error rate never killed an incarnation: the run asserted nothing")
	}
	if err != nil {
		t.Logf("run failed loudly after %d respawns: %v", srv.Respawns(), err)
		return
	}
	t.Logf("run completed through %d respawns", srv.Respawns())
	sameResults(t, seqRes, res, "sequential", "PLET-chaos-local-store")
}

// TestChaosMasterRespawnStaleCtl kills the master deterministically in
// the middle of its control-tuple consumption. The re-spawned master
// starts a fresh tracker and re-seeds the top tasks, then consumes the
// previous incarnation's leftover control tuples in arbitrary order —
// so a deep node's completion can arrive before any expansion has
// registered the node: the exact floating-subtree input
// TestPrunedTrackerFloatingSubtree pins at the unit level. Pre-fix the
// run either terminated early with deep results undrained or spun
// forever in the prune walk; it must instead complete with exactly
// SolveSequential's results. The stale control tuples carry their
// tasks' good patterns a second time, next to the re-run tasks' fresh
// ones: the last incarnation must have taken more good keys than there
// are results, and reported each once.
func TestChaosMasterRespawnStaleCtl(t *testing.T) {
	testChaosMasterRespawnStaleCtl(t, grainDefault)
}

// staleCtlBudget1 is a wider, deeper tree than the budget-1 scenario
// suite's: floating needs a node expanded mid-stream whose parent's
// report died with the previous master incarnation, and the kill
// trigger needs a control stream longer than 25 tuples.
var staleCtlBudget1 = faultGrain{1, func(seed uint64) *toyProblem { return newToyProblem(10, 120, 0.06, seed) }, time.Millisecond}

// ctlWatch counts the good keys on the control tuples the running
// master incarnation has taken and committed, duplicates included. A
// transaction that took a control tuple is the master's; when it aborts
// that incarnation dies, and the next starts from nothing. It sits
// under the chaos store, whose injected commit failure reaches it as
// the abort that follows.
type ctlWatch struct {
	tuplespace.TxnStore
	goods atomic.Int64
}

func (w *ctlWatch) Begin() (tuplespace.Txn, error) {
	tx, err := w.TxnStore.Begin()
	if err != nil {
		return nil, err
	}
	return &ctlWatchTxn{Txn: tx, w: w}, nil
}

type ctlWatchTxn struct {
	tuplespace.Txn
	w      *ctlWatch
	master bool
	goods  int
}

func (tx *ctlWatchTxn) InTraced(ctx context.Context, tmpl ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	tu, org, err := tx.Txn.InTraced(ctx, tmpl...)
	if err == nil && tu[0] == TagCtl {
		tx.master = true
		tx.goods += len(tu[4].([]string))
	}
	return tu, org, err
}

func (tx *ctlWatchTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	err := tx.Txn.Commit(ctx, outs)
	if err == nil {
		tx.w.goods.Add(int64(tx.goods))
	}
	return err
}

func (tx *ctlWatchTxn) Abort() error {
	if tx.master {
		tx.w.goods.Store(0)
	}
	return tx.Txn.Abort()
}

func testChaosMasterRespawnStaleCtl(t *testing.T, g faultGrain) {
	defer faultnet.Reset()
	base, prob := g.problem(t, 82)
	seqRes, _ := SolveSequential(base)

	space := tuplespace.NewSpace(tuplespace.Options{})
	watch := &ctlWatch{TxnStore: space}
	store := faultnet.WrapStore(watch, faultnet.StoreOptions{})
	srv := plinda.NewServerOnStore(store)
	defer srv.Close()

	// What the first seeded task reports, for the kills to leave behind.
	const workers = 4
	tasks := PLETTasks(base, workers, g.budget, 2)
	stale := tasks[0].Ctl()
	if len(tasks[0].Goods) == 0 {
		t.Fatal("the first task reports no good pattern: a stale copy of its report would assert nothing")
	}
	// A run's control stream is one tuple per task: 25 at budget 1, and
	// half the stream where a run makes fewer than 50 tasks.
	period := int32(min(25, len(tasks)/2))
	if period < 2 {
		t.Fatalf("a run makes %d tasks: no kill can land mid-stream", len(tasks))
	}

	// Mid-run, the master's control-consumption transactions are the
	// only ones committing zero outs (a worker's task transaction
	// always publishes at least its control tuple; the poison exits
	// only happen after the control stream is spent). Failing every
	// period-th kills the master deep in the stream, over and over, each
	// time leaving the rest of that incarnation's control tuples stale
	// in the space — and, so that the incarnation that finishes the run
	// is sure to meet a repeated report that carries goods, two more
	// copies of the first task's, as a 2PC re-run would leave them.
	var ctl, fired atomic.Int32
	disarm := faultnet.Arm("faultnet.store.txn.commit.before", func(args ...any) error {
		if n, ok := args[0].(int); !ok || n != 0 {
			return nil
		}
		if ctl.Add(1)%period == 0 && fired.Load() < 8 {
			fired.Add(1)
			for range 2 {
				if err := space.Out(context.Background(), stale...); err != nil {
					t.Error(err)
				}
			}
			return faultnet.ErrInjected
		}
		return nil
	})
	defer disarm()

	res, err := RunPLET(srv, prob, workers)
	if err != nil {
		t.Fatalf("RunPLET with a repeatedly-killed master: %v", err)
	}
	if fired.Load() < 2 {
		t.Fatalf("master was killed %d times, want at least 2: the scenario asserted nothing", fired.Load())
	}
	t.Logf("master killed %d times mid-stream", fired.Load())
	sameResults(t, seqRes, res, "sequential", "PLET-master-respawn")
	eachResultOnce(t, res)
	if taken := watch.goods.Load(); taken <= int64(len(res)) {
		t.Errorf("the last master incarnation took %d good keys for %d results: no stale control tuple repeated a good pattern, the dedup was not exercised", taken, len(res))
	} else {
		t.Logf("the last master incarnation took %d good keys for %d results", taken, len(res))
	}
}

// TestChaosScenarios is the table-driven scenario suite the faultnet
// layer exists for: each entry scripts one failure mode the paper's
// "free" idle-workstation fleet produces, at a protocol point a sleep
// could never hit reliably.
func TestChaosScenarios(t *testing.T) { testChaosScenarios(t, grainDefault) }

// TestPLETBudget1Chaos re-runs the chaos suites at budget 1, the
// one-transaction-per-pattern protocol they were written against.
func TestPLETBudget1Chaos(t *testing.T) {
	t.Run("Scenarios", func(t *testing.T) { testChaosScenarios(t, grainBudget1) })
	t.Run("LocalStoreErrRate", func(t *testing.T) { testChaosLocalStoreErrRate(t, grainBudget1, 0.015) })
	t.Run("MasterRespawnStaleCtl", func(t *testing.T) { testChaosMasterRespawnStaleCtl(t, staleCtlBudget1) })
}

func testChaosScenarios(t *testing.T, g faultGrain) {
	scenarios := []chaosScenario{
		{
			// The coordinator drops off the network exactly in the 2PC
			// window where followers have committed and its own takes
			// are still tentative: the commit must fail, the takes must
			// roll back (conn-drop abort), and the work must be redone.
			name: "partition-coordinator-mid-commit",
			seed: 77,
			inject: func(t *testing.T, h *chaosHarness) func() {
				var hits atomic.Int32
				var wg sync.WaitGroup
				disarm := faultnet.Arm("cluster.commit.between-phases", func(args ...any) error {
					if h.prob.evals.Load() < 3 || hits.Add(1) > 2 {
						return nil
					}
					p := h.proxies[args[0].(int)]
					p.Partition()
					wg.Add(1)
					go func() {
						defer wg.Done()
						time.Sleep(150 * time.Millisecond)
						p.Heal()
					}()
					return nil
				})
				return func() {
					disarm()
					wg.Wait()
					for _, p := range h.proxies {
						p.Heal()
					}
					if hits.Load() == 0 {
						t.Error("scenario never partitioned a coordinator: the fault point did not fire mid-run")
					}
				}
			},
		},
		{
			// A follower crashes right after its phase-1 commit. Its
			// WAL holds the committed effects, so the restart restores
			// them; the coordinator's phase 2 proceeds and nothing is
			// lost — at worst the retried work duplicates side tuples.
			name: "kill-follower-after-phase-1",
			seed: 78,
			inject: func(t *testing.T, h *chaosHarness) func() {
				var once sync.Once
				var fired atomic.Bool
				var wg sync.WaitGroup
				disarm := faultnet.Arm("cluster.commit.between-phases", func(args ...any) error {
					if h.prob.evals.Load() < 3 {
						return nil
					}
					coord := args[0].(int)
					once.Do(func() {
						fired.Store(true)
						n := h.nodes[(coord+1)%len(h.nodes)]
						wg.Add(1)
						go func() {
							defer wg.Done()
							n.crash()
							time.Sleep(250 * time.Millisecond)
							n.restart()
						}()
					})
					return nil
				})
				return func() {
					disarm()
					wg.Wait()
					if !fired.Load() {
						t.Error("scenario never killed a follower: the fault point did not fire mid-run")
					}
				}
			},
		},
		{
			// One node turns slow (delayed in both directions, the
			// overloaded workstation): the run must ride it out, and
			// hedged cross-template reads must keep answering fast off
			// the healthy nodes while the slow node lags.
			name: "slow-node-hedging",
			seed: 79,
			inject: func(t *testing.T, h *chaosHarness) func() {
				const sentinel = 424242
				if err := h.router.Out(context.Background(), "chaos-sentinel", sentinel); err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var probes atomic.Int32
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.awaitEvals(3)
					h.proxies[2].Delay(faultnet.ServerToClient, 60*time.Millisecond)
					h.proxies[2].Delay(faultnet.ClientToServer, 20*time.Millisecond)
					for i := 0; i < 20; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
						// lint:ignore cross-shard chaos fixture: the hedged cross read is the subject under test
						_, err := h.router.Rd(ctx, tuplespace.FormalString, sentinel)
						cancel()
						if err != nil {
							t.Errorf("hedged Rd under a slow node: %v", err)
							return
						}
						probes.Add(1)
						select {
						case <-stop:
							return
						case <-time.After(10 * time.Millisecond):
						}
					}
				}()
				return func() {
					close(stop)
					wg.Wait()
					h.proxies[2].Heal()
					if probes.Load() == 0 {
						t.Error("no hedged probe completed while the node was slow")
					}
				}
			},
		},
		{
			// A node dies in the lost-ack window of its WAL group
			// commit: the batch is on disk, the acknowledgement never
			// arrives. Callers see a transient failure and retry; the
			// restart replays the WAL, so the retried work duplicates —
			// it must never lose.
			name: "wal-crash-during-group-commit",
			seed: 80,
			inject: func(t *testing.T, h *chaosHarness) func() {
				// Tag-based homing concentrates the task tuples on one
				// node, so the victim is whichever node's WAL commits a
				// batch first once work is in flight — not a fixed index.
				var once sync.Once
				var fired atomic.Bool
				var wg sync.WaitGroup
				disarm := faultnet.Arm("durable.wal.after-write", func(args ...any) error {
					if h.prob.evals.Load() < 3 {
						return nil
					}
					mine := false
					once.Do(func() {
						var victim *clusterNode
						for _, n := range h.nodes {
							if n.dir == args[0] {
								victim = n
								break
							}
						}
						if victim == nil {
							return
						}
						mine = true
						fired.Store(true)
						wg.Add(1)
						go func() {
							defer wg.Done()
							victim.crash()
							time.Sleep(250 * time.Millisecond)
							victim.restart()
						}()
					})
					if mine {
						// ErrClosed identity survives the wire, so the
						// router and PLinda treat this like the crash
						// it is: retry and respawn, not abort.
						return fmt.Errorf("injected: node crashed after the batch write: %w", tuplespace.ErrClosed)
					}
					return nil
				})
				return func() {
					disarm()
					wg.Wait()
					if !fired.Load() {
						t.Error("scenario never crashed a node in the lost-ack window: the fault point did not fire mid-run")
					}
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) { runChaosScenario(t, g, sc) })
	}
}

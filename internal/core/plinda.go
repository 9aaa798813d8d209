package core

import (
	"fmt"
	"slices"

	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// PLEDWorker returns the PLED worker body (figure 3.5 at the chunk
// grain): one transaction takes a chunk of task keys, evaluates every
// pattern's goodness, and commits one result tuple of parallel keys and
// scores. A killed worker's transaction aborts: the chunk reappears
// whole and at most one chunk of evaluations is redone. The body is
// exported so a remote workstation can run it standalone against a
// dialed session (cmd/plinda -worker); the problem must implement
// Decoder.
func PLEDWorker(pr Problem) plinda.ProcFunc {
	return func(p *plinda.Proc) error {
		dec, ok := pr.(Decoder)
		if !ok {
			return fmt.Errorf("core: problem %T does not implement Decoder", pr)
		}
		o := coreObserver.Load()
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In(TagTask, tuplespace.FormalStrings)
			if err != nil {
				return err
			}
			keys := tu[1].([]string)
			if len(keys) == 1 && keys[0] == PoisonKey {
				return p.Xcommit()
			}
			scores := make([]float64, len(keys))
			for i, key := range keys {
				pat, err := dec.Decode(key)
				if err != nil {
					return err
				}
				scores[i] = timeGoodness(o, pr, pat)
			}
			if err := p.Out(TagResult, keys, scores); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
		}
	}
}

// pletBudget is the PLET task grain: how many patterns one worker
// transaction evaluates before it commits. It is a node count, not a
// time, on purpose: with Children's deterministic order a task's report
// (goods, scores, spilled keys) is then a pure function of its key, so
// a task run twice — a cluster 2PC re-run, a re-seeding master —
// reports the same frontier and goods the duplicate-tolerant tracker
// and result list already saw. A wall-clock budget would let the re-run
// spill keys other than those whose ctl already landed, and the master
// would wait forever on task tuples that never committed. Budget 1 is
// the one-pattern-per-transaction protocol of figure 3.10. The default
// is measured (DESIGN.md "PLET task grain"); tests in this package set
// it.
var pletBudget = 512

// expandTask explores the subtree under task depth-first until budget
// patterns are evaluated, returning the good patterns found and the
// keys of the unexplored DFS stack.
func expandTask(o *coreObs, pr Problem, task Pattern, budget int) (goods []string, scores []float64, spilled []string) {
	stack := []Pattern{task}
	for n := 0; n < budget && len(stack) > 0; n++ {
		pat := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		score := timeGoodness(o, pr, pat)
		if pr.Good(pat, score) {
			goods, scores = append(goods, pat.Key()), append(scores, score)
			stack = append(stack, pr.Children(pat)...)
		}
	}
	for _, pat := range stack {
		spilled = append(spilled, pat.Key())
	}
	return goods, scores, spilled
}

// PLETWorker returns the PLET worker body (figure 3.10 at the task
// grain of section 4.3): one transaction takes a task, expands its
// subtree locally under pletBudget, and commits the batch — the
// unexplored frontier as task tuples and one control tuple that reports
// the frontier as the task's child list (or a prune when nothing is
// left), which is all the master's termination detection needs to know,
// and carries the batch's good patterns on the same message. A killed
// worker's transaction aborts: its task tuple reappears and at most one
// budget of evaluations is redone. Exported for the same remote-worker
// deployment as PLEDWorker.
func PLETWorker(pr Problem) plinda.ProcFunc {
	budget := pletBudget
	return func(p *plinda.Proc) error {
		dec, ok := pr.(Decoder)
		if !ok {
			return fmt.Errorf("core: problem %T does not implement Decoder", pr)
		}
		o := coreObserver.Load()
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In(TagTask, tuplespace.FormalString)
			if err != nil {
				return err
			}
			key := tu[1].(string)
			if key == PoisonKey {
				return p.Xcommit()
			}
			pat, err := dec.Decode(key)
			if err != nil {
				return err
			}
			goods, scores, spilled := expandTask(o, pr, pat, budget)
			if err := p.OutN(taskTuples(spilled)); err != nil {
				return err
			}
			kind := CtlExpanded
			if len(spilled) == 0 {
				kind = CtlPruned
			}
			if err := p.Out(TagCtl, kind, key, spilled, goods, scores); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(len(spilled)))
			}
		}
	}
}

// pledCont is the PLED master's continuation: the log of result events
// it has applied, as parallel key and score slices — one event per key,
// whatever result tuples the keys arrived in. Everything else the
// master knows (which patterns are good, which tasks were sent) is a
// deterministic function of that sequence, so the sequence IS the
// continuation. It is committed as three wire-native tuple fields passed
// by slice header — Xcommit(keys, scores, poisoned) — so a commit costs
// the same at any log length. The log is append-only: a transaction
// appends all its events past the committed prefix, which the process
// table aliases and Xrecover and Checkpoint read and which is never
// written again.
type pledCont struct {
	keys     []string
	scores   []float64
	poisoned bool
}

func (c *pledCont) commit(p *plinda.Proc) error {
	return p.Xcommit(c.keys, c.scores, c.poisoned)
}

func decodePLEDCont(t tuplespace.Tuple, c *pledCont) error {
	if len(t) != 3 {
		return fmt.Errorf("core: malformed master continuation (%d fields)", len(t))
	}
	keys, kok := t[0].([]string)
	scores, sok := t[1].([]float64)
	poisoned, pok := t[2].(bool)
	if !kok || !sok || !pok || len(keys) != len(scores) {
		return fmt.Errorf("core: malformed master continuation (%T of %d, %T of %d, %T)",
			t[0], len(keys), t[1], len(scores), t[2])
	}
	*c = pledCont{keys, scores, poisoned}
	return nil
}

// pledMaster is the E-dag scheduling state of figure 3.4, factored so
// it can be rebuilt by replaying the committed event sequence after a
// master failure. seed and apply append the newly queued task keys to
// newKeys; the live master outs them inside the same transaction that
// takes the results and commits the extended event log, while a
// replaying master discards them (the tasks are already in the space,
// or their results already consumed).
type pledMaster struct {
	pr  Problem
	dec Decoder

	// Every pattern sent or classified, by key. Absent means not yet
	// releasable: unseen, or deferred in pendingBy.
	nodes map[string]pledNode
	// Children whose subpattern goodness is not yet known, indexed
	// by the subpattern keys they wait on.
	pendingBy  map[string][]*pledDeferred
	waiting    []string // consider's scratch
	sent, done int
	results    []Result
}

type pledNode struct {
	state pledState
	pat   Pattern // as queued, so its result needs no Decode
}

type pledState uint8

const (
	pledQueued pledState = iota + 1
	pledGood
	pledBad
)

type pledDeferred struct {
	pat     Pattern
	key     string
	waiting int // distinct subpattern keys not yet known good
}

func newPLEDMaster(pr Problem, dec Decoder) *pledMaster {
	return &pledMaster{
		pr:        pr,
		dec:       dec,
		nodes:     map[string]pledNode{pr.Root().Key(): {state: pledGood}},
		pendingBy: map[string][]*pledDeferred{},
	}
}

// send marks a pattern queued and appends its key for dispatch.
func (m *pledMaster) send(pat Pattern, key string, newKeys []string) []string {
	if _, known := m.nodes[key]; known {
		return newKeys
	}
	m.nodes[key] = pledNode{pledQueued, pat}
	m.sent++
	return append(newKeys, key)
}

// consider queues a pattern whose subpatterns are all known good,
// defers it when some are still unknown, and drops it when any is bad
// (the apriori prune of theorem 2).
func (m *pledMaster) consider(pat Pattern, newKeys []string) []string {
	waiting := m.waiting[:0]
	for _, s := range m.pr.Subpatterns(pat) {
		k := s.Key()
		switch m.nodes[k].state {
		case pledBad:
			return newKeys // some subpattern is not good: prune
		case pledGood:
		default:
			if !slices.Contains(waiting, k) {
				waiting = append(waiting, k)
			}
		}
	}
	m.waiting = waiting
	if len(waiting) == 0 {
		return m.send(pat, pat.Key(), newKeys)
	}
	d := &pledDeferred{pat, pat.Key(), len(waiting)}
	for _, k := range waiting {
		m.pendingBy[k] = append(m.pendingBy[k], d)
	}
	return newKeys
}

func (m *pledMaster) childPatterns(pat Pattern, newKeys []string) []string {
	for _, c := range m.pr.Children(pat) {
		newKeys = m.consider(c, newKeys)
	}
	return newKeys
}

// seed queues the root's children; the first committed transaction.
func (m *pledMaster) seed() []string {
	return m.childPatterns(m.pr.Root(), nil)
}

// apply advances the scheduling state by one result event, appending
// the task keys it newly queued to newKeys, and reports whether the
// event was fresh. A duplicate event — a second result for a key already
// classified good or bad, which the cluster's two-phase commit produces
// a chunk at a time when a worker crashes between the follower and
// coordinator phases — leaves the state (including the done counter)
// untouched: counting it would let done outrun sent and terminate the
// master with takes missing.
func (m *pledMaster) apply(key string, score float64, newKeys []string) ([]string, bool, error) {
	n := m.nodes[key]
	if n.state == pledGood || n.state == pledBad {
		return newKeys, false, nil
	}
	if n.pat == nil { // a key this master never queued
		pat, err := m.dec.Decode(key)
		if err != nil {
			return newKeys, false, err
		}
		n.pat = pat
	}
	m.done++
	if !m.pr.Good(n.pat, score) {
		m.nodes[key] = pledNode{pledBad, n.pat}
	} else {
		m.nodes[key] = pledNode{pledGood, n.pat}
		m.results = append(m.results, Result{n.pat, score})
		newKeys = m.childPatterns(n.pat, newKeys)
		// Release deferred children that were waiting on this key.
		for _, d := range m.pendingBy[key] {
			if d.waiting--; d.waiting == 0 {
				newKeys = m.send(d.pat, d.key, newKeys)
			}
		}
	}
	// Its waiters are released by now, or dead with a bad subpattern.
	delete(m.pendingBy, key)
	return newKeys, true, nil
}

func taskTuples(keys []string) []tuplespace.Tuple {
	ts := make([]tuplespace.Tuple, len(keys))
	for i, k := range keys {
		ts[i] = tuplespace.Tuple{TagTask, k}
	}
	return ts
}

// chunkTasks splits keys into at most n even PLED task tuples.
func chunkTasks(keys []string, n int) []tuplespace.Tuple {
	n = min(n, len(keys))
	ts := make([]tuplespace.Tuple, n)
	for i := range ts {
		ts[i] = tuplespace.Tuple{TagTask, keys[i*len(keys)/n : (i+1)*len(keys)/n]}
	}
	return ts
}

// runProgram spawns a program's workers and master and waits for them.
// The workers' exit depends on the master: only its poison pills
// release their blocking In("task"). If the master fails permanently
// (respawn budget exhausted, or a program bug), no poison will ever be
// published, so its terminal error must stop the workers too —
// otherwise the wait would hang forever instead of reporting the
// failure.
func runProgram(srv *plinda.Server, program string, workers int, worker, master plinda.ProcFunc) error {
	names := make([]string, workers)
	for i := range names {
		names[i] = fmt.Sprintf("%s-worker-%d", program, i)
		if err := srv.Spawn(names[i], worker); err != nil {
			return err
		}
	}
	if err := srv.Spawn(program+"-master", master); err != nil {
		return err
	}
	if err := srv.Wait(program + "-master"); err != nil {
		for _, name := range names {
			srv.Stop(name) //nolint:errcheck
		}
		for _, name := range names {
			srv.Wait(name) //nolint:errcheck
		}
		return fmt.Errorf("process %s-master: %w", program, err)
	}
	return srv.WaitAll()
}

// RunPLED executes a data mining application as a Persistent Linda
// parallel E-dag traversal program (PLED): the master of figure 3.4
// and workers of figure 3.5, at the chunk grain. The problem must
// implement Decoder so pattern keys can cross the tuple space. The
// returned results equal SolveSequential's (theorem 2). Work tuples are
// ("task", keys); result tuples are ("result", keys, scores).
//
// A master transaction takes every result tuple that is waiting,
// applies their keys one by one, and outs the patterns they released
// as 2·workers even chunks: a second chunk for every worker while the
// master handles the first one back, and a commit on either side pays
// for a chunk of evaluations. The divisor is a constant because the
// measured sweep is flat (DESIGN.md "PLED task grain").
//
// The master is restart-safe: each transaction commits the result
// takes, the task outs, and a continuation carrying the event log (by
// slice header, see pledCont) atomically, so a killed master
// incarnation replays the log and resumes exactly where the last
// commit left off — no task is re-sent and no result double-counted.
func RunPLED(srv *plinda.Server, pr Problem, workers int) ([]Result, error) {
	dec, ok := pr.(Decoder)
	if !ok {
		return nil, fmt.Errorf("core: problem %T does not implement Decoder", pr)
	}
	if workers < 1 {
		workers = 1
	}

	o := coreObserver.Load()
	var results []Result
	master := func(p *plinda.Proc) error {
		m := newPLEDMaster(pr, dec)
		var cont pledCont
		if t, ok := p.Xrecover(); ok {
			// Silent replay: rebuild the scheduling state without
			// re-outing tasks or double-counting metrics.
			if err := decodePLEDCont(t, &cont); err != nil {
				return err
			}
			m.seed()
			for i, key := range cont.keys {
				if _, _, err := m.apply(key, cont.scores[i], nil); err != nil {
					return err
				}
			}
		} else {
			if err := p.Xstart(); err != nil {
				return err
			}
			tasks := chunkTasks(m.seed(), 2*workers)
			if err := p.OutN(tasks); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(len(tasks)))
			}
			if err := cont.commit(p); err != nil {
				return err
			}
		}

		for m.done < m.sent {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In(TagResult, tuplespace.FormalStrings, tuplespace.FormalFloats)
			if err != nil {
				return err
			}
			logged, goods := len(cont.keys), len(m.results)
			var newKeys []string
			for more := true; more; {
				keys, scores := tu[1].([]string), tu[2].([]float64)
				if len(keys) != len(scores) {
					return fmt.Errorf("core: malformed result tuple (%d keys, %d scores)", len(keys), len(scores))
				}
				for i, key := range keys {
					// A duplicate result is consumed (the commit below
					// finalizes the take) but logged and counted nowhere.
					var fresh bool
					if newKeys, fresh, err = m.apply(key, scores[i], newKeys); err != nil {
						return err
					}
					if fresh {
						cont.keys, cont.scores = append(cont.keys, key), append(cont.scores, scores[i])
					}
				}
				if tu, more, err = p.Inp(TagResult, tuplespace.FormalStrings, tuplespace.FormalFloats); err != nil {
					return err
				}
			}
			tasks := chunkTasks(newKeys, 2*workers)
			if err := p.OutN(tasks); err != nil {
				return err
			}
			if o != nil {
				o.results.Add(int64(len(cont.keys) - logged))
				o.tasks.Add(int64(len(tasks)))
				o.good.Add(int64(len(m.results) - goods))
			}
			if err := cont.commit(p); err != nil {
				return err
			}
		}
		if !cont.poisoned {
			// Poison tasks terminate the workers.
			if err := p.Xstart(); err != nil {
				return err
			}
			poison := make([]tuplespace.Tuple, workers)
			for i := range poison {
				poison[i] = tuplespace.Tuple{TagTask, []string{PoisonKey}}
			}
			if err := p.OutN(poison); err != nil {
				return err
			}
			if o != nil && o.tracer != nil {
				o.tracer.Record("master", "poison", 0, "program", "pled", "workers", workers, "tasks", m.sent, "results", m.done)
			}
			cont.poisoned = true
			if err := cont.commit(p); err != nil {
				return err
			}
		}
		results = m.results
		return nil
	}

	if err := runProgram(srv, "pled", workers, PLEDWorker(pr), master); err != nil {
		return nil, err
	}
	SortResults(results)
	return results, nil
}

// RunPLET executes a data mining application as a Persistent Linda
// parallel E-tree traversal program (PLET): workers expand good nodes
// in place (figure 3.10, load-balanced variant of figure 4.7) and the
// master of figure 3.9 performs termination detection by pruned-
// subtree propagation. A worker transaction covers a budgeted subtree
// (see PLETWorker), so the tracker's nodes are task keys and a task's
// children are the frontier it spilled. Good patterns ride the control
// tuple the tracker takes anyway: the master collects them as it goes,
// and the transaction that takes the last one publishes the poison.
func RunPLET(srv *plinda.Server, pr Problem, workers int) ([]Result, error) {
	dec, ok := pr.(Decoder)
	if !ok {
		return nil, fmt.Errorf("core: problem %T does not implement Decoder", pr)
	}
	if workers < 1 {
		workers = 1
	}

	o := coreObserver.Load()
	var results []Result
	master := func(p *plinda.Proc) error {
		results = nil // a re-spawned master re-seeds the tree and rebuilds the result list
		rootKey := pr.Root().Key()
		track := NewPrunedTracker(rootKey)
		top := pr.Children(pr.Root())
		// poisonIfDone terminates the workers inside the transaction that
		// completed the tree, atomically with its control-tuple take.
		poisonIfDone := func() error {
			if !track.Done() {
				return nil
			}
			poison := make([]tuplespace.Tuple, workers)
			for i := range poison {
				poison[i] = tuplespace.Tuple{TagTask, PoisonKey}
			}
			if o != nil && o.tracer != nil {
				o.tracer.Record("master", "poison", 0, "program", "plet", "workers", workers, "results", len(results))
			}
			return p.OutN(poison)
		}

		if err := p.Xstart(); err != nil {
			return err
		}
		keys := make([]string, len(top))
		for i, c := range top {
			keys[i] = c.Key()
		}
		if o != nil {
			o.tasks.Add(int64(len(top)))
			if o.tracer != nil {
				o.tracer.Record("master", "seed", 0, "program", "plet", "tasks", len(top))
			}
		}
		if err := p.OutN(taskTuples(keys)); err != nil {
			return err
		}
		track.Expanded(rootKey, keys)
		if err := poisonIfDone(); err != nil {
			return err
		}
		if err := p.Xcommit(); err != nil {
			return err
		}

		// A good key can arrive twice: the cluster's two-phase commit
		// re-runs a worker whose report had already landed on a follower
		// node, and a re-spawned master reads the previous incarnation's
		// stale control tuples next to the re-run tasks' fresh ones. A
		// task's report is a pure function of its key, so the first
		// report wins and the result set still equals SolveSequential's.
		seen := make(map[string]bool)
		for !track.Done() {
			if err := p.Xstart(); err != nil {
				return err
			}
			// Every task produces exactly one control tuple: an
			// expansion listing its children, or a prune.
			tu, err := p.In(TagCtl, tuplespace.FormalString, tuplespace.FormalString,
				tuplespace.FormalStrings, tuplespace.FormalStrings, tuplespace.FormalFloats)
			if err != nil {
				return err
			}
			kind, key := tu[1].(string), tu[2].(string)
			goods, scores := tu[4].([]string), tu[5].([]float64)
			if len(goods) != len(scores) {
				return fmt.Errorf("core: malformed control tuple (%d good keys, %d scores)", len(goods), len(scores))
			}
			had := len(results)
			for i, g := range goods {
				if seen[g] {
					continue
				}
				seen[g] = true
				pat, err := dec.Decode(g)
				if err != nil {
					return err
				}
				results = append(results, Result{pat, scores[i]})
			}
			if kind == CtlExpanded {
				track.Expanded(key, tu[3].([]string))
			} else {
				track.Pruned(key)
			}
			if err := poisonIfDone(); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
			if o != nil {
				o.good.Add(int64(len(results) - had))
				o.results.Add(int64(len(results) - had))
			}
		}
		return nil
	}

	if err := runProgram(srv, "plet", workers, PLETWorker(pr), master); err != nil {
		return nil, err
	}
	SortResults(results)
	return results, nil
}

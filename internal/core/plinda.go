package core

import (
	"fmt"
	"time"

	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// expandChunk is the PLED kernel, the level-wise twin of expandTask: it
// generates the children of its parents — a chunk of the good set of
// level — keeps a child only if every immediate subpattern is in that
// good set (the E-dag prune of theorem 2), evaluates the survivors and
// returns the good ones, in Children's order. The report is a pure
// function of the task tuple's fields, so a task run twice — a cluster
// 2PC re-run, a killed worker — reports exactly what its first run did
// and the master may drop whichever copy comes second. The level-0 task
// carries the root's key, which no Decoder need accept: it stands for
// pr.Root().
func expandChunk(o *coreObs, pr Problem, dec Decoder, level int, parents, good []string) (goods []string, scores []float64, err error) {
	set := make(map[string]bool, len(good))
	for _, k := range good {
		set[k] = true
	}
	for _, key := range parents {
		pat := pr.Root()
		if level > 0 {
			if pat, err = dec.Decode(key); err != nil {
				return nil, nil, err
			}
		}
		for _, c := range pr.Children(pat) {
			if !allSubpatternsGood(pr, c, set) {
				continue
			}
			if score := timeGoodness(o, pr, c); pr.Good(c, score) {
				goods, scores = append(goods, c.Key()), append(scores, score)
			}
		}
	}
	return goods, scores, nil
}

// PLEDWorker returns the PLED worker body (figure 3.5 at the level
// grain): one transaction takes a task — a chunk of a level's good
// patterns and that level's whole good set — runs expandChunk on it and
// commits one result tuple with the good children and their scores; bad
// patterns never travel. A killed worker's transaction aborts: the task
// reappears whole and at most one chunk of evaluations is redone. The
// body is exported so a remote workstation can run it standalone against
// a dialed session; the problem must implement Decoder.
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
			tu, err := p.In(TagTask, tuplespace.FormalInt, tuplespace.FormalInt, tuplespace.FormalStrings, tuplespace.FormalStrings)
			if err != nil {
				return err
			}
			level, chunk, parents := tu[1].(int), tu[2].(int), tu[3].([]string)
			if len(parents) == 1 && parents[0] == PoisonKey {
				return p.Xcommit()
			}
			goods, scores, err := expandChunk(o, pr, dec, level, parents, tu[4].([]string))
			if err != nil {
				return err
			}
			if err := p.Out(TagResult, level, chunk, goods, scores); err != nil {
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
// (goods, scores, spilled bundles) is then a pure function of its tuple,
// so a task run twice — a cluster 2PC re-run, a re-seeding master —
// reports the same frontier and goods the duplicate-tolerant tracker
// and result list already saw. A wall-clock budget would let the re-run
// spill keys other than those whose ctl already landed, and the master
// would wait forever on task tuples that never committed. Budget 1 is
// the one-pattern-per-transaction protocol of figure 3.10. The default
// is measured (DESIGN.md "PLET task grain"); tests in this package set
// it.
var pletBudget = 512

// expandTask explores the subtrees under a DFS stack (its top last)
// depth-first until budget patterns are evaluated, returning the good
// patterns found and the keys of the unexplored stack, its top first.
func expandTask(o *coreObs, pr Problem, stack []Pattern, budget int) (goods []string, scores []float64, spilled []string) {
	for n := 0; n < budget && len(stack) > 0; n++ {
		pat := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		score := timeGoodness(o, pr, pat)
		if pr.Good(pat, score) {
			goods, scores = append(goods, pat.Key()), append(scores, score)
			stack = append(stack, pr.Children(pat)...)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		spilled = append(spilled, stack[i].Key())
	}
	return goods, scores, spilled
}

// PLETWorker returns the PLET worker body (figure 3.10 at the task
// grain of section 4.3): one transaction takes a task — a bundle of
// frontier patterns — expands their subtrees locally under pletBudget,
// and commits the batch: the unexplored frontier dealt into two bundles
// (two, so that a subtree larger than the budget keeps splitting in half
// and a second worker can always join it) and one control tuple that
// reports their first keys as the task's child list (or a prune when
// nothing is left), which is all the master's termination detection
// needs, and carries the batch's good patterns. A killed worker's
// transaction aborts: its task tuple reappears and at most one budget of
// evaluations is redone. Exported for the same remote-worker deployment
// as PLEDWorker.
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
			tu, err := p.In(TagTask, tuplespace.FormalStrings)
			if err != nil {
				return err
			}
			keys := tu[1].([]string)
			if len(keys) == 0 {
				return fmt.Errorf("core: malformed task tuple (empty bundle)")
			}
			if keys[0] == PoisonKey {
				return p.Xcommit()
			}
			stack := make([]Pattern, len(keys))
			for i, key := range keys { // the first key on top
				if stack[len(keys)-1-i], err = dec.Decode(key); err != nil {
					return err
				}
			}
			goods, scores, spilled := expandTask(o, pr, stack, budget)
			tasks, ids := taskTuples(deal(spilled, 2))
			if err := p.OutN(tasks); err != nil {
				return err
			}
			kind := CtlExpanded
			if len(ids) == 0 {
				kind = CtlPruned
			}
			if err := p.Out(TagCtl, kind, keys[0], ids, goods, scores); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(len(tasks)))
			}
		}
	}
}

// pledCont is the PLED master's continuation: the good patterns found
// so far as parallel key and score slices, in level order, and where the
// traversal stands — chunks task tuples of level are out, each carrying
// keys[levelStart:] as the level's good set (the root alone at level 0),
// or the poison is. That is all a master needs to know, so a respawned
// incarnation reads the six fields and waits for the same reports: no
// replay, no Problem call. It is committed as wire-native tuple fields
// passed by slice header, so a commit costs the same at any log length.
// The log is append-only: a transaction appends past the committed
// prefix, which the process table and the task tuples alias, Xrecover,
// Checkpoint and the workers read, and nobody writes again.
type pledCont struct {
	keys       []string
	scores     []float64
	levelStart int
	level      int
	chunks     int
	poisoned   bool
}

func (c *pledCont) commit(p *plinda.Proc) error {
	return p.Xcommit(c.keys, c.scores, c.levelStart, c.level, c.chunks, c.poisoned)
}

func decodePLEDCont(t tuplespace.Tuple, c *pledCont) error {
	if len(t) != 6 {
		return fmt.Errorf("core: malformed master continuation (%d fields)", len(t))
	}
	keys, kok := t[0].([]string)
	scores, sok := t[1].([]float64)
	levelStart, lsok := t[2].(int)
	level, lok := t[3].(int)
	chunks, cok := t[4].(int)
	poisoned, pok := t[5].(bool)
	if !kok || !sok || !lsok || !lok || !cok || !pok ||
		len(keys) != len(scores) || levelStart < 0 || levelStart > len(keys) || level < 0 || chunks < 0 {
		return fmt.Errorf("core: malformed master continuation (%T of %d, %T of %d, level start %v, level %v, chunks %v, poisoned %v)",
			t[0], len(keys), t[1], len(scores), t[2], t[3], t[4], t[5])
	}
	*c = pledCont{keys, scores, levelStart, level, chunks, poisoned}
	return nil
}

// deal splits keys round-robin into min(len, n) bundles, key i into
// bundle i mod n: neighbours in a prefix-ordered list have subtrees of
// like size. It serves the PLED level, the PLET seed and the PLET spill.
func deal(keys []string, n int) [][]string {
	n = min(len(keys), n)
	bundles := make([][]string, n)
	for i := range bundles {
		bundles[i] = make([]string, 0, (len(keys)-i+n-1)/n)
		for j := i; j < len(keys); j += n {
			bundles[i] = append(bundles[i], keys[j])
		}
	}
	return bundles
}

// taskTuples makes a PLET task tuple of each bundle and returns their
// identities with them: a bundle's first key, which names no other
// bundle because its own task evaluates it and Children is unique-parent.
func taskTuples(bundles [][]string) (tasks []tuplespace.Tuple, ids []string) {
	for _, b := range bundles {
		tasks, ids = append(tasks, tuplespace.Tuple{TagTask, b}), append(ids, b[0])
	}
	return tasks, ids
}

// levelTasks deals a level's good set into n = min(len, 2·workers) PLED
// task tuples, each carrying the whole set next to its share: a second
// chunk for every worker while the master unions the first ones back,
// and parent i in chunk i mod n because the children of a prefix-ordered
// level thin out towards its end (Apriori). The multiplier is a
// constant: 2 is the one value the measured sweep has near the best on
// both PLED workloads (DESIGN.md "PLED level grain").
func levelTasks(level int, good []string, workers int) []tuplespace.Tuple {
	ts := make([]tuplespace.Tuple, 0, 2*workers)
	for i, parents := range deal(good, 2*workers) {
		ts = append(ts, tuplespace.Tuple{TagTask, level, i, parents, good})
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
// parallel E-dag traversal program (PLED): the master of figure 3.4 and
// workers of figure 3.5 as level-wise count distribution. The problem
// must implement Decoder so pattern keys can cross the tuple space. The
// returned results equal SolveSequential's (theorem 2). Work tuples are
// ("task", level, chunk, parents, good); result tuples are
// ("result", level, chunk, goods, scores).
//
// The workers generate, prune and evaluate the candidates (expandChunk);
// the master only unions. One master transaction per level takes result
// tuples until every chunk of the level has reported, appends their good
// patterns to the log in chunk order, and outs the next level's tasks
// (levelTasks), or the poison when the level found nothing. A report of
// another level or of a chunk already in — a cluster 2PC re-run — is
// consumed and counted nowhere: a report is a pure function of its task,
// so the copy says nothing new.
//
// The master is restart-safe: each transaction commits the result takes,
// the task outs and the continuation (pledCont) atomically, so a killed
// incarnation's takes reappear and the next one reads where the last
// commit left off and waits for the same reports.
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
		var cont pledCont
		if t, ok := p.Xrecover(); ok {
			if err := decodePLEDCont(t, &cont); err != nil {
				return err
			}
		} else {
			if err := p.Xstart(); err != nil {
				return err
			}
			// Level 0: the root is its own good set, one chunk of one.
			tasks := levelTasks(0, []string{pr.Root().Key()}, workers)
			if err := p.OutN(tasks); err != nil {
				return err
			}
			cont.chunks = len(tasks)
			if err := cont.commit(p); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(cont.chunks))
			}
		}

		for !cont.poisoned {
			var start time.Time
			if o != nil {
				start = time.Now()
			}
			if err := p.Xstart(); err != nil {
				return err
			}
			reports := make([]tuplespace.Tuple, cont.chunks)
			for n := 0; n < len(reports); {
				tu, err := p.In(TagResult, tuplespace.FormalInt, tuplespace.FormalInt, tuplespace.FormalStrings, tuplespace.FormalFloats)
				if err != nil {
					return err
				}
				level, chunk, goods, scores := tu[1].(int), tu[2].(int), tu[3].([]string), tu[4].([]float64)
				if len(goods) != len(scores) {
					return fmt.Errorf("core: malformed result tuple (level %d chunk %d: %d good keys, %d scores)", level, chunk, len(goods), len(scores))
				}
				if level != cont.level || chunk < 0 || chunk >= len(reports) || reports[chunk] != nil {
					continue // not this level's, or its second copy
				}
				reports[chunk] = tu
				n++
			}
			cont.levelStart = len(cont.keys)
			for _, tu := range reports {
				cont.keys = append(cont.keys, tu[3].([]string)...)
				cont.scores = append(cont.scores, tu[4].([]float64)...)
			}
			cont.level++
			good := cont.keys[cont.levelStart:]
			tasks := levelTasks(cont.level, good, workers)
			cont.chunks = len(tasks)
			if len(good) == 0 {
				// Poison tasks terminate the workers.
				cont.poisoned = true
				tasks = make([]tuplespace.Tuple, workers)
				for i := range tasks {
					tasks[i] = tuplespace.Tuple{TagTask, cont.level, i, []string{PoisonKey}, good}
				}
			}
			if err := p.OutN(tasks); err != nil {
				return err
			}
			if err := cont.commit(p); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(cont.chunks))
				o.results.Add(int64(len(good)))
				o.good.Add(int64(len(good)))
				if o.tracer != nil {
					o.tracer.Record("master", "level", time.Since(start), "depth", cont.level, "chunks", len(reports), "good", len(good))
					if cont.poisoned {
						o.tracer.Record("master", "poison", 0, "program", "pled", "workers", workers, "results", len(cont.keys))
					}
				}
			}
		}

		results = make([]Result, len(cont.keys))
		for i, key := range cont.keys {
			pat, err := dec.Decode(key)
			if err != nil {
				return err
			}
			results[i] = Result{pat, cont.scores[i]}
		}
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
// subtree propagation. A task is a bundle of frontier patterns: the
// master deals the root's children into 2·workers of them (levelTasks'
// constant), a worker transaction explores one under a node budget (see
// PLETWorker), so the tracker's nodes are tasks, named by their first
// key, and a task's children are the bundles it spilled. Good patterns
// ride the control tuple the tracker takes anyway: the master collects
// them as it goes, and the transaction that takes the last one publishes
// the poison.
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
				poison[i] = tuplespace.Tuple{TagTask, []string{PoisonKey}}
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
		tasks, ids := taskTuples(deal(keys, 2*workers))
		if o != nil {
			o.tasks.Add(int64(len(tasks)))
			if o.tracer != nil {
				o.tracer.Record("master", "seed", 0, "program", "plet", "tasks", len(tasks))
			}
		}
		if err := p.OutN(tasks); err != nil {
			return err
		}
		track.Expanded(rootKey, ids)
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
		// task's report is a pure function of its tuple, so the first
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

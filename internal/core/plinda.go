package core

import (
	"fmt"
	"slices"
	"sort"

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
			if score := evaluate(o, pr, c); pr.Good(c, score) {
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
// so a task run twice — a cluster 2PC re-run —
// reports the same frontier and goods the master's balance and result
// list already saw. A wall-clock budget would let the re-run
// spill keys other than those whose ctl already landed, and the master
// would wait forever on task tuples that never committed. Budget 1 is
// the one-pattern-per-transaction protocol of figure 3.10. The default
// is measured (DESIGN.md "PLET task grain"); tests in this package set
// it.
var pletBudget = 512

// expandTask explores the subtrees under a DFS stack (its top last)
// depth-first until budget patterns are evaluated, returning the good
// patterns found, in result order (compareResults), and the keys of the
// unexplored stack, its top first. Sorting here, on the worker that
// found them, leaves the master only a merge of whole reports.
func expandTask(o *coreObs, pr Problem, stack []Pattern, budget int) (goods []string, scores []float64, spilled []string) {
	for n := 0; n < budget && len(stack) > 0; n++ {
		pat := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		score := evaluate(o, pr, pat)
		if pr.Good(pat, score) {
			goods, scores = append(goods, pat.Key()), append(scores, score)
			stack = append(stack, pr.Children(pat)...)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		spilled = append(spilled, stack[i].Key())
	}
	sort.Sort(goodRun{keys: goods, scores: scores})
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
			if err := p.Out(TagCtl, ctlKind(ids), keys[0], ids, goods, scores); err != nil {
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

// ctlKind is the kind of a control tuple whose task spilled the given
// bundles: CtlPruned when it spilled none.
func ctlKind(spilled []string) string {
	if len(spilled) == 0 {
		return CtlPruned
	}
	return CtlExpanded
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

// goodRun is a batch of good patterns as parallel key and score slices:
// a PLET task's report, named by its task, or a copy of the PLED log. It
// sorts into result order.
type goodRun struct {
	task   string
	keys   []string
	scores []float64
}

func (r goodRun) Len() int { return len(r.keys) }
func (r goodRun) Less(i, j int) bool {
	return compareResults(r.keys[i], r.scores[i], r.keys[j], r.scores[j]) < 0
}
func (r goodRun) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// assembleResults merges runs, each in result order, into one result
// list in that order and decodes every key once: O(n log k) for n keys
// in k runs, once, after the program has stopped. A run out of order is
// a malformed report, and a key found twice breaks Children's
// unique-parent contract; either fails the run, naming the key.
func assembleResults(dec Decoder, runs []goodRun) ([]Result, error) {
	n := 0
	h := make([]goodRun, 0, len(runs)) // the non-empty runs, a heap on their first keys
	for _, r := range runs {
		for i := 1; i < len(r.keys); i++ {
			if compareResults(r.keys[i-1], r.scores[i-1], r.keys[i], r.scores[i]) > 0 {
				return nil, fmt.Errorf("core: malformed control tuple (task %q: good key %q out of result order)", r.task, r.keys[i])
			}
		}
		if len(r.keys) > 0 {
			h = append(h, r)
		}
		n += len(r.keys)
	}
	less := func(i, j int) bool {
		return compareResults(h[i].keys[0], h[i].scores[0], h[j].keys[0], h[j].scores[0]) < 0
	}
	down := func(i int) {
		for {
			m, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && less(l, m) {
				m = l
			}
			if r < len(h) && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	results := make([]Result, 0, n)
	var last string
	for len(h) > 0 {
		key, score := h[0].keys[0], h[0].scores[0]
		if len(results) > 0 && key == last {
			return nil, fmt.Errorf("core: good pattern %q found twice: Children is not unique-parent", key)
		}
		pat, err := dec.Decode(key)
		if err != nil {
			return nil, err
		}
		results, last = append(results, Result{pat, score}), key
		if h[0].keys, h[0].scores = h[0].keys[1:], h[0].scores[1:]; len(h[0].keys) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return results, nil
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
	var final pledCont
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
				p.Annotate("poison", workers)
				p.Annotate("results", len(cont.keys))
			}
			p.Annotate("depth", cont.level)
			p.Annotate("chunks", len(reports))
			p.Annotate("good", len(good))
			if err := p.OutN(tasks); err != nil {
				return err
			}
			if err := cont.commit(p); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(cont.chunks))
				o.good.Add(int64(len(good)))
			}
		}

		final = cont
		return nil
	}

	if err := srv.RunProgram("pled", workers, PLEDWorker(pr), master); err != nil {
		return nil, err
	}
	// The committed log is in level order and aliased by the process
	// table and the task tuples, so it is sorted as a copy, never in place.
	log := goodRun{keys: slices.Clone(final.keys), scores: slices.Clone(final.scores)}
	sort.Sort(log)
	return assembleResults(dec, []goodRun{log})
}

// balance is the PLET master's termination detection, figure 3.9's
// pruned-subtree propagation as one count: open[t] is the number of
// reports that name task t minus the number of t's own reports, and an
// entry leaves the map at 0. The master names the root, whose report is
// the seed bundles; every other task is named once, by the report of
// the task that spilled it. A set of reports that empties the map holds
// the root and every task a report of the set names, so it is the whole
// tree: the traversal is done when the last distinct report is in,
// whatever the order of their arrival (a task that reports before its
// parent sits at -1 until the parent's report names it). A repeated
// report changes nothing and answers not fresh.
type balance struct {
	open     map[string]int
	reported map[string]bool
}

func newBalance(root string) balance {
	return balance{open: map[string]int{root: 1}, reported: map[string]bool{}}
}

// report records task's report, naming the tasks it spilled, and
// answers whether it is the task's first.
func (b balance) report(task string, spilled []string) (fresh bool) {
	if b.reported[task] {
		return false
	}
	b.reported[task] = true
	b.add(task, -1)
	for _, c := range spilled {
		b.add(c, 1)
	}
	return true
}

func (b balance) add(task string, n int) {
	if b.open[task] += n; b.open[task] == 0 {
		delete(b.open, task)
	}
}

func (b balance) done() bool { return len(b.open) == 0 }

// RunPLET executes a data mining application as a Persistent Linda
// parallel E-tree traversal program (PLET): workers expand good nodes
// in place (figure 3.10, load-balanced variant of figure 4.7) and the
// master of figure 3.9 detects termination by counting open tasks (see
// balance). A task is a bundle of frontier patterns: the master deals
// the root's children into 2·workers of them (levelTasks' constant), a
// worker transaction explores one under a node budget (see PLETWorker),
// so the balance's tasks are named by their first key, and a task's
// report names the bundles it spilled. Good patterns ride the control
// tuple the master takes anyway, sorted by the worker that found them:
// the master keeps each fresh report whole as it goes, and the reports
// are merged into the result list once the program has stopped.
//
// The master makes two transactions: the seed, and one stream
// transaction that takes every report and commits with the poison once
// the balance is done, atomically with the take that completed the
// tree. A report then costs the master one take and no commit. The seed
// commits the seed bundles' ids as the master's continuation, so a
// killed master's next incarnation rebuilds its balance from Xrecover
// and seeds nothing; its stream aborted, so every report it took is
// back in the space, whole, for the next stream to take.
func RunPLET(srv *plinda.Server, pr Problem, workers int) ([]Result, error) {
	dec, ok := pr.(Decoder)
	if !ok {
		return nil, fmt.Errorf("core: problem %T does not implement Decoder", pr)
	}
	if workers < 1 {
		workers = 1
	}

	o := coreObserver.Load()
	var final []goodRun
	master := func(p *plinda.Proc) error {
		var ids []string
		if t, ok := p.Xrecover(); ok {
			if len(t) == 1 {
				ids, ok = t[0].([]string)
			}
			if !ok || len(t) != 1 {
				return fmt.Errorf("core: malformed master continuation %v", t)
			}
		} else {
			top := pr.Children(pr.Root())
			keys := make([]string, len(top))
			for i, c := range top {
				keys[i] = c.Key()
			}
			var tasks []tuplespace.Tuple
			tasks, ids = taskTuples(deal(keys, 2*workers))
			if err := p.Xstart(); err != nil {
				return err
			}
			p.Annotate("seed", len(tasks))
			if err := p.OutN(tasks); err != nil {
				return err
			}
			if err := p.Xcommit(ids); err != nil {
				return err
			}
			if o != nil {
				o.tasks.Add(int64(len(tasks)))
			}
		}
		rootKey := pr.Root().Key()
		open := newBalance(rootKey)
		open.report(rootKey, ids)

		// A report can arrive twice: the cluster's two-phase commit
		// re-runs a worker whose report had already landed on a follower
		// node. A task's report is a pure function of its tuple, so its
		// first copy wins whole, the repeat is dropped whole, and the
		// result set still equals SolveSequential's.
		if err := p.Xstart(); err != nil {
			return err
		}
		var runs []goodRun
		found, reports := 0, 0
		for ; !open.done(); reports++ {
			// Every task produces exactly one control tuple. Its kind
			// says no more than its spill list does, but it stays: it
			// fixes the tuple's signature, and with it the Router node
			// the ctl tuples home on, which is the task tuples' node, so
			// a worker's commit touches one node. The master checks it
			// as it checks the goods against the scores.
			tu, err := p.In(TagCtl, tuplespace.FormalString, tuplespace.FormalString,
				tuplespace.FormalStrings, tuplespace.FormalStrings, tuplespace.FormalFloats)
			if err != nil {
				return err
			}
			kind, key, spilled := tu[1].(string), tu[2].(string), tu[3].([]string)
			goods, scores := tu[4].([]string), tu[5].([]float64)
			if len(goods) != len(scores) {
				return fmt.Errorf("core: malformed control tuple (%d good keys, %d scores)", len(goods), len(scores))
			}
			if want := ctlKind(spilled); kind != want {
				return fmt.Errorf("core: malformed control tuple (task %q: kind %q, want %q for %d spilled)", key, kind, want, len(spilled))
			}
			if open.report(key, spilled) {
				runs = append(runs, goodRun{key, goods, scores})
				found += len(goods)
			}
		}
		poison := make([]tuplespace.Tuple, workers)
		for i := range poison {
			poison[i] = tuplespace.Tuple{TagTask, []string{PoisonKey}}
		}
		p.Annotate("reports", reports)
		p.Annotate("poison", workers)
		p.Annotate("results", found)
		if err := p.OutN(poison); err != nil {
			return err
		}
		if err := p.Xcommit(); err != nil {
			return err
		}
		if o != nil {
			o.good.Add(int64(found))
		}
		final = runs
		return nil
	}

	if err := srv.RunProgram("plet", workers, PLETWorker(pr), master); err != nil {
		return nil, err
	}
	return assembleResults(dec, final)
}

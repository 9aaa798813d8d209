package core

import (
	"freepdm/internal/now"
)

// TraceNode is one evaluated vertex of an E-tree, annotated with the
// abstract cost of its goodness computation. Children exist only for
// good nodes (a not-good node prunes its whole subtree).
type TraceNode struct {
	Key      string
	Cost     float64
	Good     bool
	Goodness float64
	Children []*TraceNode
}

// Trace is a fully expanded E-tree with costs: the input to the NOW
// timing experiments of chapter 4. It is produced by actually running
// the mining algorithm once, so task-cost distributions are real.
type Trace struct {
	Root    *TraceNode // the zero-length pattern; cost 0, always good
	NodeCnt int
}

// BuildTrace expands the full E-tree of a problem sequentially,
// recording each node's goodness and cost.
func BuildTrace(pr Problem) *Trace {
	cost := func(p Pattern) float64 { return 1 }
	if cm, ok := pr.(CostModel); ok {
		cost = cm.Cost
	}
	tr := &Trace{}
	var expand func(p Pattern) *TraceNode
	expand = func(p Pattern) *TraceNode {
		g := pr.Goodness(p)
		n := &TraceNode{Key: p.Key(), Cost: cost(p), Goodness: g, Good: pr.Good(p, g)}
		tr.NodeCnt++
		if n.Good {
			for _, c := range pr.Children(p) {
				n.Children = append(n.Children, expand(c))
			}
		}
		return n
	}
	root := &TraceNode{Key: pr.Root().Key(), Good: true, Goodness: 0}
	tr.NodeCnt++
	for _, c := range pr.Children(pr.Root()) {
		root.Children = append(root.Children, expand(c))
	}
	tr.Root = root
	return tr
}

// TotalCost is the sequential running time of the traversal: the sum
// of all evaluated node costs.
func (t *Trace) TotalCost() float64 {
	var sum func(n *TraceNode) float64
	sum = func(n *TraceNode) float64 {
		s := n.Cost
		for _, c := range n.Children {
			s += sum(c)
		}
		return s
	}
	return sum(t.Root)
}

// SubtreeCost is the cost of the subtree rooted at n, inclusive.
func SubtreeCost(n *TraceNode) float64 {
	s := n.Cost
	for _, c := range n.Children {
		s += SubtreeCost(c)
	}
	return s
}

// LevelNodes returns the trace nodes at the given depth (root = 0).
func (t *Trace) LevelNodes(depth int) []*TraceNode {
	cur := []*TraceNode{t.Root}
	for d := 0; d < depth; d++ {
		var next []*TraceNode
		for _, n := range cur {
			next = append(next, n.Children...)
		}
		cur = next
	}
	return cur
}

// AdaptiveDepth implements the adaptive master of section 4.3.2: with
// five or fewer workers the master seeds tasks from the first level of
// the E-tree; with six or more it expands to the second level so the
// larger worker pool has enough initial tasks.
func AdaptiveDepth(workers int) int {
	if workers >= 6 {
		return 2
	}
	return 1
}

// Strategy selects how a simulated E-tree schedule distributes work,
// matching the implementation strategies of section 4.2.2. It shapes
// the NOW task graph Trace.Tasks builds for the chapter 4 timing
// experiments; it is not a runtime option of RunPLET.
type Strategy int

const (
	// Optimistic: each initial task is an entire subtree, finished by a
	// single simulated worker with a local stack (figures 4.4/4.5).
	// Minimal communication, no load balancing.
	Optimistic Strategy = iota
	// LoadBalanced: each simulated task spawns its child patterns back
	// into the shared pool so idle workers can help (figures 4.6/4.7).
	LoadBalanced
)

func (s Strategy) String() string {
	if s == Optimistic {
		return "optimistic"
	}
	return "load-balanced"
}

// Tasks converts a trace into a simulated NOW task graph under the
// given strategy, seeding initial tasks at the given depth. The master
// itself evaluates the nodes above the seeding depth (the "E-dag
// traversal mode" of the adaptive master), so that cost is returned as
// masterPre to be charged sequentially.
func (t *Trace) Tasks(strategy Strategy, depth int) (initial []*now.Task, masterPre float64) {
	if depth < 1 {
		depth = 1
	}
	// Master evaluates everything above `depth`.
	for d := 1; d < depth; d++ {
		for _, n := range t.LevelNodes(d) {
			masterPre += n.Cost
		}
	}
	seeds := t.LevelNodes(depth)
	switch strategy {
	case Optimistic:
		for _, n := range seeds {
			initial = append(initial, &now.Task{Name: n.Key, Cost: SubtreeCost(n)})
		}
	case LoadBalanced:
		var mk func(n *TraceNode) *now.Task
		mk = func(n *TraceNode) *now.Task {
			t := &now.Task{Name: n.Key, Cost: n.Cost}
			if len(n.Children) > 0 {
				t.Spawn = func() []*now.Task {
					kids := make([]*now.Task, len(n.Children))
					for i, c := range n.Children {
						kids[i] = mk(c)
					}
					return kids
				}
			}
			return t
		}
		for _, n := range seeds {
			initial = append(initial, mk(n))
		}
	}
	return initial, masterPre
}

// Chunked returns a trace in which cheap child subtrees are absorbed
// into their parent task: a child whose subtree cost is below grain
// contributes its cost to the parent node and disappears as a separate
// task. Children of nodes at depth < keepDepth are never absorbed, so
// the seeding levels used by the (adaptive) master stay addressable.
// This models the task grain-size of the PLinda programs: workers
// batch the evaluation of cheap child patterns into the parent's task
// instead of paying a tuple-space round trip per pattern, so
// distributed tasks are the "several seconds to several minutes"
// units reported in section 4.3.
func (t *Trace) Chunked(grain float64, keepDepth int) *Trace {
	out := &Trace{}
	var walk func(n *TraceNode, depth int) *TraceNode
	walk = func(n *TraceNode, depth int) *TraceNode {
		nn := &TraceNode{Key: n.Key, Cost: n.Cost, Good: n.Good, Goodness: n.Goodness}
		for _, c := range n.Children {
			if depth >= keepDepth && SubtreeCost(c) < grain {
				nn.Cost += SubtreeCost(c)
				continue
			}
			nn.Children = append(nn.Children, walk(c, depth+1))
		}
		return nn
	}
	out.Root = walk(t.Root, 0)
	out.NodeCnt = countTraceNodes(out.Root)
	return out
}

func countTraceNodes(n *TraceNode) int {
	c := 1
	for _, ch := range n.Children {
		c += countTraceNodes(ch)
	}
	return c
}

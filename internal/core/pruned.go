package core

// PrunedTracker implements the termination-detection algorithm of the
// PLET master (figure 3.9, restated in section 4.2.2):
//
//  1. mark a node as pruned (no descendants will be visited);
//  2. if all siblings of the node are pruned, mark the parent pruned;
//  3. if the root becomes pruned, the computation has completed.
//
// Because tuple spaces are unordered, the master may learn that a
// child is pruned before it learns the child exists; such prunes are
// buffered until the parent's expansion registers the child.
//
// The tracker is idempotent per node: a node reports once, by Expanded
// or by Pruned, and a repeated report for it is a no-op that the call
// answers as not new. Duplicated control tuples are a fact of life under
// the cluster's two-phase commit — a worker crash between the follower
// and coordinator phases re-runs the task and republishes its report
// (see cluster package docs) — and must not reset a node's
// remaining-children count or double-prune its parent chain. Because a
// report is a pure function of its task, the PLET master keeps the good
// patterns of the new reports only.
type PrunedTracker struct {
	root      string
	parent    map[string]string
	remaining map[string]int
	early     map[string]bool // prunes seen before registration
	reported  map[string]bool
	done      bool
}

// NewPrunedTracker starts tracking an E-tree rooted at the given key.
// The root counts as expanded but with no children yet; call Expanded
// for it to register the top-level tasks.
func NewPrunedTracker(root string) *PrunedTracker {
	return &PrunedTracker{
		root:      root,
		parent:    map[string]string{},
		remaining: map[string]int{},
		early:     map[string]bool{},
		reported:  map[string]bool{},
	}
}

// Done reports whether the root has been pruned (traversal complete).
func (t *PrunedTracker) Done() bool { return t.done }

// Expanded registers that node was found good and generated the given
// children. A good node with no children is a leaf: it prunes itself.
// It reports whether this is the node's first report; a repeat is
// ignored.
func (t *PrunedTracker) Expanded(node string, children []string) (fresh bool) {
	if t.reported[node] {
		return false
	}
	t.reported[node] = true
	t.remaining[node] = len(children)
	for _, c := range children {
		t.parent[c] = node
	}
	// Apply any prunes that raced ahead of this expansion.
	for _, c := range children {
		if t.early[c] {
			delete(t.early, c)
			t.prune(c)
		}
	}
	if len(children) == 0 {
		t.prune(node)
	}
	return true
}

// Pruned records that the subtree under node is complete (the node was
// not good, or it was a leaf). It reports whether this is the node's
// first report; a repeat is ignored.
func (t *PrunedTracker) Pruned(node string) (fresh bool) {
	if t.reported[node] {
		return false
	}
	t.reported[node] = true
	if _, known := t.parent[node]; !known && node != t.root {
		t.early[node] = true
		return true
	}
	t.prune(node)
	return true
}

func (t *PrunedTracker) prune(node string) {
	for {
		if node == t.root {
			t.done = true
			return
		}
		p, known := t.parent[node]
		if !known {
			// The node's whole subtree completed before its parent's
			// expansion registered it — possible when a re-spawned
			// master consumes control tuples left over from a previous
			// incarnation's round. Park the completion like an early
			// prune; Expanded reattaches it when the parent reports.
			// Walking on with a zero-value parent key would corrupt an
			// unrelated node's remaining count (fatally so when the
			// root key is the empty string: the traversal terminates
			// early and the undrained deep results are lost).
			t.early[node] = true
			return
		}
		delete(t.parent, node)
		t.remaining[p]--
		if t.remaining[p] > 0 {
			return
		}
		delete(t.remaining, p)
		node = p
	}
}

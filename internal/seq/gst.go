// Package seq provides the protein-sequence substrate of chapter 4 of
// "Free Parallel Data Mining": sequences over the 20-letter amino-acid
// alphabet, a generalized suffix tree (GST) for candidate-segment
// enumeration (phase 1 of the Wang et al. discovery algorithm,
// section 2.3.4), approximate motif matching with variable length
// don't cares and mutations (insertions, deletions, mismatches), and a
// synthetic corpus generator standing in for the cyclins.pirx protein
// family used in the experiments.
package seq

// Alphabet is the 20 amino-acid one-letter codes.
const Alphabet = "ACDEFGHIKLMNPQRSTVWY"

// gstNode is a node of the compressed generalized suffix tree, an
// element of GST.nodes linked to the others by index. Index 0 is the
// root, which is nobody's child or sibling, so 0 also means "none".
type gstNode struct {
	label       string // edge entering this node: a substring of a source sequence
	child, next int32  // first child; next sibling, siblings in byte order of label[0]
	count       int32  // distinct sequences with a suffix through here
	last        int32  // the highest sequence id counted in count
}

// GST is a generalized suffix tree over a set of sequences: a trie of
// all suffixes with single-child paths collapsed (section 2.3.4). It
// answers two queries the discovery algorithm needs: the number of
// distinct sequences containing a segment exactly, and the one-letter
// right extensions of a segment that occur in the data.
type GST struct {
	nodes []gstNode
	n     int // number of sequences
}

// BuildGST constructs the tree by suffix insertion, one sequence after
// another; each insertion walks at most the suffix's length and adds at
// most a leaf and the node that splits an edge for it, so N letters make
// at most 2N+1 nodes, all in one array. Because every suffix of sequence
// i goes in before any of sequence i+1, a node has counted the current
// sequence exactly when its last id is it, which keeps count exact
// without a set of ids per node.
func BuildGST(seqs []string) *GST {
	letters := 0
	for _, s := range seqs {
		letters += len(s)
	}
	t := &GST{nodes: make([]gstNode, 1, 2*letters+1), n: len(seqs)}
	for id, s := range seqs {
		for i := range len(s) {
			t.insert(s[i:], int32(id))
		}
	}
	return t
}

func (t *GST) insert(suffix string, id int32) {
	node := int32(0)
	for len(suffix) > 0 {
		link := t.link(node, suffix[0])
		child := *link
		if child == 0 || t.nodes[child].label[0] != suffix[0] {
			*link = t.add(gstNode{label: suffix, next: child, count: 1, last: id})
			return
		}
		// Longest common prefix of the edge label and the suffix.
		label := t.nodes[child].label
		l := 0
		for l < len(label) && l < len(suffix) && label[l] == suffix[l] {
			l++
		}
		if l < len(label) {
			// Split the edge: the middle node takes the child's place
			// among its siblings and the sequences counted below it.
			c := t.nodes[child]
			*link = t.add(gstNode{label: label[:l], child: child, next: c.next, count: c.count, last: c.last})
			t.nodes[child].label, t.nodes[child].next = label[l:], 0
			child = *link
		}
		if n := &t.nodes[child]; n.last != id {
			n.count++
			n.last = id
		}
		node = child
		suffix = suffix[l:]
	}
}

// link returns the link in node's byte-ordered list of children that
// holds the child whose edge starts with c, or where that child would go.
func (t *GST) link(node int32, c byte) *int32 {
	l := &t.nodes[node].child
	for *l != 0 && t.nodes[*l].label[0] < c {
		l = &t.nodes[*l].next
	}
	return l
}

// add appends a node and returns its index. BuildGST presizes the array
// to the bound on the node count, so no append moves it and a link into
// it stays valid across the call.
func (t *GST) add(n gstNode) int32 {
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// locate returns the node at or below which the segment ends, plus how
// many characters of that node's edge label are consumed; ok is false
// when the segment does not occur.
func (t *GST) locate(segment string) (node int32, used int, ok bool) {
	rest := segment
	for len(rest) > 0 {
		child := *t.link(node, rest[0])
		if child == 0 || t.nodes[child].label[0] != rest[0] {
			return 0, 0, false
		}
		label := t.nodes[child].label
		l := 0
		for l < len(label) && l < len(rest) {
			if label[l] != rest[l] {
				return 0, 0, false
			}
			l++
		}
		node, used, rest = child, l, rest[l:]
	}
	return node, used, true
}

// SeqCount returns the number of distinct sequences containing the
// segment exactly (the occurrence number with zero mutations).
func (t *GST) SeqCount(segment string) int {
	if segment == "" {
		return t.n
	}
	node, _, ok := t.locate(segment)
	if !ok {
		return 0
	}
	return int(t.nodes[node].count)
}

// Contains reports whether the segment occurs in any sequence.
func (t *GST) Contains(segment string) bool { return t.SeqCount(segment) > 0 }

// Extensions returns, in byte order, the letters c such that
// segment+c occurs in at least minSeqs sequences. This drives lazy
// E-tree child generation: children of a segment pattern are its
// right extensions present in the (sample of the) database.
func (t *GST) Extensions(segment string, minSeqs int) []byte {
	node, used, ok := t.locate(segment)
	if !ok {
		return nil
	}
	if n := t.nodes[node]; used < len(n.label) {
		// Mid-edge: the only extension is the next label character.
		if int(n.count) >= minSeqs {
			return []byte{n.label[used]}
		}
		return nil
	}
	k := 0
	for c := t.nodes[node].child; c != 0; c = t.nodes[c].next {
		if int(t.nodes[c].count) >= minSeqs {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]byte, 0, k)
	for c := t.nodes[node].child; c != 0; c = t.nodes[c].next {
		if int(t.nodes[c].count) >= minSeqs {
			out = append(out, t.nodes[c].label[0])
		}
	}
	return out
}

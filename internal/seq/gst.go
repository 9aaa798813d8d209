// Package seq provides the protein-sequence substrate of chapter 4 of
// "Free Parallel Data Mining": sequences over the 20-letter amino-acid
// alphabet, a generalized suffix tree (GST) for candidate-segment
// enumeration (phase 1 of the Wang et al. discovery algorithm,
// section 2.3.4) whose loci let a caller grow a segment one letter at a
// time without walking the tree again, approximate motif matching with
// variable length don't cares and mutations (insertions, deletions,
// mismatches), and a synthetic corpus generator standing in for the
// cyclins.pirx protein family used in the experiments.
package seq

import "bytes"

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
// answers the two queries the discovery algorithm needs: the number of
// distinct sequences containing a segment exactly, and the one-letter
// right extensions of a segment that occur in the data. Both are asked
// of a Locus, where a segment ends in the tree: Find walks from the root
// to one, and Extend steps one letter from it, so a caller that keeps
// the loci Extend hands out never walks the tree from the root again.
type GST struct {
	nodes []gstNode
	// root holds the root's children by the first letter of their edge,
	// any byte a letter; 0 is none. The root keeps no sibling list.
	root [256]int32
}

// Locus is where a segment ends in a GST: the node at or below which it
// ends, and how many letters of the edge into that node it uses. The
// empty segment's locus is the zero Locus, the root. A Locus is only
// meaningful to the tree that gave it out.
type Locus struct {
	node, used int32
}

// BuildGST constructs the tree by suffix insertion, one sequence after
// another; each insertion walks at most the suffix's length and adds at
// most a leaf and the node that splits an edge for it, so N letters make
// at most 2N+1 nodes, all in one array. Because every suffix of sequence
// i goes in before any of sequence i+1, a node has counted the current
// sequence exactly when its last id is it, which keeps count exact
// without a set of ids per node. The root counts every sequence: the
// empty segment occurs in all of them.
func BuildGST(seqs []string) *GST {
	letters := 0
	for _, s := range seqs {
		letters += len(s)
	}
	t := &GST{nodes: make([]gstNode, 1, 2*letters+1)}
	t.nodes[0].count = int32(len(seqs))
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

// link returns the link that holds node's child whose edge starts with
// c, or where that child would go: the root's entry for c, or the link
// in any other node's byte-ordered list of children.
func (t *GST) link(node int32, c byte) *int32 {
	if node == 0 {
		return &t.root[c]
	}
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

// Find returns the segment's locus; ok is false when the segment does
// not occur.
func (t *GST) Find(segment string) (at Locus, ok bool) {
	for rest := segment; len(rest) > 0; {
		child := *t.link(at.node, rest[0])
		if child == 0 || t.nodes[child].label[0] != rest[0] {
			return Locus{}, false
		}
		label := t.nodes[child].label
		l := min(len(label), len(rest))
		if label[:l] != rest[:l] {
			return Locus{}, false
		}
		at, rest = Locus{child, int32(l)}, rest[l:]
	}
	return at, true
}

// Count returns the number of distinct sequences containing the
// segment that ends at the locus (its occurrence number with zero
// mutations).
func (t *GST) Count(at Locus) int { return int(t.nodes[at.node].count) }

// Extend appends to letters, in byte order, each letter c such that the
// segment ending at the locus, followed by c, occurs in at least minSeqs
// sequences, and to loci that longer segment's locus, one for one. This
// drives lazy E-tree child generation: children of a segment pattern
// are its right extensions present in the (sample of the) database. It
// reads the locus's node and, at a node's end, its children, and
// allocates only when a buffer runs out of room.
func (t *GST) Extend(at Locus, minSeqs int, letters []byte, loci []Locus) ([]byte, []Locus) {
	n := &t.nodes[at.node]
	if int(at.used) < len(n.label) {
		// Mid-edge: the only extension is the next letter of the edge.
		if int(n.count) >= minSeqs {
			letters = append(letters, n.label[at.used])
			loci = append(loci, Locus{at.node, at.used + 1})
		}
		return letters, loci
	}
	if at.node == 0 {
		for _, c := range t.root {
			if c != 0 && int(t.nodes[c].count) >= minSeqs {
				letters = append(letters, t.nodes[c].label[0])
				loci = append(loci, Locus{c, 1})
			}
		}
		return letters, loci
	}
	for c := n.child; c != 0; c = t.nodes[c].next {
		if int(t.nodes[c].count) >= minSeqs {
			letters = append(letters, t.nodes[c].label[0])
			loci = append(loci, Locus{c, 1})
		}
	}
	return letters, loci
}

// SeqCount returns the number of distinct sequences containing the
// segment exactly: Count at the segment's locus, 0 when it is absent.
func (t *GST) SeqCount(segment string) int {
	at, ok := t.Find(segment)
	if !ok {
		return 0
	}
	return t.Count(at)
}

// Extensions returns, in byte order, the letters c such that
// segment+c occurs in at least minSeqs sequences: Extend at the
// segment's locus.
func (t *GST) Extensions(segment string, minSeqs int) []byte {
	at, ok := t.Find(segment)
	if !ok {
		return nil
	}
	var letters [256]byte
	var loci [256]Locus
	out, _ := t.Extend(at, minSeqs, letters[:0], loci[:0])
	return bytes.Clone(out)
}

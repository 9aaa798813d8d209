package classify

import (
	"cmp"
	"slices"

	"freepdm/internal/dataset"
)

// Basket is a run of a node's cases collapsed by value (figure 5.2):
// Hi is the largest attribute value in the basket (the category index,
// for a categorical attribute), Counts its class histogram and N its
// size.
type Basket struct {
	Hi     float64
	Counts []int
	N      int
}

// Cases is one node's training cases: the dataset, the node's instance
// indexes (a repeated index is a repeated case), and each numeric
// attribute's non-missing cases in ascending value order. Grow sorts
// each numeric attribute once per tree and splits that order stably
// into the children, so no split search sorts. A Cases is valid only
// for the Select call it is passed to.
type Cases struct {
	Data *dataset.Dataset
	Idx  []int

	sorted [][]sortedCase // by attribute; nil for a categorical one
	// Scratch shared by a tree's nodes, made at the root's first split.
	branch []int32      // instance -> branch of the split being applied
	tmp    []sortedCase // a sorted list being split
}

type sortedCase struct {
	v     float64
	inst  int32
	class int32
}

// NewCases collects and sorts every numeric attribute's non-missing
// cases over idx: the only place a node's values are sorted.
func NewCases(d *dataset.Dataset, idx []int) *Cases {
	c := &Cases{Data: d, Idx: idx, sorted: make([][]sortedCase, len(d.Attrs))}
	numeric := 0
	for _, a := range d.Attrs {
		if a.Kind == dataset.Numeric {
			numeric++
		}
	}
	all := make([]sortedCase, 0, numeric*len(idx))
	for a, at := range d.Attrs {
		if at.Kind != dataset.Numeric {
			continue
		}
		start := len(all)
		for _, i := range idx {
			if v := d.Value(i, a); !dataset.IsMissing(v) {
				all = append(all, sortedCase{v, int32(i), int32(d.Class(i))})
			}
		}
		list := all[start:len(all):len(all)]
		slices.SortFunc(list, func(x, y sortedCase) int { return cmp.Compare(x.v, y.v) })
		c.sorted[a] = list
	}
	return c
}

// split returns the children's cases for parts, Partition's branches
// of this node: each child gets its share of every sorted list in the
// same order, moved in place within the list, which this node no
// longer needs.
func (c *Cases) split(parts [][]int) []*Cases {
	if c.branch == nil {
		c.branch = make([]int32, len(c.Data.Instances))
		c.tmp = make([]sortedCase, len(c.Idx))
	}
	kids := make([]*Cases, len(parts))
	lists := make([][]sortedCase, len(parts)*len(c.sorted))
	for b, p := range parts {
		for _, i := range p {
			c.branch[i] = int32(b)
		}
		kids[b] = &Cases{Data: c.Data, Idx: p, sorted: lists[b*len(c.sorted) : (b+1)*len(c.sorted)],
			branch: c.branch, tmp: c.tmp}
	}
	ends := make([]int, len(parts))
	for a, list := range c.sorted {
		if c.Data.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		clear(ends)
		for _, e := range list {
			ends[c.branch[e.inst]]++
		}
		start := 0
		for b, n := range ends {
			kids[b].sorted[a] = list[start : start+n : start+n]
			ends[b] = start
			start += n
		}
		tmp := c.tmp[:len(list)]
		for _, e := range list {
			b := c.branch[e.inst]
			tmp[ends[b]] = e
			ends[b]++
		}
		copy(list, tmp)
	}
	return kids
}

// Baskets returns the node's cases of attribute a as baskets: for a
// numeric attribute one per distinct value, in ascending order; for a
// categorical one one per category index, empty ones included. Missing
// values are left out, and the baskets' Counts share one backing array.
func (c *Cases) Baskets(a int) []Basket {
	d := c.Data
	nc := len(d.Classes)
	if d.Attrs[a].Kind != dataset.Numeric {
		out := make([]Basket, len(d.Attrs[a].Values))
		counts := make([]int, len(out)*nc)
		for v := range out {
			out[v] = Basket{Hi: float64(v), Counts: counts[v*nc : (v+1)*nc : (v+1)*nc]}
		}
		for _, i := range c.Idx {
			if v := d.Value(i, a); !dataset.IsMissing(v) {
				b := &out[int(v)]
				b.Counts[d.Class(i)]++
				b.N++
			}
		}
		return out
	}
	list := c.sorted[a]
	nb := 0
	for k, e := range list {
		if k == 0 || e.v != list[k-1].v {
			nb++
		}
	}
	out := make([]Basket, 0, nb)
	counts := make([]int, nb*nc)
	for k, e := range list {
		if k == 0 || e.v != list[k-1].v {
			j := len(out)
			out = append(out, Basket{Hi: e.v, Counts: counts[j*nc : (j+1)*nc : (j+1)*nc]})
		}
		b := &out[len(out)-1]
		b.Counts[e.class]++
		b.N++
	}
	return out
}

// BinaryCuts is the binary split search of C4.5 and CART: it walks
// numeric attribute a's cases in value order and calls visit at every
// cut between two distinct values that leaves at least minSide cases on
// each side, with the cut value (the largest value going left) and the
// left and right class histograms as branches[0] and branches[1].
func (c *Cases) BinaryCuts(a, minSide int, visit func(cut float64, branches [][]int)) {
	list := c.sorted[a]
	nc := len(c.Data.Classes)
	lr := make([]int, 2*nc)
	left, right := lr[:nc:nc], lr[nc:]
	for _, e := range list {
		right[e.class]++
	}
	branches := [][]int{left, right}
	for k := 0; k+1 < len(list); k++ {
		left[list[k].class]++
		right[list[k].class]--
		if list[k].v == list[k+1].v || k+1 < minSide || len(list)-k-1 < minSide {
			continue
		}
		visit(list[k].v, branches)
	}
}

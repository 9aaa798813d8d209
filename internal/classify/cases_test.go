package classify_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"freepdm/internal/classify"
	"freepdm/internal/classify/c45"
	"freepdm/internal/classify/cart"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
)

// sortedValues is the oracles' per-node collect-and-sort: the (value,
// class) pairs of attr's non-missing cases over idx, in ascending value
// order.
func sortedValues(d *dataset.Dataset, idx []int, attr int) (vals []float64, classes []int) {
	type vc struct {
		v float64
		c int
	}
	var all []vc
	for _, i := range idx {
		if v := d.Value(i, attr); !dataset.IsMissing(v) {
			all = append(all, vc{v, d.Class(i)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	for _, e := range all {
		vals = append(vals, e.v)
		classes = append(classes, e.c)
	}
	return vals, classes
}

// valueBaskets is the oracle of Cases.Baskets: per-distinct-value
// baskets over a fresh sort for a numeric attribute, a per-category
// histogram loop for a categorical one.
func valueBaskets(d *dataset.Dataset, idx []int, attr int) []classify.Basket {
	nc := len(d.Classes)
	var out []classify.Basket
	if d.Attrs[attr].Kind == dataset.Categorical {
		for v := range d.Attrs[attr].Values {
			out = append(out, classify.Basket{Hi: float64(v), Counts: make([]int, nc)})
		}
		for _, i := range idx {
			if v := d.Value(i, attr); !dataset.IsMissing(v) {
				out[int(v)].Counts[d.Class(i)]++
				out[int(v)].N++
			}
		}
		return out
	}
	vals, classes := sortedValues(d, idx, attr)
	for k, v := range vals {
		if len(out) == 0 || out[len(out)-1].Hi != v {
			out = append(out, classify.Basket{Hi: v, Counts: make([]int, nc)})
		}
		out[len(out)-1].Counts[classes[k]]++
		out[len(out)-1].N++
	}
	return out
}

type cut struct {
	at          float64
	left, right []int
}

// binaryCuts is the oracle of Cases.BinaryCuts: C4.5's and CART's
// binary-cut sweep over a fresh sort.
func binaryCuts(d *dataset.Dataset, idx []int, attr, minSide int) []cut {
	vals, classes := sortedValues(d, idx, attr)
	nc := len(d.Classes)
	left := make([]int, nc)
	right := make([]int, nc)
	for _, c := range classes {
		right[c]++
	}
	var out []cut
	for i := 0; i+1 < len(vals); i++ {
		left[classes[i]]++
		right[classes[i]]--
		if vals[i] == vals[i+1] || i+1 < minSide || len(vals)-i-1 < minSide {
			continue
		}
		out = append(out, cut{vals[i], append([]int(nil), left...), append([]int(nil), right...)})
	}
	return out
}

// checkSelector checks the node's Cases against the oracles before it
// hands them to the grower's selector.
type checkSelector struct {
	t     *testing.T
	inner classify.SplitSelector
	nodes *int
}

func (s checkSelector) Select(c *classify.Cases) *classify.Split {
	s.t.Helper()
	*s.nodes++
	for a, at := range c.Data.Attrs {
		got, want := c.Baskets(a), valueBaskets(c.Data, c.Idx, a)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				s.t.Fatalf("node of %d cases, attribute %d: baskets\n%+v\nwant\n%+v", len(c.Idx), a, got, want)
			}
		}
		if at.Kind != dataset.Numeric {
			continue
		}
		for _, minSide := range []int{1, 3} {
			var cuts []cut
			c.BinaryCuts(a, minSide, func(at float64, branches [][]int) {
				cuts = append(cuts, cut{at, append([]int(nil), branches[0]...), append([]int(nil), branches[1]...)})
			})
			if want := binaryCuts(c.Data, c.Idx, a, minSide); !reflect.DeepEqual(cuts, want) {
				s.t.Fatalf("node of %d cases, attribute %d, minSide %d: cuts\n%+v\nwant\n%+v",
					len(c.Idx), a, minSide, cuts, want)
			}
		}
	}
	return s.inner.Select(c)
}

// randomCases is a data set with tied and missing values, an
// all-missing numeric attribute and a categorical one, and an index
// list drawn with repeats.
func randomCases(rng *rand.Rand) (*dataset.Dataset, []int) {
	d := &dataset.Dataset{
		Name: "presort",
		Attrs: []dataset.Attribute{
			{Name: "ties", Kind: dataset.Numeric},
			{Name: "real", Kind: dataset.Numeric},
			{Name: "gone", Kind: dataset.Numeric},
			{Name: "cat", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d"}},
		},
		Classes: []string{"x", "y", "z"},
	}
	missing := func(p float64, v float64) float64 {
		if rng.Float64() < p {
			return dataset.Missing
		}
		return v
	}
	n := 20 + rng.Intn(80)
	for i := 0; i < n; i++ {
		ties := float64(rng.Intn(6))
		class := int(ties) % 3
		if rng.Float64() < 0.3 {
			class = rng.Intn(3)
		}
		d.Instances = append(d.Instances, dataset.Instance{Vals: []float64{
			missing(0.2, ties),
			missing(0.1, math.Round(rng.NormFloat64()*10)/10),
			dataset.Missing,
			missing(0.1, float64(rng.Intn(4))),
		}, Class: class})
	}
	idx := make([]int, n+rng.Intn(n))
	for k := range idx {
		idx[k] = rng.Intn(n)
	}
	return d, idx
}

// Property: at every node of trees grown by all three growers, the
// presorted cases give the same baskets and binary cuts as a fresh
// collect-and-sort over the node's indexes.
func TestPropertyPresortMatchesFreshSort(t *testing.T) {
	growers := map[string]classify.SplitSelector{
		"c45":      c45.NewSelector(),
		"cart":     cart.NewSelector(),
		"nyuminer": nyuminer.NewSelector(),
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		d, idx := randomCases(rng)
		for name, sel := range growers {
			nodes := 0
			tree := classify.Grow(d, idx, checkSelector{t, sel, &nodes}, 0)
			if tree.Nodes() > 1 && nodes < 2 {
				t.Fatalf("%s: %d-node tree but %d nodes checked", name, tree.Nodes(), nodes)
			}
			if trial == 0 && tree.Nodes() < 5 {
				t.Fatalf("%s grew only %d nodes; the property needs deeper trees", name, tree.Nodes())
			}
		}
	}
}

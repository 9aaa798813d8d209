// Package nyuminer implements the NyuMiner classification tree
// algorithm of chapter 5 of "Free Parallel Data Mining": at every node
// it selects an optimal sub-K-ary split — the split with the fewest
// branches among all splits into at most K partitions having the least
// aggregate impurity (definition 7) — for both numerical and
// categorical variables. OptimalSubK takes any impurity function
// satisfying definition 5; the trees use the Gini index and K = 4, the
// setting of the dissertation's experiments. Two flavors are provided: NyuMiner-CV (minimal cost-
// complexity pruning with V-fold cross validation, section 5.4.1) and
// NyuMiner-RS (multiple incremental sampling plus rule selection,
// section 5.4.2).
package nyuminer

import (
	"math"

	"freepdm/internal/classify"
)

// label returns the single class of a pure basket, or -1 for a mixed
// ("M") basket.
func label(b classify.Basket) int {
	cls := -1
	for c, n := range b.Counts {
		if n > 0 {
			if cls >= 0 {
				return -1
			}
			cls = c
		}
	}
	return cls
}

// MergeBoundary combines adjacent baskets with the same pure class
// label (figure 5.4), in place; adjacent mixed baskets are kept
// separate, as are pure baskets of different classes. Over a numeric
// attribute's value baskets (Cases.Baskets) only boundary points
// (Fayyad–Irani; theorem 5) remain as candidate cut points.
func MergeBoundary(baskets []classify.Basket) []classify.Basket {
	if len(baskets) == 0 {
		return baskets
	}
	out := baskets[:1]
	for _, b := range baskets[1:] {
		last := &out[len(out)-1]
		ll, bl := label(*last), label(b)
		if ll >= 0 && ll == bl {
			for c := range last.Counts {
				last.Counts[c] += b.Counts[c]
			}
			last.N += b.N
			last.Hi = b.Hi
			continue
		}
		out = append(out, b)
	}
	return out
}

// CoalesceBaskets reduces a basket sequence to at most maxB baskets by
// merging adjacent ones in place, preserving order. This is the
// standard discretization applied before the O(K·B²) dynamic program
// when B is very large (continuous attributes at big nodes); with
// maxB >= B it is the identity and the split is exactly optimal.
func CoalesceBaskets(baskets []classify.Basket, maxB int) []classify.Basket {
	if maxB < 2 || len(baskets) <= maxB {
		return baskets
	}
	total := 0
	for _, b := range baskets {
		total += b.N
	}
	per := (total + maxB - 1) / maxB
	out := baskets[:0]
	for _, b := range baskets {
		if len(out) > 0 && out[len(out)-1].N+b.N <= per {
			last := &out[len(out)-1]
			for c := range last.Counts {
				last.Counts[c] += b.Counts[c]
			}
			last.N += b.N
			last.Hi = b.Hi
			continue
		}
		out = append(out, b)
	}
	return out
}

// OptimalSplit is the outcome of the sub-K-ary optimization: the
// boundaries (indexes into the basket sequence: branch i covers
// baskets (bounds[i-1], bounds[i]]) and the aggregate impurity.
type OptimalSplit struct {
	Bounds   []int // rightmost basket index of each branch; last = B-1
	Impurity float64
	Branches int
}

// OptimalSubK runs the dynamic program of section 5.3.1 over an
// ordered basket sequence: I(k,1,i) = min_j [ I(k-1,1,j) + w(j+1,i) ],
// where w is the weighted impurity of merging baskets j+1..i. Among
// all k <= K attaining the minimal aggregate impurity, the smallest k
// wins (definition 7: optimal sub-K-ary). Complexity O(K·B²).
func OptimalSubK(im classify.Impurity, baskets []classify.Basket, k int) OptimalSplit {
	b := len(baskets)
	if b == 0 {
		return OptimalSplit{Impurity: 0, Branches: 0}
	}
	if k > b {
		k = b
	}
	if k < 1 {
		k = 1
	}
	nc := len(baskets[0].Counts)
	total := 0
	for _, bk := range baskets {
		total += bk.N
	}
	// prefix[i*nc+c] = count of class c in baskets[0..i-1].
	prefix := make([]int, (b+1)*nc)
	for i, bk := range baskets {
		row := prefix[(i+1)*nc : (i+2)*nc]
		copy(row, prefix[i*nc:(i+1)*nc])
		for c, n := range bk.Counts {
			row[c] += n
		}
	}
	counts := make([]int, nc)
	// w(lo,hi) = (n/total) * impurity of baskets[lo..hi] (0-based incl).
	w := func(lo, hi int) float64 {
		n := 0
		for c := range counts {
			counts[c] = prefix[(hi+1)*nc+c] - prefix[lo*nc+c]
			n += counts[c]
		}
		if n == 0 {
			return 0
		}
		return float64(n) / float64(total) * im.Of(counts, n)
	}

	// cost[kk*b+i]: minimal aggregate impurity of splitting baskets
	// 0..i into kk+1 intervals; choice[kk*b+i]: the j achieving it,
	// the last basket of the first kk intervals.
	cost := make([]float64, k*b)
	choice := make([]int, k*b)
	for i := 0; i < b; i++ {
		cost[i] = w(0, i)
		choice[i] = -1
		for kk := 1; kk < k; kk++ {
			cost[kk*b+i] = math.Inf(1)
		}
	}
	// w(j+1,i) does not depend on kk, so it is computed once per pair
	// (j,i) and offered to every branch count. Each cost[kk][i] still
	// sees its candidates j in ascending order, and cost[kk-1][j] is
	// final since j < i.
	for i := 1; i < b; i++ {
		for j := 0; j < i; j++ {
			wji := w(j+1, i)
			for kk := 1; kk < k && kk <= j+1; kk++ {
				if c := cost[(kk-1)*b+j] + wji; c < cost[kk*b+i] {
					cost[kk*b+i] = c
					choice[kk*b+i] = j
				}
			}
		}
	}
	// Optimal sub-K-ary: minimal impurity, then fewest branches.
	bestK := 0
	for kk := 1; kk < k; kk++ {
		if cost[kk*b+b-1] < cost[bestK*b+b-1]-1e-12 {
			bestK = kk
		}
	}
	sp := OptimalSplit{Impurity: cost[bestK*b+b-1], Branches: bestK + 1}
	// Reconstruct boundaries.
	bounds := make([]int, bestK+1)
	i := b - 1
	for kk := bestK; kk >= 0; kk-- {
		bounds[kk] = i
		i = choice[kk*b+i]
	}
	sp.Bounds = bounds
	return sp
}

// CategoricalBaskets returns the logical-value baskets of categorical
// attribute attr over a node's cases (section 5.3.2: the values pure
// for one class merged into one) plus, for each basket, the original
// category indexes it stands for.
func CategoricalBaskets(cs *classify.Cases, attr int) ([]classify.Basket, [][]int) {
	nc := len(cs.Data.Classes)
	var out []classify.Basket
	var sets [][]int
	pureIdx := make([]int, nc)
	for c := range pureIdx {
		pureIdx[c] = -1
	}
	for v, bk := range cs.Baskets(attr) {
		if bk.N == 0 {
			continue
		}
		if cls := label(bk); cls >= 0 && pureIdx[cls] >= 0 {
			j := pureIdx[cls]
			for c := range out[j].Counts {
				out[j].Counts[c] += bk.Counts[c]
			}
			out[j].N += bk.N
			sets[j] = append(sets[j], v)
			continue
		} else if cls >= 0 {
			pureIdx[cls] = len(out)
		}
		out = append(out, bk)
		sets = append(sets, []int{v})
	}
	return out, sets
}

// permutations feeds every permutation of 0..n-1 to fn; fn returning
// false stops the enumeration (Heap's algorithm).
func permutations(n int, fn func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return fn(perm)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		return true
	}
	rec(n)
}

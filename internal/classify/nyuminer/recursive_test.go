package nyuminer

import (
	"math"

	"freepdm/internal/classify"
)

// RecursiveBinaryBounds computes the aggregate impurity a k-way split
// obtains when built by recursively applying optimal BINARY splits
// (the Fayyad–Irani greedy scheme section 5.2 discusses), against
// which NyuMiner's dynamic program is provably optimal: "the
// repetitive binarization of a variable cannot guarantee an optimal
// multi-way split even if each binary split is optimal". It is the
// comparator of TestRecursiveBinaryNeverBeatsDP.
//
// It returns the impurity of the best split into at most k intervals
// obtainable greedily: at each step, the interval whose optimal binary
// subdivision reduces aggregate impurity the most is split.
func RecursiveBinaryBounds(im classify.Impurity, baskets []classify.Basket, k int) float64 {
	if len(baskets) == 0 {
		return 0
	}
	total := 0
	for _, b := range baskets {
		total += b.N
	}
	type interval struct{ lo, hi int } // inclusive basket range
	intervals := []interval{{0, len(baskets) - 1}}

	weight := func(lo, hi int) (float64, int) {
		counts := make([]int, len(baskets[0].Counts))
		n := 0
		for i := lo; i <= hi; i++ {
			for c, v := range baskets[i].Counts {
				counts[c] += v
			}
			n += baskets[i].N
		}
		return float64(n) / float64(total) * classify.ImpurityOfCounts(im, counts), n
	}

	// bestBinary finds the optimal single cut within [lo,hi]; returns
	// the cut position and resulting weighted impurity, or ok=false if
	// the interval cannot be split.
	bestBinary := func(lo, hi int) (cut int, imp float64, ok bool) {
		if lo >= hi {
			return 0, 0, false
		}
		best := math.Inf(1)
		bestCut := -1
		for c := lo; c < hi; c++ {
			l, _ := weight(lo, c)
			r, _ := weight(c+1, hi)
			if l+r < best {
				best = l + r
				bestCut = c
			}
		}
		return bestCut, best, bestCut >= 0
	}

	for len(intervals) < k {
		bestGain := 0.0
		bestIdx, bestCut := -1, -1
		for idx, iv := range intervals {
			cur, _ := weight(iv.lo, iv.hi)
			if cut, imp, ok := bestBinary(iv.lo, iv.hi); ok {
				if gain := cur - imp; gain > bestGain+1e-12 {
					bestGain = gain
					bestIdx, bestCut = idx, cut
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		iv := intervals[bestIdx]
		intervals[bestIdx] = interval{iv.lo, bestCut}
		intervals = append(intervals, interval{bestCut + 1, iv.hi})
	}

	agg := 0.0
	for _, iv := range intervals {
		w, _ := weight(iv.lo, iv.hi)
		agg += w
	}
	return agg
}

// Package classify provides the shared classification-tree machinery
// of chapters 5 and 6 of "Free Parallel Data Mining": impurity
// functions (definition 5), a decision-tree representation with
// multi-way splits over numerical and categorical variables, a generic
// tree grower, minimal cost-complexity pruning with V-fold cross
// validation (section 5.4.1), rule extraction with confidence/support
// and the partial-order rule selection of section 5.4.2, and the
// complementarity tests of section 5.5.3. The concrete split-selection
// algorithms — NyuMiner, C4.5, CART — live in subpackages.
package classify

import "math"

// Impurity is an impurity function per definition 5: defined on class
// probability tuples, maximal at the uniform distribution, zero
// exactly at the pure distributions, symmetric, and strictly concave.
type Impurity interface {
	Name() string
	// Of evaluates the impurity of the class-probability tuple
	// p_j = counts[j]/n of a count histogram; n is the sum of the
	// counts, and positive.
	Of(counts []int, n int) float64
}

// Gini is the Gini diversity index used by CART: 1 - sum p_j^2.
type Gini struct{}

// Name implements Impurity.
func (Gini) Name() string { return "gini" }

// Of implements Impurity.
func (Gini) Of(counts []int, n int) float64 {
	s := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return 1 - s
}

// Entropy is the average class entropy (information) measure used by
// ID3/C4.5: -sum p_j log2 p_j.
type Entropy struct{}

// Name implements Impurity.
func (Entropy) Name() string { return "entropy" }

// Of implements Impurity.
func (Entropy) Of(counts []int, n int) float64 {
	s := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(n)
			s -= p * math.Log2(p)
		}
	}
	return s
}

// ImpurityOfCounts evaluates an impurity function on a class count
// histogram; empty histograms are pure.
func ImpurityOfCounts(im Impurity, counts []int) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	return im.Of(counts, n)
}

// AggregateImpurity is I(S) = sum over partitions of (n_i/N) I(s_i)
// (section 5.3), given per-branch class histograms.
func AggregateImpurity(im Impurity, branches [][]int) float64 {
	total := 0
	for _, b := range branches {
		for _, c := range b {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	agg := 0.0
	for _, b := range branches {
		n := 0
		for _, c := range b {
			n += c
		}
		if n > 0 {
			agg += float64(n) / float64(total) * ImpurityOfCounts(im, b)
		}
	}
	return agg
}

// InfoGain is gain(A) = info(T) - info_A(T) (section 2.1.5) for a
// candidate partition given the node's info(T), its entropy
// ImpurityOfCounts(Entropy{}, histogram), which a split search computes
// once per node, and the branch histograms.
func InfoGain(info float64, branches [][]int) float64 {
	return info - AggregateImpurity(Entropy{}, branches)
}

// SplitInfo is the potential information of the division itself,
// -sum (n_j/N) log2 (n_j/N), used to normalize gain into gain ratio.
func SplitInfo(branches [][]int) float64 {
	total := 0
	sizes := make([]int, 0, len(branches))
	for _, b := range branches {
		n := 0
		for _, c := range b {
			n += c
		}
		sizes = append(sizes, n)
		total += n
	}
	if total == 0 {
		return 0
	}
	s := 0.0
	for _, n := range sizes {
		if n > 0 {
			p := float64(n) / float64(total)
			s -= p * math.Log2(p)
		}
	}
	return s
}

// GainRatio is C4.5's criterion: gain(A)/split info(A), given the
// partition's InfoGain. It returns 0 when the split info vanishes (a
// degenerate one-branch division).
func GainRatio(gain float64, branches [][]int) float64 {
	si := SplitInfo(branches)
	if si <= 0 {
		return 0
	}
	return gain / si
}

// Package motif implements sequence pattern discovery (chapter 4 of
// "Free Parallel Data Mining") as an E-dag application: patterns are
// partial sequences *C1C2...Ck*, goodness is the occurrence number
// (how many database sequences contain the motif within the allowed
// mutations), and a pattern is good when its occurrence number reaches
// the minimum (table 4.1). Children extend a segment to the right by
// one letter, lazily constrained to the extensions present in the
// generalized suffix tree of a sample of the database (phase 1 of the
// Wang et al. algorithm, section 2.3.4).
package motif

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"freepdm/internal/core"
	"freepdm/internal/seq"
)

// Params are the user-specified parameters of the discovery problem
// (section 4.1.1): Occur, Mut, Length, and a maximum explored pattern
// length to bound the search.
type Params struct {
	MinOccur  int // minimum occurrence number
	MaxMut    int // allowed mutations when matching
	MinLength int // |P| minimum for a motif to be reported
	MaxLength int // exploration bound (0 = MinLength+8)
	// SampleSize is how many sequences seed the candidate GST
	// (phase 1); 0 means all of them.
	SampleSize int
	// MinSeedSeqs is the phase-1 candidate filter: a child extension
	// is generated only if it occurs exactly in at least this many
	// sample sequences. 1 (the default) admits every sample segment;
	// mutation-tolerant searches raise it so the candidate set stays
	// the sample's conserved segments, which is the role of the
	// sampling heuristic in the Wang et al. algorithm.
	MinSeedSeqs int
}

func (p Params) withDefaults() Params {
	if p.MaxLength == 0 {
		p.MaxLength = p.MinLength + 8
	}
	if p.MinSeedSeqs < 1 {
		p.MinSeedSeqs = 1
	}
	return p
}

// Problem is the discovery task bound to a sequence database. It
// implements core.Problem, core.Decoder and core.CostModel.
type Problem struct {
	Seqs   []string
	Params Params
	gst    *seq.GST
	total  int // summed length of Seqs, for Cost

	// SubpatternPruning enables the optimization heuristic of section
	// 2.3.4: if a pattern's parent occurrence number is already below
	// the minimum, matching is skipped (the cached bound is returned).
	// Off, Goodness reads immutable data and bumps occCnt, nothing else.
	SubpatternPruning bool

	occCnt atomic.Int64 // Goodness invocations that ran the matcher (for ablations)
	skips  atomic.Int64 // matcher runs avoided by the pruning heuristic
	// cache maps a segment to its occurrence number or bound (int). Only
	// SubpatternPruning writes it: one entry per pattern evaluated.
	cache sync.Map
}

// NewProblem builds the discovery problem, constructing the candidate
// GST over the sample.
func NewProblem(seqs []string, params Params) *Problem {
	params = params.withDefaults()
	sample := seqs
	if params.SampleSize > 0 && params.SampleSize < len(seqs) {
		sample = seqs[:params.SampleSize]
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	return &Problem{Seqs: seqs, Params: params, gst: seq.BuildGST(sample), total: total}
}

// pattern is a segment motif *S*.
type pattern struct{ seg string }

func (p pattern) Key() string { return p.seg }
func (p pattern) Len() int    { return len(p.seg) }

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return pattern{} }

// Decode implements core.Decoder.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	for _, c := range key {
		if !strings.ContainsRune(seq.Alphabet, c) {
			return nil, fmt.Errorf("motif: invalid pattern key %q", key)
		}
	}
	return pattern{key}, nil
}

// Children implements core.Problem: right extensions by one letter
// that occur in the sample, up to the exploration bound.
func (pr *Problem) Children(p core.Pattern) []core.Pattern {
	s := p.(pattern).seg
	if len(s) >= pr.Params.MaxLength {
		return nil
	}
	exts := pr.gst.Extensions(s, pr.Params.MinSeedSeqs)
	out := make([]core.Pattern, 0, len(exts))
	for _, c := range exts {
		out = append(out, pattern{s + string(c)})
	}
	return out
}

// Subpatterns implements core.Problem: the (k-1)-prefix and the
// (k-1)-suffix (example 3.1.4).
func (pr *Problem) Subpatterns(p core.Pattern) []core.Pattern {
	s := p.(pattern).seg
	if len(s) <= 1 {
		return []core.Pattern{pattern{}}
	}
	prefix := pattern{s[:len(s)-1]}
	suffix := pattern{s[1:]}
	if prefix.seg == suffix.seg {
		return []core.Pattern{prefix}
	}
	return []core.Pattern{prefix, suffix}
}

// Goodness implements core.Problem: the occurrence number of the
// motif over the whole database, within the allowed mutations.
func (pr *Problem) Goodness(p core.Pattern) float64 {
	s := p.(pattern).seg
	if s == "" {
		return float64(len(pr.Seqs))
	}
	if pr.SubpatternPruning && len(s) > 1 {
		// occurrence(*S*) <= occurrence of any subpattern (section
		// 2.3.4). In the E-tree traversal the parent (the prefix) is
		// always good, but the suffix subpattern may already be cached
		// from another branch; if either bound is below the minimum,
		// skip the expensive matcher.
		pre, ok := pr.cache.Load(s[:len(s)-1])
		bound, _ := pre.(int)
		if suf, sok := pr.cache.Load(s[1:]); sok && (!ok || suf.(int) < bound) {
			bound, ok = suf.(int), true
		}
		if ok && bound < pr.Params.MinOccur {
			pr.skips.Add(1)
			pr.cache.Store(s, bound)
			return float64(bound)
		}
	}
	var occ int
	if pr.Params.MaxMut == 0 {
		// Exact occurrence numbers come straight from a GST over the
		// full database only when the sample is the full database;
		// otherwise fall back to scanning.
		if pr.Params.SampleSize == 0 || pr.Params.SampleSize >= len(pr.Seqs) {
			occ = pr.gst.SeqCount(s)
		} else {
			occ = seq.NaiveSeqCount(pr.Seqs, s)
		}
	} else { // the one-segment slice stays on the stack: the matcher keeps no reference
		occ = seq.Motif{Segments: []string{s}}.OccurrenceNo(pr.Seqs, pr.Params.MaxMut)
	}
	pr.occCnt.Add(1)
	if pr.SubpatternPruning {
		pr.cache.Store(s, occ)
	}
	return float64(occ)
}

// Good implements core.Problem.
func (pr *Problem) Good(p core.Pattern, goodness float64) bool {
	if p.Len() == 0 {
		return true
	}
	return int(goodness) >= pr.Params.MinOccur
}

// Cost implements core.CostModel: matching a motif of length m against
// the database costs ~ m * total sequence length (times the mutation
// band). Units are arbitrary; the experiments scale them to reference
// seconds.
// It models the paper's reference machine, which internal/now is calibrated on, not seq's kernel.
func (pr *Problem) Cost(p core.Pattern) float64 {
	m := p.Len()
	if m == 0 {
		return 0
	}
	band := float64(pr.Params.MaxMut + 1)
	return float64(m) * float64(pr.total) * band * 1e-7
}

// MatcherRuns reports how many goodness evaluations actually ran the
// matcher, and how many the subpattern-pruning heuristic skipped.
func (pr *Problem) MatcherRuns() (ran, skipped int) {
	return int(pr.occCnt.Load()), int(pr.skips.Load())
}

// ActiveMotifs filters traversal results down to the motifs the user
// asked for: good patterns meeting the length minimum.
func (pr *Problem) ActiveMotifs(results []core.Result) []core.Result {
	var out []core.Result
	for _, r := range results {
		if r.Pattern.Len() >= pr.Params.MinLength {
			out = append(out, r)
		}
	}
	return out
}

// Discover runs the sequential discovery (E-tree traversal) and
// returns the active motifs.
func Discover(seqs []string, params Params) []core.Result {
	pr := NewProblem(seqs, params)
	res, _ := core.SolveETTSequential(pr)
	return pr.ActiveMotifs(res)
}

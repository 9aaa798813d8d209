// Package episode implements frequent episode discovery over event
// sequences, one of the future-work applications section 8.2 of "Free
// Parallel Data Mining" names for the E-dag framework ("market basket
// analysis, frequent episode discovery"). A serial episode is an
// ordered tuple of event types; it is frequent when it occurs — in
// order, within a sliding window of fixed width — in at least a
// minimum number of window positions (the WINEPI counting of Mannila
// et al., contemporaneous with the dissertation).
//
// The pattern lattice fits the chapter 3 model exactly: children
// extend an episode by one event type on the right, the immediate
// subpatterns are the prefix and the suffix, and window support is
// antimonotone, so every traversal engine in internal/core applies.
package episode

import (
	"fmt"
	"math/rand"
	"strings"

	"freepdm/internal/core"
)

// Stream is a sequence of event types, each an integer in [0, Types).
type Stream struct {
	Events []int
	Types  int
}

// Episode is a serial episode: event types in order.
type Episode []int

// Key is the canonical form, e.g. "<3 1 4>".
func (e Episode) Key() string {
	parts := make([]string, len(e))
	for i, t := range e {
		parts[i] = fmt.Sprint(t)
	}
	return "<" + strings.Join(parts, " ") + ">"
}

// ParseEpisode parses the Key form.
func ParseEpisode(key string) (Episode, error) {
	key = strings.Trim(key, "<>")
	if key == "" {
		return nil, nil
	}
	var out Episode
	for _, f := range strings.Fields(key) {
		var v int
		if _, err := fmt.Sscan(f, &v); err != nil {
			return nil, fmt.Errorf("episode: bad key %q: %w", key, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// WindowSupport counts the window positions [i, i+width) of the stream
// that contain the episode as an in-order subsequence.
func (s *Stream) WindowSupport(e Episode, width int) int {
	if len(e) == 0 {
		return len(s.Events)
	}
	if len(e) > width {
		return 0
	}
	count := 0
	for start := 0; start+width <= len(s.Events); start++ {
		k := 0
		for i := start; i < start+width && k < len(e); i++ {
			if s.Events[i] == e[k] {
				k++
			}
		}
		if k == len(e) {
			count++
		}
	}
	return count
}

// Problem is the discovery task as an E-dag application. It implements
// core.Problem, core.Decoder and core.CostModel.
type Problem struct {
	Stream     *Stream
	Width      int // window width
	MinSupport int // minimum number of supporting windows
	MaxLen     int // exploration bound (0 = Width)
}

// NewProblem binds the adapter.
func NewProblem(s *Stream, width, minSupport, maxLen int) *Problem {
	if maxLen <= 0 || maxLen > width {
		maxLen = width
	}
	return &Problem{Stream: s, Width: width, MinSupport: minSupport, MaxLen: maxLen}
}

type pattern struct{ e Episode }

func (p pattern) Key() string { return p.e.Key() }
func (p pattern) Len() int    { return len(p.e) }

// Root implements core.Problem.
func (pr *Problem) Root() core.Pattern { return pattern{} }

// Decode implements core.Decoder. A key decodes only if it is the Key
// of an episode over the stream's event types, so that no pattern has a
// second spelling that a string comparison of keys would miss.
func (pr *Problem) Decode(key string) (core.Pattern, error) {
	e, err := ParseEpisode(key)
	if err != nil {
		return nil, err
	}
	for _, t := range e {
		if t < 0 || t >= pr.Stream.Types {
			return nil, fmt.Errorf("episode: key %q has an event type outside [0, %d)", key, pr.Stream.Types)
		}
	}
	if e.Key() != key {
		return nil, fmt.Errorf("episode: key %q is not in canonical form %q", key, e.Key())
	}
	return pattern{e}, nil
}

// Children implements core.Problem: append each event type.
func (pr *Problem) Children(p core.Pattern) []core.Pattern {
	e := p.(pattern).e
	if len(e) >= pr.MaxLen {
		return nil
	}
	out := make([]core.Pattern, 0, pr.Stream.Types)
	for t := 0; t < pr.Stream.Types; t++ {
		child := append(append(Episode(nil), e...), t)
		out = append(out, pattern{child})
	}
	return out
}

// Subpatterns implements core.Problem: prefix and suffix.
func (pr *Problem) Subpatterns(p core.Pattern) []core.Pattern {
	e := p.(pattern).e
	if len(e) <= 1 {
		return []core.Pattern{pattern{}}
	}
	prefix := pattern{e[:len(e)-1]}
	suffix := pattern{e[1:]}
	if prefix.Key() == suffix.Key() {
		return []core.Pattern{prefix}
	}
	return []core.Pattern{prefix, suffix}
}

// Goodness implements core.Problem: window support.
func (pr *Problem) Goodness(p core.Pattern) float64 {
	return float64(pr.Stream.WindowSupport(p.(pattern).e, pr.Width))
}

// Good implements core.Problem.
func (pr *Problem) Good(p core.Pattern, g float64) bool {
	if p.Len() == 0 {
		return true
	}
	return int(g) >= pr.MinSupport
}

// Cost implements core.CostModel: a window scan of the stream.
func (pr *Problem) Cost(p core.Pattern) float64 {
	return float64(len(pr.Stream.Events)) * float64(pr.Width) * 1e-7
}

// Frequent converts traversal results into episodes with supports,
// dropping the root.
func Frequent(results []core.Result) map[string]int {
	out := map[string]int{}
	for _, r := range results {
		if r.Pattern.Len() > 0 {
			out[r.Pattern.Key()] = int(r.Goodness)
		}
	}
	return out
}

// Discover runs the sequential E-dag traversal.
func Discover(s *Stream, width, minSupport, maxLen int) map[string]int {
	res, _ := core.SolveSequential(NewProblem(s, width, minSupport, maxLen))
	return Frequent(res)
}

// GenerateStream produces a random event stream with planted episodic
// patterns: each planted episode's events are injected in order within
// short spans, at the given rate per position.
func GenerateStream(length, types int, planted []Episode, rate float64, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	ev := make([]int, length)
	for i := range ev {
		ev[i] = rng.Intn(types)
	}
	for _, e := range planted {
		n := int(float64(length) * rate)
		for k := 0; k < n; k++ {
			pos := rng.Intn(length - 2*len(e))
			for _, t := range e {
				ev[pos] = t
				pos += 1 + rng.Intn(2) // small gaps within the span
			}
		}
	}
	return &Stream{Events: ev, Types: types}
}

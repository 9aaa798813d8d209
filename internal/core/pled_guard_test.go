package core_test

import (
	"sync"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/mining/motif"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
)

// keyCounter counts a problem's Goodness calls per key.
type keyCounter struct {
	core.Problem
	mu    sync.Mutex
	evals map[string]int
}

func (p *keyCounter) Goodness(pat core.Pattern) float64 {
	p.mu.Lock()
	p.evals[pat.Key()]++
	p.mu.Unlock()
	return p.Problem.Goodness(pat)
}

func (p *keyCounter) Decode(key string) (core.Pattern, error) {
	return p.Problem.(core.Decoder).Decode(key)
}

func sameResultSets(t *testing.T, want, got []core.Result, who string) {
	t.Helper()
	core.SortResults(got)
	if len(want) != len(got) {
		t.Fatalf("%s found %d patterns, sequential found %d", who, len(got), len(want))
	}
	for i := range want {
		if wk, gk := want[i].Pattern.Key(), got[i].Pattern.Key(); wk != gk || want[i].Goodness != got[i].Goodness {
			t.Fatalf("%s result %d is (%q, %v), sequential has (%q, %v)", who, i, gk, got[i].Goodness, wk, want[i].Goodness)
		}
	}
}

// TestPLEDGrainGuard is the clock-free guard on the PLED level grain, on
// the toy problem and on the benchmark's exact-motif input. What a run
// does is a pure function of its input, so every count is exact: it
// keeps the E-dag prune — it evaluates exactly the patterns
// SolveSequential does, each once — returns the sequential results,
// commits once for the seed, once per chunk and once per level, and once
// per worker's poison exit (core.PLEDChunks reads the levels and chunks
// off the sequential results), and leaves the space empty. A change that
// quietly puts a per-pattern or per-result round trip back, or a tuple
// nobody takes, fails here, on any machine.
func TestPLEDGrainGuard(t *testing.T) {
	const workers = 2
	for name, build := range map[string]func() core.Problem{
		"toy": func() core.Problem { return core.NewToyProblem(16, 400, 0.005, 82) },
		"motif-exact": func() core.Problem {
			spec := seq.CyclinsSpec(7)
			spec.Length = 80
			return motif.NewProblem(spec.Generate(), motif.Params{MinOccur: 5, MinLength: 12, MaxLength: 24})
		},
	} {
		t.Run(name, func(t *testing.T) {
			seqRes, st := core.SolveSequential(build())
			if st.Evaluated < 64*8 {
				t.Fatalf("the E-dag has %d evaluated patterns: too small to tell the grains apart", st.Evaluated)
			}
			levels, chunks := core.PLEDChunks(seqRes, workers)
			p := &keyCounter{Problem: build(), evals: map[string]int{}}
			reg := obs.NewRegistry()
			core.SetObserver(reg, nil)
			defer core.SetObserver(nil, nil)
			srv := plinda.NewServer()
			defer srv.Close()
			res, err := core.RunPLED(srv, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameResultSets(t, seqRes, res, "PLED")
			if len(p.evals) != st.Evaluated {
				t.Errorf("PLED evaluated %d distinct patterns, sequential evaluates %d", len(p.evals), st.Evaluated)
			}
			for k, n := range p.evals {
				if n != 1 {
					t.Errorf("%s was evaluated %d times", k, n)
				}
			}
			commits, want := srv.Commits(), 1+chunks+levels+workers
			t.Logf("%d evaluations, %d levels, %d chunks, %d commits", st.Evaluated, levels, chunks, commits)
			if commits != want {
				t.Errorf("%d commits, the protocol makes %d: the seed, %d chunks, %d levels and %d poison exits", commits, want, chunks, levels, workers)
			}
			if n, err := srv.Space().Len(); err != nil || n != 0 {
				t.Errorf("the run left %d tuples in the space (err %v)", n, err)
			}
			// The observer counts task tuples (one worker commit each)
			// and result and good keys, which are the same keys: only
			// good patterns travel.
			c := reg.Snapshot().Counters
			if c["core.tasks"] != int64(chunks) || c["core.results"] != int64(st.Good) || c["core.good"] != int64(st.Good) || c["core.evaluated"] != int64(st.Evaluated) {
				t.Errorf("observer read core.tasks %d, core.results %d, core.good %d, core.evaluated %d; want %d task tuples, %d result and good keys and %d evaluations",
					c["core.tasks"], c["core.results"], c["core.good"], c["core.evaluated"], chunks, st.Good, st.Evaluated)
			}
		})
	}
}

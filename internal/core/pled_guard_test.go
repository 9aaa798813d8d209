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

// TestPLEDGrainGuard is the clock-free guard on the PLED task grain, on
// the toy problem and on the benchmark's exact-motif input: a run keeps
// the E-dag prune — it evaluates exactly the patterns SolveSequential
// does, each dispatched once — returns the sequential results, and
// commits at most once per eight evaluations. A change that quietly puts
// the per-pattern round trip back fails here, on any machine: the commit
// count moves with how many results wait for the master each time it
// looks, but stays under half the bound with -race on a busy CPU (27–39
// of 81 on the toy tree, 76–141 of 347 on the motif run). The replay
// subtest guards the cost under the grain: the master's scheduling
// state, driven alone with goodness inline, may allocate at most 1.5
// times what the whole of SolveSequential does on the same input (the
// three-map, map-per-candidate, Decode-per-result state read 1.70).
func TestPLEDGrainGuard(t *testing.T) {
	motifExact := func() core.Problem {
		spec := seq.CyclinsSpec(7)
		spec.Length = 80
		return motif.NewProblem(spec.Generate(), motif.Params{MinOccur: 5, MinLength: 12, MaxLength: 24})
	}
	for name, build := range map[string]func() core.Problem{
		"toy":         func() core.Problem { return core.NewToyProblem(16, 400, 0.005, 82) },
		"motif-exact": motifExact,
	} {
		t.Run(name, func(t *testing.T) {
			seqRes, st := core.SolveSequential(build())
			if st.Evaluated < 64*8 {
				t.Fatalf("the E-dag has %d evaluated patterns: too small to tell the grains apart", st.Evaluated)
			}
			p := &keyCounter{Problem: build(), evals: map[string]int{}}
			reg := obs.NewRegistry()
			core.SetObserver(reg, nil)
			defer core.SetObserver(nil, nil)
			srv := plinda.NewServer()
			defer srv.Close()
			res, err := core.RunPLED(srv, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameResultSets(t, seqRes, res, "PLED")
			if len(p.evals) != st.Evaluated {
				t.Errorf("PLED evaluated %d distinct patterns, sequential evaluates %d", len(p.evals), st.Evaluated)
			}
			for k, n := range p.evals {
				if n != 1 {
					t.Errorf("task %s was dispatched %d times", k, n)
				}
			}
			commits := srv.Commits()
			t.Logf("%d evaluations, %d commits", st.Evaluated, commits)
			if commits > st.Evaluated/8 {
				t.Errorf("%d commits for %d evaluations, want at most one per 8", commits, st.Evaluated)
			}
			// The observer counts task tuples (one worker commit each)
			// and result and good keys.
			c := reg.Snapshot().Counters
			if c["core.results"] != int64(st.Evaluated) || c["core.good"] != int64(st.Good) ||
				c["core.tasks"] < 1 || c["core.tasks"] >= int64(commits) {
				t.Errorf("observer read core.results %d, core.good %d, core.tasks %d; want %d result keys, %d good keys and fewer task tuples than the %d commits",
					c["core.results"], c["core.good"], c["core.tasks"], st.Evaluated, st.Good, commits)
			}
		})
	}

	t.Run("replay-allocs", func(t *testing.T) {
		pr := motifExact()
		seqRes, st := core.SolveSequential(pr)
		res, applied, err := core.ReplayPLED(pr)
		if err != nil {
			t.Fatal(err)
		}
		sameResultSets(t, seqRes, res, "the replayed master")
		if applied != st.Evaluated {
			t.Fatalf("the replayed master applied %d events, sequential evaluates %d", applied, st.Evaluated)
		}
		seqAllocs := testing.AllocsPerRun(5, func() { core.SolveSequential(pr) })
		replayAllocs := testing.AllocsPerRun(5, func() { core.ReplayPLED(pr) }) //nolint:errcheck — checked above
		t.Logf("allocations: sequential %.0f, master replay %.0f (%.2fx)", seqAllocs, replayAllocs, replayAllocs/seqAllocs)
		if replayAllocs > 1.5*seqAllocs {
			t.Errorf("the master's replay allocates %.0f times, %.2fx SolveSequential's %.0f; want at most 1.5x",
				replayAllocs, replayAllocs/seqAllocs, seqAllocs)
		}
	})
}

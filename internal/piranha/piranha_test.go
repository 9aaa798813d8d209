package piranha

import (
	"errors"
	"sync/atomic"
	"testing"
)

func squareTasks(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{ID: i, Payload: i}
	}
	return ts
}

func squareCfg(loads *atomic.Int64) Config {
	return Config{
		LoadState: func() any {
			if loads != nil {
				loads.Add(1)
			}
			return "problem-state"
		},
		Work: func(state any, t Task) (any, error) {
			if state != "problem-state" {
				return nil, errors.New("state not loaded")
			}
			v := t.Payload.(int)
			return v * v, nil
		},
	}
}

func TestAllTasksComplete(t *testing.T) {
	results, st, err := Run(squareCfg(nil), squareTasks(50), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 || st.TasksDone != 50 {
		t.Fatalf("results=%d done=%d", len(results), st.TasksDone)
	}
	for i := 0; i < 50; i++ {
		if results[i] != i*i {
			t.Fatalf("results[%d]=%v", i, results[i])
		}
	}
}

// TestRetreatsForceStateReload checks the retreat accounting on what
// holds under every schedule. A piranha loads the state once per stay —
// on joining and after every retreat that finds work left — and retreats
// at most once per stay, so Retreats <= StateLoads <= width + Retreats:
// were a rejoin to skip the reload, the loads would stop at the width
// while the retreats went on. (StateLoads == width + Retreats is not an
// invariant: a piranha whose last act is a retreat, or that starts after
// the bag is empty, loads one time fewer.) The owners return from inside
// Work, on the first task of each of the first stays, two events each:
// the signaller takes the second only after it has raised the flag for
// the first, so with one piranha the flag is up when Work returns, every
// return is a retreat with most of the bag left, and work after it must
// run on a state loaded since.
func TestRetreatsForceStateReload(t *testing.T) {
	type stay struct {
		n         int64
		signalled atomic.Bool
	}
	const owners = 3
	for _, width := range []int{1, 3} {
		var loads atomic.Int64
		retreats := make(chan struct{})
		cfg := Config{
			LoadState: func() any { return &stay{n: loads.Add(1)} },
			Work: func(state any, task Task) (any, error) {
				s := state.(*stay)
				if width == 1 && s.n != loads.Load() {
					return nil, errors.New("work on a state loaded before the last retreat")
				}
				if s.n <= owners && s.signalled.CompareAndSwap(false, true) {
					retreats <- struct{}{}
					retreats <- struct{}{}
				}
				v := task.Payload.(int)
				return v * v, nil
			},
		}
		results, st, err := Run(cfg, squareTasks(200), width, retreats)
		close(retreats)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 200 {
			t.Fatalf("width %d: lost results: %d", width, len(results))
		}
		if st.StateLoads != int(loads.Load()) {
			t.Fatalf("width %d: stats.StateLoads=%d loads=%d", width, st.StateLoads, loads.Load())
		}
		if st.StateLoads < st.Retreats || st.StateLoads > width+st.Retreats {
			t.Fatalf("width %d: loads=%d retreats=%d: want one load per join and per retreat that found work left",
				width, st.StateLoads, st.Retreats)
		}
		if width == 1 && st.Retreats < owners {
			t.Fatalf("%d owners returned, %d retreats: the scenario asserted nothing", owners, st.Retreats)
		}
	}
}

func TestWorkErrorStopsRun(t *testing.T) {
	cfg := Config{Work: func(_ any, t Task) (any, error) {
		if t.Payload.(int) == 3 {
			return nil, errors.New("bad task")
		}
		return t.Payload, nil
	}}
	_, _, err := Run(cfg, squareTasks(10), 2, nil)
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestEmptyTaskList(t *testing.T) {
	results, st, err := Run(squareCfg(nil), nil, 3, nil)
	if err != nil || len(results) != 0 || st.TasksDone != 0 {
		t.Fatalf("results=%v st=%+v err=%v", results, st, err)
	}
}

func TestNoWorkFunction(t *testing.T) {
	if _, _, err := Run(Config{}, squareTasks(1), 1, nil); err == nil {
		t.Fatal("accepted config without Work")
	}
}

func TestSinglePiranha(t *testing.T) {
	results, _, err := Run(squareCfg(nil), squareTasks(20), 1, nil)
	if err != nil || len(results) != 20 {
		t.Fatalf("results=%d err=%v", len(results), err)
	}
}

func BenchmarkRun4Piranhas(b *testing.B) {
	cfg := squareCfg(nil)
	for i := 0; i < b.N; i++ {
		Run(cfg, squareTasks(64), 4, nil)
	}
}

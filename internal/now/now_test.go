package now

import (
	"math"
	"testing"
	"testing/quick"

	"freepdm/internal/obs"
)

func tasks(costs ...float64) []*Task {
	ts := make([]*Task, len(costs))
	for i, c := range costs {
		ts[i] = &Task{Cost: c}
	}
	return ts
}

func TestSingleMachineIsSumPlusOverhead(t *testing.T) {
	c := &Cluster{Machines: Uniform(1), Overhead: 0.5}
	res := c.Run(tasks(1, 2, 3))
	if want := 1 + 2 + 3 + 3*0.5; math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan=%v want %v", res.Makespan, want)
	}
	if res.Tasks != 3 {
		t.Fatalf("tasks=%d", res.Tasks)
	}
}

func TestTwoMachinesHalveIndependentWork(t *testing.T) {
	c := &Cluster{Machines: Uniform(2)}
	res := c.Run(tasks(1, 1, 1, 1))
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Fatalf("makespan=%v want 2", res.Makespan)
	}
}

func TestStragglerBoundsMakespan(t *testing.T) {
	c := &Cluster{Machines: Uniform(4)}
	res := c.Run(tasks(10, 1, 1, 1))
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("makespan=%v want 10 (straggler)", res.Makespan)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	c := &Cluster{Machines: []Machine{{Speed: 2.0}}}
	res := c.Run(tasks(4))
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Fatalf("makespan=%v want 2 on a 2x machine", res.Makespan)
	}
}

func TestMasterPhasesAddSequentialTime(t *testing.T) {
	c := &Cluster{Machines: Uniform(2), MasterPre: 3, MasterPost: 2}
	res := c.Run(tasks(1, 1))
	if math.Abs(res.Makespan-(3+1+2)) > 1e-9 {
		t.Fatalf("makespan=%v want 6", res.Makespan)
	}
}

func TestSpawnedTasksRun(t *testing.T) {
	leaf := func() []*Task { return tasks(1, 1) }
	root := &Task{Cost: 1, Spawn: leaf}
	c := &Cluster{Machines: Uniform(2)}
	res := c.Run([]*Task{root})
	if res.Tasks != 3 {
		t.Fatalf("tasks=%d want 3", res.Tasks)
	}
	// root at [0,1] on m0, then two leaves in parallel [1,2].
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Fatalf("makespan=%v want 2", res.Makespan)
	}
}

func TestFailureRequeuesTask(t *testing.T) {
	// One machine fails at t=1 while running a 3-second task and comes
	// back at t=2: the task restarts, finishing at 2+3=5.
	c := &Cluster{Machines: []Machine{{Speed: 1, FailAt: 1, BackAt: 2}}}
	res := c.Run(tasks(3))
	if res.Retries != 1 {
		t.Fatalf("retries=%d want 1", res.Retries)
	}
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Fatalf("makespan=%v want 5", res.Makespan)
	}
	if res.Tasks != 1 {
		t.Fatalf("tasks=%d want 1 (no double-count)", res.Tasks)
	}
}

func TestFailedMachineWorkMovesElsewhere(t *testing.T) {
	// Machine 0 dies for good at t=1; machine 1 picks up the re-queued
	// task after finishing its own.
	c := &Cluster{Machines: []Machine{{Speed: 1, FailAt: 1, BackAt: 0}, {Speed: 1}}}
	res := c.Run(tasks(3, 2))
	// m0 runs 3s-task, killed at 1; m1 runs 2s task [0,2], then redoes
	// the 3s task [2,5].
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Fatalf("makespan=%v want 5", res.Makespan)
	}
	if res.Tasks != 2 || res.Retries != 1 {
		t.Fatalf("tasks=%d retries=%d", res.Tasks, res.Retries)
	}
}

func TestLateJoinDelaysStart(t *testing.T) {
	c := &Cluster{Machines: []Machine{{Speed: 1, JoinAt: 4}}}
	res := c.Run(tasks(1))
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Fatalf("makespan=%v want 5", res.Makespan)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Result {
		spawner := &Task{Cost: 2, Spawn: func() []*Task { return tasks(1, 2, 3, 4) }}
		c := &Cluster{Machines: Heterogeneous(3, 1.0, 0.8, 1.2), Overhead: 0.1}
		return c.Run(append(tasks(5, 1), spawner))
	}
	a, b := mk(), mk()
	if a.Makespan != b.Makespan || a.Tasks != b.Tasks {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestEfficiencyHelpers(t *testing.T) {
	if s := Speedup(100, 25); s != 4 {
		t.Fatalf("speedup=%v", s)
	}
	if e := Efficiency(100, 25, 5); e != 0.8 {
		t.Fatalf("efficiency=%v", e)
	}
}

func TestUniformAndHeterogeneousConstructors(t *testing.T) {
	u := Uniform(3)
	if len(u) != 3 || u[2].Speed != 1.0 {
		t.Fatalf("uniform %v", u)
	}
	h := Heterogeneous(4, 1.0, 2.0)
	if h[0].Speed != 1.0 || h[1].Speed != 2.0 || h[2].Speed != 1.0 {
		t.Fatalf("heterogeneous %v", h)
	}
	if d := Heterogeneous(2); d[0].Speed != 1.0 {
		t.Fatalf("default speed %v", d)
	}
}

// Property: makespan is at least the critical lower bounds — max task
// cost and total work divided by total speed — and at most the
// sequential time plus overheads (for non-failing uniform clusters).
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(raw []uint8, nm uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		n := int(nm%8) + 1
		costs := make([]float64, len(raw))
		var total, maxc float64
		for i, r := range raw {
			costs[i] = float64(r%50) + 1
			total += costs[i]
			if costs[i] > maxc {
				maxc = costs[i]
			}
		}
		c := &Cluster{Machines: Uniform(n)}
		res := c.Run(tasks(costs...))
		lower := math.Max(maxc, total/float64(n))
		return res.Makespan >= lower-1e-9 && res.Makespan <= total+1e-9 && res.Tasks == len(costs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding machines never increases makespan for independent
// tasks dispatched FIFO (list scheduling on identical machines is
// monotone when tasks are independent and queue order is fixed).
func TestPropertyMoreMachinesNoWorse(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		costs := make([]float64, len(raw))
		for i, r := range raw {
			costs[i] = float64(r%20) + 1
		}
		prev := math.Inf(1)
		ok := true
		for n := 1; n <= 4; n *= 2 {
			c := &Cluster{Machines: Uniform(n)}
			res := c.Run(tasks(costs...))
			if res.Makespan > prev+1e-9 {
				ok = false
			}
			prev = res.Makespan
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulate1000Tasks(b *testing.B) {
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = float64(i%37) + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := &Cluster{Machines: Uniform(16), Overhead: 0.05}
		c.Run(tasks(costs...))
	}
}

func TestObservedRunRecordsMetricsAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	c := &Cluster{
		Machines: []Machine{{Speed: 1, FailAt: 1.5, BackAt: 2.5}, {Speed: 1}},
		Registry: reg,
		Tracer:   tr,
	}
	res := c.Run(tasks(1, 1, 1, 1))
	snap := reg.Snapshot()
	if got := snap.Counters["now.tasks"]; got != int64(res.Tasks) {
		t.Fatalf("now.tasks=%d want %d", got, res.Tasks)
	}
	if got := snap.Counters["now.retries"]; got != int64(res.Retries) {
		t.Fatalf("now.retries=%d want %d", got, res.Retries)
	}
	if res.Retries == 0 {
		t.Fatalf("expected the FailAt machine to lose a task")
	}
	// After the run every machine is idle and the failed machine is back.
	if got := snap.Gauges["now.busy_machines"]; got != 0 {
		t.Fatalf("busy_machines=%d want 0", got)
	}
	if got := snap.Gauges["now.up_machines"]; got != 2 {
		t.Fatalf("up_machines=%d want 2", got)
	}
	h := snap.Histograms["now.task"]
	if h.Count != int64(res.Tasks) {
		t.Fatalf("now.task count=%d want %d", h.Count, res.Tasks)
	}
	var busy, idle, down int
	for _, e := range tr.Events() {
		if e.Kind != "now" {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		switch e.Name {
		case "busy":
			busy++
		case "idle":
			idle++
		case "down":
			down++
		}
	}
	// Every completion had a dispatch; the lost execution was dispatched
	// but never completed.
	if busy != res.Tasks+res.Retries {
		t.Fatalf("busy events=%d want %d", busy, res.Tasks+res.Retries)
	}
	if idle != res.Tasks {
		t.Fatalf("idle events=%d want %d", idle, res.Tasks)
	}
	if down != 1 {
		t.Fatalf("down events=%d want 1", down)
	}
}

func TestUnobservedRunStillWorks(t *testing.T) {
	c := &Cluster{Machines: Uniform(2)}
	if res := c.Run(tasks(1, 1)); res.Tasks != 2 {
		t.Fatalf("tasks=%d", res.Tasks)
	}
}

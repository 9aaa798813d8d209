// Package now is a discrete-event simulator of a network of
// workstations (NOW), the computing platform of "Free Parallel Data
// Mining". The dissertation's timing experiments ran on LANs of up to
// ~50 Sun Sparc workstations; this simulator reproduces their shape
// (speedup, efficiency, crossovers) deterministically on a single host
// by replaying real task graphs — extracted from the actual mining
// algorithms in this repository — against a model of machines with
// heterogeneous speeds, late joins, owner reclaims, and crashes.
//
// The model is a dynamic master/worker pool: tasks carry a cost in
// seconds on a reference (speed 1.0) machine; completing a task may
// spawn more tasks (the load-balanced E-tree strategy); every task
// dispatch pays a tuple-space communication overhead. Machines take
// the oldest ready task when idle. A machine that fails (or whose
// owner returns) loses its current task, which is re-queued and
// re-executed from scratch — the PLinda transactional recovery cost.
package now

import (
	"container/heap"
	"time"

	"freepdm/internal/obs"
)

// Machine models one workstation.
type Machine struct {
	Speed  float64 // relative to the reference machine; 1.0 = Sparc 5
	JoinAt float64 // seconds after start when the machine becomes idle/available
	FailAt float64 // wall time of a failure / owner return; 0 = never
	BackAt float64 // wall time the machine becomes available again after FailAt
}

// Uniform returns n identical reference machines.
func Uniform(n int) []Machine {
	m := make([]Machine, n)
	for i := range m {
		m[i] = Machine{Speed: 1.0}
	}
	return m
}

// Heterogeneous returns n machines whose speeds cycle through the given
// factors, modeling the non-identical Sparcs of the large-network
// experiment (figure 4.14).
func Heterogeneous(n int, speeds ...float64) []Machine {
	if len(speeds) == 0 {
		speeds = []float64{1.0}
	}
	m := make([]Machine, n)
	for i := range m {
		m[i] = Machine{Speed: speeds[i%len(speeds)]}
	}
	return m
}

// Task is one unit of work in a simulated run.
type Task struct {
	Name  string
	Cost  float64        // seconds on a speed-1.0 machine
	Spawn func() []*Task // children released when this task commits; may be nil
}

// Cluster is a simulated NOW plus its coordination cost model.
type Cluster struct {
	Machines []Machine
	// Overhead is the per-task tuple-space coordination cost (take a
	// work tuple, commit a result tuple), in reference seconds.
	Overhead float64
	// MasterPre and MasterPost are sequential master phases before any
	// task is available and after the last result is collected.
	MasterPre, MasterPost float64

	// Registry and Tracer optionally observe the simulated run (either
	// may be nil). Counters/histograms use the "now." prefix; trace
	// events use kind "now" and cover machine up/down and worker
	// busy/idle transitions — the idle/busy timelines chapter 4 argues
	// its strategy choices from. Durations and the "t" attribute are in
	// simulated (virtual) time, scaled as 1 simulated second = 1s Dur.
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// simSeconds renders virtual seconds as a time.Duration for Event.Dur
// and histogram observations.
func simSeconds(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// Result summarizes a simulated run.
type Result struct {
	Makespan float64   // total wall time including master phases
	Tasks    int       // tasks executed to completion
	Retries  int       // task executions lost to failures and redone
	Busy     []float64 // per-machine busy seconds
}

// Speedup returns seq/par; Efficiency returns speedup/machines as a
// fraction in [0,1] (can exceed 1 for super-linear cases).
func Speedup(seq, par float64) float64 { return seq / par }

// Efficiency is speedup divided by the machine count.
func Efficiency(seq, par float64, machines int) float64 {
	return Speedup(seq, par) / float64(machines)
}

// event kinds
type evKind int

const (
	evTaskDone evKind = iota
	evMachineUp
	evMachineDown
)

type event struct {
	at    float64
	seq   int
	kind  evKind
	m     int   // machine index
	task  *Task // for evTaskDone
	epoch int   // dispatch epoch; a completion is stale if it mismatches
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Run simulates executing the initial tasks (and everything they
// spawn) on the cluster and returns the timing summary. It is
// deterministic: ties break by event insertion order and ready tasks
// are dispatched FIFO to the lowest-numbered idle machine.
func (c *Cluster) Run(initial []*Task) Result {
	type machState struct {
		up      bool
		busy    bool
		cur     *Task
		started float64
		epoch   int
	}
	n := len(c.Machines)
	ms := make([]machState, n)
	var q eventQueue
	seq := 0
	push := func(at float64, kind evKind, m int, t *Task, epoch int) {
		heap.Push(&q, &event{at: at, seq: seq, kind: kind, m: m, task: t, epoch: epoch})
		seq++
	}
	start := c.MasterPre
	for i, m := range c.Machines {
		push(start+m.JoinAt, evMachineUp, i, nil, 0)
		if m.FailAt > 0 {
			push(start+m.FailAt, evMachineDown, i, nil, 0)
			if m.BackAt > m.FailAt {
				push(start+m.BackAt, evMachineUp, i, nil, 0)
			}
		}
	}

	ready := append([]*Task(nil), initial...)
	res := Result{Busy: make([]float64, n)}
	nowT := start

	var (
		mTasks   = c.Registry.Counter("now.tasks")
		mRetries = c.Registry.Counter("now.retries")
		mBusy    = c.Registry.Gauge("now.busy_machines")
		mUp      = c.Registry.Gauge("now.up_machines")
		mTaskDur = c.Registry.Histogram("now.task")
	)
	// Gauges describe the run in progress; restart them per Run.
	mBusy.Set(0)
	mUp.Set(0)

	dispatch := func() {
		for len(ready) > 0 {
			mi := -1
			for i := range ms {
				if ms[i].up && !ms[i].busy {
					mi = i
					break
				}
			}
			if mi < 0 {
				return
			}
			t := ready[0]
			ready = ready[1:]
			ms[mi].busy = true
			ms[mi].cur = t
			ms[mi].started = nowT
			ms[mi].epoch++
			dur := (c.Overhead + t.Cost) / c.Machines[mi].Speed
			mBusy.Add(1)
			if c.Tracer != nil {
				c.Tracer.Emit(obs.Event{Kind: "now", Name: "busy", Attrs: map[string]any{"machine": mi, "task": t.Name, "t": nowT}})
			}
			push(nowT+dur, evTaskDone, mi, t, ms[mi].epoch)
		}
	}

	outstanding := len(ready)
	for q.Len() > 0 {
		e := heap.Pop(&q).(*event)
		nowT = e.at
		switch e.kind {
		case evMachineUp:
			ms[e.m].up = true
			mUp.Add(1)
			if c.Tracer != nil {
				c.Tracer.Emit(obs.Event{Kind: "now", Name: "up", Attrs: map[string]any{"machine": e.m, "t": nowT}})
			}
		case evMachineDown:
			ms[e.m].up = false
			mUp.Add(-1)
			if c.Tracer != nil {
				c.Tracer.Emit(obs.Event{Kind: "now", Name: "down", Attrs: map[string]any{"machine": e.m, "t": nowT}})
			}
			if ms[e.m].busy {
				// The task is lost with the incarnation and re-queued;
				// PLinda's abort makes the partial execution vanish.
				res.Retries++
				mRetries.Inc()
				ready = append(ready, ms[e.m].cur)
				ms[e.m].busy = false
				ms[e.m].cur = nil
				mBusy.Add(-1)
			}
		case evTaskDone:
			if !ms[e.m].up || ms[e.m].cur != e.task || ms[e.m].epoch != e.epoch {
				// Stale completion of a task whose machine went down.
				continue
			}
			ms[e.m].busy = false
			ms[e.m].cur = nil
			res.Busy[e.m] += nowT - ms[e.m].started
			res.Tasks++
			mTasks.Inc()
			mBusy.Add(-1)
			mTaskDur.Observe(simSeconds(nowT - ms[e.m].started))
			if c.Tracer != nil {
				c.Tracer.Emit(obs.Event{Kind: "now", Name: "idle", Dur: simSeconds(nowT - ms[e.m].started),
					Attrs: map[string]any{"machine": e.m, "task": e.task.Name, "t": nowT}})
			}
			outstanding--
			if e.task.Spawn != nil {
				children := e.task.Spawn()
				ready = append(ready, children...)
				outstanding += len(children)
			}
		}
		dispatch()
		if outstanding == 0 && len(ready) == 0 {
			break
		}
	}
	res.Makespan = nowT + c.MasterPost
	return res
}

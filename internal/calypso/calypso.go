// Package calypso implements the essential runtime semantics of
// Calypso (section 2.4.4 of "Free Parallel Data Mining"), one of the
// four NOW platforms the dissertation surveys before choosing PLinda:
// shared-memory parallel steps with
//
//   - eager scheduling: once every routine instance has been assigned,
//     idle workers re-execute instances that are started but not yet
//     finished, so slow or failed machines never stall a parallel step;
//   - evasive memory: writes are idempotent — the first completion of
//     an instance wins and later (redundant) completions of the same
//     instance are ignored, so a slow worker cannot clobber memory
//     with out-of-date values;
//   - CR&EW discipline: routines may concurrently read shared state
//     but each shared cell is written by at most one routine instance.
//
// The package exists so the Table 2.3 platform comparison can be run
// as code rather than prose: the same workload executes on Calypso,
// Piranha and PLinda under failure injection (see the t2.3 experiment).
package calypso

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Routine is one parallel routine of a parbegin/parend step: the body
// receives the instance number and the total number of instances,
// mirroring CSL's routine[instances] syntax. The body must confine its
// writes to the instance's own partition of shared state (exclusive
// write); it returns the instance's updates as a generic diff applied
// under the evasive-memory rule.
type Routine struct {
	Name      string
	Instances int
	Body      func(instance, instances int) (Update, error)
}

// Update is the set of shared-variable modifications one routine
// instance produced; Apply installs them. Updates are applied at most
// once per instance (evasive memory).
type Update func()

// Worker models one compute server: a relative speed and a crash
// point. Failed workers simply stop taking work; eager scheduling
// covers for them.
type Worker struct {
	Speed     float64 // informational; scheduling is work-stealing
	FailAfter int     // instance executions before this worker dies; 0 = never
}

// Stats reports what a parallel step did.
type Stats struct {
	Executions int // total body executions, including redundant ones
	Redundant  int // executions whose update was discarded
	Failures   int // worker deaths during the step
}

// ErrNoWorkers is returned when a step runs with an empty machine set.
var ErrNoWorkers = errors.New("calypso: no workers")

// progress is the progress-manager table: per instance, whether it has
// been completed (its update applied).
type progress struct {
	mu        sync.Mutex
	completed []bool
	remaining int
	execs     int
	redundant int
}

// nextUnfinished returns an instance that is not yet completed,
// preferring unstarted ones; started is the assignment counter the
// progress manager uses for the first pass.
func (p *progress) done(i int, up Update) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.execs++
	if p.completed[i] {
		p.redundant++
		return false
	}
	// First completion wins: apply the update inside the lock so the
	// memory manager's view is serialized.
	up()
	p.completed[i] = true
	p.remaining--
	return true
}

func (p *progress) finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining == 0
}

// ParBegin executes the routines of one parallel step on the given
// workers and blocks until every instance has completed at least once
// (parend). Routine bodies may be executed more than once; their
// updates are applied exactly once. A step with failing workers
// completes as long as at least one worker survives; if all workers
// die, ParBegin returns an error naming the unfinished instances.
func ParBegin(workers []Worker, routines ...Routine) (Stats, error) {
	if len(workers) == 0 {
		return Stats{}, ErrNoWorkers
	}
	type inst struct {
		r *Routine
		i int
	}
	var all []inst
	for ri := range routines {
		r := &routines[ri]
		if r.Instances <= 0 {
			r.Instances = 1
		}
		for i := 0; i < r.Instances; i++ {
			all = append(all, inst{r, i})
		}
	}
	prog := &progress{completed: make([]bool, len(all)), remaining: len(all)}

	// The progress manager hands out instance indexes: first each
	// instance once, then (eager scheduling) unfinished ones again. The
	// first round is dealt, worker w starting on instance w, so every
	// machine joins the step however the goroutines are scheduled.
	var asg struct {
		sync.Mutex
		next int
	}
	asg.next = min(len(workers), len(all))
	take := func() (int, bool) {
		asg.Lock()
		defer asg.Unlock()
		// First pass: unassigned instances.
		if asg.next < len(all) {
			i := asg.next
			asg.next++
			return i, true
		}
		// Eager pass: any instance not yet completed.
		prog.mu.Lock()
		defer prog.mu.Unlock()
		for i, done := range prog.completed {
			if !done {
				return i, true
			}
		}
		return -1, false
	}

	var wg sync.WaitGroup
	var failures sync.Map
	var firstErr error
	var errMu sync.Mutex
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w Worker) {
			defer wg.Done()
			i, ok := wi, true
			if wi >= len(all) {
				i, ok = take()
			}
			for execs := 1; ok; execs++ {
				in := all[i]
				up, err := in.r.Body(in.i, in.r.Instances)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("calypso: routine %s[%d]: %w", in.r.Name, in.i, err)
					}
					errMu.Unlock()
					return
				}
				prog.done(i, up)
				if w.FailAfter > 0 && execs >= w.FailAfter {
					failures.Store(wi, true)
					return // the machine is gone; eager scheduling covers
				}
				// Yield between instances so workers interleave even on
				// a single-CPU host (each instance is a separate machine
				// timeslice in the model).
				runtime.Gosched()
				if prog.finished() {
					return
				}
				i, ok = take()
			}
		}(wi, w)
	}
	wg.Wait()

	st := Stats{Executions: prog.execs, Redundant: prog.redundant}
	failures.Range(func(any, any) bool { st.Failures++; return true })
	if firstErr != nil {
		return st, firstErr
	}
	if !prog.finished() {
		return st, fmt.Errorf("calypso: step incomplete: all %d workers failed", len(workers))
	}
	return st, nil
}

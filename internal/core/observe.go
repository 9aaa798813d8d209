package core

import (
	"sync/atomic"
	"time"

	"freepdm/internal/obs"
)

// coreObs is the package-wide instrument set shared by the traversal
// engines (SolveEDT/SolveETT) and the PLinda masters (RunPLED/RunPLET).
// It lives behind an atomic pointer so the engines' hot loops pay one
// pointer load when unobserved.
type coreObs struct {
	reg       *obs.Registry
	tracer    *obs.Tracer
	evaluated *obs.Counter   // patterns whose goodness was computed
	good      *obs.Counter   // patterns that passed the predicate (PLED, PLET: counted by the master after its commit — PLED a level's good keys at a time, duplicate and stale reports in none; PLET fresh keys only)
	pruned    *obs.Counter   // patterns skipped by subpattern pruning (SolveEDT; a PLED worker drops them uncounted)
	tasks     *obs.Counter   // task tuples sent, not patterns or poison: PLED chunks, the level-0 seed among them, added once per master transaction after its commit; PLET seed and spilled bundles
	results   *obs.Counter   // results collected by masters, in keys, not result tuples (PLED: the keys the level's reports carried — only good patterns travel, so it moves with good; PLET: good patterns, fresh keys only)
	goodness  *obs.Histogram // per-pattern evaluation latency
}

var coreObserver atomic.Pointer[coreObs]

// SetObserver attaches a metrics registry and/or tracer to the mining
// engines in this package (either may be nil; nil+nil detaches).
// Metrics use the "core." prefix; trace events use kind "master" and
// mark the phase transitions of the parallel traversals: E-dag level
// completions (SolveEDT's, and one "level" event per PLED master
// transaction with the depth evaluated, the chunks that reported and the
// good patterns they found), task seeding, and worker poisoning.
// The observer is package-global because the engines are free
// functions; callers that need isolation should use separate
// registries per run.
func SetObserver(reg *obs.Registry, tracer *obs.Tracer) {
	if reg == nil && tracer == nil {
		coreObserver.Store(nil)
		return
	}
	coreObserver.Store(&coreObs{
		reg:       reg,
		tracer:    tracer,
		evaluated: reg.Counter("core.evaluated"),
		good:      reg.Counter("core.good"),
		pruned:    reg.Counter("core.pruned"),
		tasks:     reg.Counter("core.tasks"),
		results:   reg.Counter("core.results"),
		goodness:  reg.Histogram("core.goodness"),
	})
}

// timeGoodness evaluates pr.Goodness(p), observing its latency and the
// evaluation counter when an observer is attached.
func timeGoodness(o *coreObs, pr Problem, p Pattern) float64 {
	if o == nil {
		return pr.Goodness(p)
	}
	start := time.Now()
	g := pr.Goodness(p)
	o.goodness.Observe(time.Since(start))
	o.evaluated.Inc()
	return g
}

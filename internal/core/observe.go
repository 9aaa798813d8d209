package core

import (
	"sync/atomic"

	"freepdm/internal/obs"
)

// coreObs is the package-wide instrument set shared by the PLinda
// programs (RunPLED/RunPLET). It lives behind an atomic pointer so the
// workers' hot loops pay one pointer load when unobserved.
type coreObs struct {
	evaluated *obs.Counter // patterns whose goodness was computed
	good      *obs.Counter // patterns that passed the predicate (PLED, PLET: counted by the master after its commit — PLED a level's good keys at a time, duplicate and stale reports in none; PLET the keys of fresh reports, a report at a time — a repeated report, a 2PC re-run or a stale ctl, counts none)
	tasks     *obs.Counter // task tuples sent, not patterns or poison: PLED chunks, the level-0 seed among them, added once per master transaction after its commit; PLET seed and spilled bundles
}

var coreObserver atomic.Pointer[coreObs]

// SetObserver attaches a metrics registry to the mining engines in this
// package (nil detaches). Metrics use the "core." prefix. The engines
// trace nothing of their own: the masters' phase transitions are
// attributes of their transaction spans (see RunPLED and RunPLET),
// traced by the plinda.Server's tracer.
// The observer is package-global because the engines are free
// functions; callers that need isolation should use separate
// registries per run.
func SetObserver(reg *obs.Registry) {
	if reg == nil {
		coreObserver.Store(nil)
		return
	}
	coreObserver.Store(&coreObs{
		evaluated: reg.Counter("core.evaluated"),
		good:      reg.Counter("core.good"),
		tasks:     reg.Counter("core.tasks"),
	})
}

// evaluate returns pr.Goodness(p), counting the evaluation when an
// observer is attached.
func evaluate(o *coreObs, pr Problem, p Pattern) float64 {
	if o != nil {
		o.evaluated.Inc()
	}
	return pr.Goodness(p)
}

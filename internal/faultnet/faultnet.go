// Package faultnet is the deterministic fault-injection layer of the
// runtime: the instrument that lets tests script the failures the
// paper's "free" idle-workstation fleet actually produces — nodes that
// vanish mid-commit, links that stall, WAL writes that die between a
// batch and its acknowledgement — and replay them at exact points in
// the protocol instead of hoping a sleep lands in the window.
//
// It has three parts:
//
//   - Fault points (this file): named hooks compiled into production
//     code paths — cluster commit phases, WAL group commit. Unarmed (the only state outside tests) a hook
//     is one atomic load; armed, it runs test-registered handlers
//     that may observe protocol context, trigger proxies, or inject
//     an error at exactly that step.
//   - Proxy (proxy.go): an in-process TCP chaos proxy fronting a
//     tuple-space server. Tests point the cluster router at the proxy
//     addresses and then partition, blackhole, delay, or reset each
//     node's traffic per direction, under test control.
//   - Store (store.go): a tuplespace.TxnStore middleware injecting
//     delays and failures at the store surface, for store-level
//     scenarios and the `plinda -chaos` dev flag.
//
// Fault-point names are dotted paths, "<subsystem>.<site>[.<step>]":
// "cluster.commit.before-phase1", "cluster.commit.between-phases",
// "durable.wal.before-write", "durable.wal.after-write",
// "faultnet.store.<op>.before" / ".after". The instrumented site calls
// Hit(name, args...) with whatever protocol context it has (the
// coordinator node index, the WAL directory, the batch size), so one
// process-global handler can filter to the instance it targets.
package faultnet

import (
	"sync"
	"sync/atomic"

	"freepdm/internal/obs"
)

// Handler is a fault-point handler. It runs synchronously on the
// goroutine that hit the point, with the site's context arguments. A
// non-nil error is injected into the site's control flow (each site
// documents how — usually "the step failed"); nil lets the site
// proceed, which is how handlers that only script proxies or record
// timing stay invisible. Handlers must not call back into the
// instrumented subsystem synchronously if that subsystem holds locks
// across the point (the WAL points are hit outside the group-commit
// lock, but a handler that closes the space from inside the leader
// would still self-deadlock — spawn a goroutine for that).
type Handler func(args ...any) error

// registry is the process-global fault-point state. armed is the fast
// path: production code pays one atomic load per point while nothing
// is armed, and never takes the mutex.
var (
	armed    atomic.Int32
	mu       sync.Mutex
	handlers = map[string][]*armedHandler{}
	reg      atomic.Pointer[obs.Registry]
)

type armedHandler struct {
	name string
	fn   Handler
}

// Hit triggers the named fault point with the site's context
// arguments. With nothing armed anywhere it is a single atomic load
// and returns nil. Armed handlers for the name run in arming order;
// the first non-nil error short-circuits and is returned for the site
// to inject.
func Hit(name string, args ...any) error {
	if armed.Load() == 0 {
		return nil
	}
	return hitSlow(name, args)
}

func hitSlow(name string, args []any) error {
	mu.Lock()
	hs := append([]*armedHandler(nil), handlers[name]...)
	mu.Unlock()
	if len(hs) == 0 {
		return nil
	}
	if r := reg.Load(); r != nil {
		r.Counter("faultnet.hits." + name).Inc()
	}
	for _, h := range hs {
		if err := h.fn(args...); err != nil {
			return err
		}
	}
	return nil
}

// Arm registers a handler on the named fault point and returns its
// disarm function. Tests should defer the disarm (or faultnet.Reset)
// so a failed test cannot leak chaos into the next one.
func Arm(name string, h Handler) (disarm func()) {
	ah := &armedHandler{name: name, fn: h}
	mu.Lock()
	handlers[name] = append(handlers[name], ah)
	mu.Unlock()
	armed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			hs := handlers[name]
			for i, other := range hs {
				if other == ah {
					handlers[name] = append(hs[:i:i], hs[i+1:]...)
					break
				}
			}
			if len(handlers[name]) == 0 {
				delete(handlers, name)
			}
			mu.Unlock()
			armed.Add(-1)
		})
	}
}

// ArmError arms the point to fail with err on every hit — the common
// "this step dies" scenario without writing a handler.
func ArmError(name string, err error) (disarm func()) {
	return Arm(name, func(...any) error { return err })
}

// Reset disarms every fault point. Test cleanup for suites that arm
// several points.
func Reset() {
	mu.Lock()
	n := 0
	for _, hs := range handlers {
		n += len(hs)
	}
	handlers = map[string][]*armedHandler{}
	mu.Unlock()
	armed.Add(int32(-n))
}

// Armed reports how many handlers are currently armed, for tests that
// assert their own hygiene.
func Armed() int {
	return int(armed.Load())
}

// SetRegistry attaches a metrics registry: every armed hit of point P
// bumps counter "faultnet.hits.P" (on /debug/metrics), so a chaos
// run's injected faults are visible beside the failures they caused.
func SetRegistry(r *obs.Registry) {
	reg.Store(r)
}

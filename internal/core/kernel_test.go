package core_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"freepdm/internal/core"
	"freepdm/internal/plinda"
)

// kernelPatterns names, per in-tree problem, one good inner pattern and
// what the kernel guards below pin on it: the CostModel's value (as it
// read while Cost still re-summed the database on every call) and the
// heap allocations of one Goodness, one Children and one Subpatterns
// call. The counts are exact where the call is a function of the
// pattern's shape alone and upper bounds where a matcher's allocations
// follow the database (motif-mut, treemotif). Of motif-mut's 190, 2 are
// the sync.Map store SubpatternPruning makes per evaluation — the boxed
// key and the entry; a count above 255 would box too — and 188 the
// mutation matcher; with pruning off Goodness stores nothing.
var kernelPatterns = map[string]struct {
	key                             string
	cost                            float64
	goodness, children, subpatterns float64
	exact                           bool
}{
	"toy":         {"{0,1}", 0.036000000000000004, 0, 25, 6, true},
	"motif-exact": {"DWLVEV", 0.0011358, 0, 16, 3, true},
	"motif-mut":   {"LLWET", 0.0028395, 190, 4, 3, false},
	"assoc":       {"{0,1,2}", 0.0003268, 0, 25, 7, true},
	"episode":     {"<1 3>", 0.00015, 0, 13, 7, true},
	"treemotif":   {"B(H)", 0.000192, 5452, 145, 5, false},
}

func kernelPattern(t *testing.T, name string, pr core.Problem) core.Pattern {
	t.Helper()
	pat, err := pr.(core.Decoder).Decode(kernelPatterns[name].key)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Good(pat, pr.Goodness(pat)) || len(pr.Children(pat)) == 0 {
		t.Fatalf("%s is not a good inner pattern of %s", pat.Key(), name)
	}
	return pat
}

// TestCostPinned holds every in-tree CostModel to the value it returned
// when it re-summed the whole database per call: the totals are now
// computed once, in NewProblem, and BuildTrace asks once per node.
func TestCostPinned(t *testing.T) {
	for name, build := range inTreeProblems(t) {
		pr := build()
		got := pr.(core.CostModel).Cost(kernelPattern(t, name, pr))
		if want := kernelPatterns[name].cost; got != want {
			t.Errorf("%s: Cost(%s) = %v, want %v", name, kernelPatterns[name].key, got, want)
		}
	}
}

// TestGoodnessAllocs pins the heap allocations of the three kernel calls
// a traversal makes per pattern, on every in-tree problem: the baseline
// for trimming them, and a per-call sync.Map store or a key built for a
// memo shows here on any machine, where TestKernelTakesNoLock needs two
// threads running at once to see a lock.
func TestGoodnessAllocs(t *testing.T) {
	// The race detector's instrumentation moves values to the heap that
	// the plain build keeps on the stack.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are pinned for the build without the race detector")
			}
		}
	}
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			pr := build()
			pat := kernelPattern(t, name, pr)
			want := kernelPatterns[name]
			for _, call := range []struct {
				name string
				want float64
				f    func()
			}{
				{"Goodness", want.goodness, func() { pr.Goodness(pat) }},
				{"Children", want.children, func() { pr.Children(pat) }},
				{"Subpatterns", want.subpatterns, func() { pr.Subpatterns(pat) }},
			} {
				got := testing.AllocsPerRun(100, call.f)
				if got > call.want || want.exact && got != call.want {
					t.Errorf("%s(%s) allocates %v times, pinned at %v (exact: %v)", call.name, want.key, got, call.want, want.exact)
				}
			}
		})
	}
}

// lockFields returns the path of every sync.Mutex or sync.RWMutex
// reachable from a value of type typ through struct fields, pointers,
// slices, arrays and map values.
func lockFields(typ reflect.Type, path string, seen map[reflect.Type]bool) []string {
	if typ == reflect.TypeOf(sync.Mutex{}) || typ == reflect.TypeOf(sync.RWMutex{}) {
		return []string{path}
	}
	if seen[typ] {
		return nil
	}
	seen[typ] = true
	var found []string
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		found = lockFields(typ.Elem(), path, seen)
	case reflect.Struct:
		if typ.PkgPath() == "sync" || typ.PkgPath() == "sync/atomic" {
			return nil // sync.Map and the atomics are what the contract allows
		}
		for i := 0; i < typ.NumField(); i++ {
			found = append(found, lockFields(typ.Field(i).Type, path+"."+typ.Field(i).Name, seen)...)
		}
	}
	return found
}

// stackFuncs names the functions on a profile record's stack, leaf first.
func stackFuncs(stack [32]uintptr) []string {
	var fns []string
	frames := runtime.CallersFrames((&runtime.StackRecord{Stack0: stack}).Stack())
	for {
		f, more := frames.Next()
		fns = append(fns, f.Function)
		if !more {
			return fns
		}
	}
}

// miningLockRecords returns, per stack, the contention events the mutex
// profile holds against a sync.Mutex or sync.RWMutex released inside a
// mining problem: a frame under internal/mining/ or internal/seq/ is on
// the stack. The runtime's own locks, which the profile also reports
// (two goroutines allocating at once can meet on one), are not the
// problem's, and neither is sync.Map's per-node write lock: it is not
// process-wide, reads never take it, and only motif's SubpatternPruning
// memo stores anything.
func miningLockRecords() map[[32]uintptr]int64 {
	var recs []runtime.BlockProfileRecord
	n, ok := runtime.MutexProfile(nil)
	for !ok {
		recs = make([]runtime.BlockProfileRecord, n+64)
		n, ok = runtime.MutexProfile(recs)
	}
	out := map[[32]uintptr]int64{}
	for _, r := range recs[:n] {
		fns := stackFuncs(r.Stack0)
		mining, syncMap := false, false
		for _, fn := range fns {
			mining = mining || strings.Contains(fn, "internal/mining/") || strings.Contains(fn, "internal/seq.")
			syncMap = syncMap || strings.HasPrefix(fn, "sync.(*Map).")
		}
		if strings.HasPrefix(fns[0], "sync.(*") && mining && !syncMap {
			out[r.Stack0] = r.Count
		}
	}
	return out
}

// TestKernelTakesNoLock is the clock-free guard on the Problem contract:
// the hot path of every in-tree problem takes no lock two workers could
// meet on. With every contention event profiled, two goroutines walk
// each problem's E-tree on one shared instance, and a PLET and a PLED
// run put two workers on one; no new event may have a mining frame on
// its stack. motif.Problem's mutex around its occurrence-count memo used
// to serialise the two workers of every run here. The walk only sees
// contention where two threads run at once, so the types are checked
// too: no in-tree problem reaches a sync.Mutex or sync.RWMutex.
func TestKernelTakesNoLock(t *testing.T) {
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	for name, build := range inTreeProblems(t) {
		t.Run(name, func(t *testing.T) {
			for _, f := range lockFields(reflect.TypeOf(build()), name, map[reflect.Type]bool{}) {
				t.Errorf("%s is a lock inside a core.Problem", f)
			}
			before := miningLockRecords()
			for walk := 0; walk < 20; walk++ {
				pr := build()
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						core.SolveETTSequential(pr)
					}()
				}
				wg.Wait()
			}
			for _, run := range []func(*plinda.Server, core.Problem, int) ([]core.Result, error){core.RunPLET, core.RunPLED} {
				srv := plinda.NewServer()
				if _, err := run(srv, build(), 2); err != nil {
					t.Error(err)
				}
				srv.Close()
			}
			for stack, count := range miningLockRecords() {
				if count == before[stack] {
					continue
				}
				t.Errorf("%d contention events on a lock inside the problem: %s", count-before[stack], strings.Join(stackFuncs(stack), " < "))
			}
		})
	}
}

package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"freepdm/internal/core"
)

// Config selects what one pass measures.
type Config struct {
	Seed int64
	// Seconds is how long the pass measures; reps run until it has
	// elapsed, and at least once.
	Seconds float64
	// Workers is the number of PLinda worker procs next to the master.
	Workers int
	// TmpDir is where WAL-backed backends keep their files; every rep
	// gets, and removes, a directory of its own beneath it.
	TmpDir string

	small bool // smoke-test inputs
}

// DefaultWorkers is min(2, nproc): the closed loop the workloads were
// sized for.
func DefaultWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// PassResult is what one pass over one workload produced.
type PassResult struct {
	Workload  string
	Traced    bool
	Attempted int       // reps run, warm-ups included; every one is checked
	Failed    int       // reps that returned an error or a wrong result set
	Failures  []string  // one line per failed rep, naming it
	Tasks     int64     // Goodness evaluations of one rep
	Walls     []float64 // the measured reps' walls
	Metrics   map[string]Value
	Spans     []Span // the last traced rep's spans
}

// FailedRunShare is failed reps over attempted reps; it must stay 0.
func (r *PassResult) FailedRunShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pass carries the state of one pass: the workload, its oracle, and the
// tally of checked reps.
type pass struct {
	w      Workload
	cfg    Config
	oracle []core.Result
	seqSt  core.Stats
	res    *PassResult
}

// repOut is one rep's outcome. bootRun is the time from the start of
// the backend's boot to the end of the run; wall is the run alone, spawn
// to sorted results.
type repOut struct {
	wall, bootRun time.Duration
	evals         int64
	layers        map[string]float64
	spans         []Span
}

// rep boots a fresh backend, runs the workload once on it, tears it
// down, and checks the result set against the oracle. A run error or a
// mismatch is tallied as a failed rep under the given label.
func (p *pass) rep(pr core.Problem, traced bool, label string) repOut {
	p.res.Attempted++
	out, err := p.runOnce(pr, traced)
	if err != nil {
		p.res.Failed++
		p.res.Failures = append(p.res.Failures, fmt.Sprintf("%s %s: %v", p.w.Name, label, err))
	}
	return out
}

func (p *pass) runOnce(pr core.Problem, traced bool) (out repOut, err error) {
	dir, err := scratchDir(p.cfg.TmpDir)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck — scratch

	var tr *tracer
	if traced {
		// A task costs about a dozen spans: two transactions of four
		// store spans each, and the mining calls.
		tr = newTracer(p.res.Attempted, 24*p.seqSt.Evaluated+1024)
	}
	bootStart := time.Now()
	be, err := bootBackend(p.w.Backend, dir, tr)
	if err != nil {
		return out, err
	}
	defer be.close()
	mp := newMeteredProblem(pr, tr)

	var smp *sampler
	var before procUsage
	if traced {
		smp = startSampler(be.regs)
		before = readProcUsage()
		tr.base = time.Now()
	}
	start := time.Now()
	got, runErr := p.w.run(be, mp, p.cfg.Workers)
	out.wall = time.Since(start)
	out.bootRun = time.Since(bootStart)
	out.evals = mp.evals.Load()
	if traced {
		tr.record(Span{ID: runSpanID, Name: "run", End: int64(out.wall), Err: runErr != nil})
		after := readProcUsage()
		f := repFacts{
			wall: out.wall, procs: p.cfg.Workers + 1, workers: p.cfg.Workers,
			evals: out.evals, seqEvaluated: p.seqSt.Evaluated,
			commits: be.srv.Commits(), aborts: be.srv.Aborts(), respawns: be.srv.Respawns(),
			cpu: after.cpu - before.cpu, allocBytes: after.alloc - before.alloc, gcPause: after.gcPause - before.gcPause,
		}
		f.shardShare, f.peakHeap = smp.finish()
		out.spans = tr.all()
		out.layers = layerMetrics(out.spans, be.regs, f)
	}
	if runErr != nil {
		return out, runErr
	}
	return out, sameResults(p.oracle, got)
}

// newPass generates the workload's input once to fix the oracle.
func newPass(w Workload, cfg Config, traced bool) (*pass, core.Problem, error) {
	gen, ok := inputs[w.Input]
	if !ok {
		return nil, nil, fmt.Errorf("bench: workload %s: unknown input %q", w.Name, w.Input)
	}
	pr := gen(cfg.Seed, cfg.small)
	p := &pass{w: w, cfg: cfg, res: &PassResult{Workload: w.Name, Traced: traced, Metrics: map[string]Value{}}}
	p.oracle, p.seqSt = core.SolveSequential(pr)
	return p, pr, nil
}

// setupBuilds is how often a process generates and builds its input for
// setup_s; the median is reported.
const setupBuilds = 3

// RunUntraced is the end-to-end pass: nothing is attached to any layer.
// After a warm-up rep it alternates, for cfg.Seconds, a rep with a burst
// of SolveSequential on the same problem, half as long as the rep.
// speedup_vs_seq is the median over the pairs of the burst's time per
// solve over the rep's wall: the two are taken within a second or two of
// each other, so a slow spell of the machine is in both.
//
// setup_s is what it takes to get from a seed to a first finished run:
// generate the input and build the problem (median of setupBuilds), then
// boot a backend and run once on it. Every rep boots a backend of its
// own, so the second term is the median over all reps of the pass, the
// warm-up included, not one cold sample.
func RunUntraced(w Workload, cfg Config) (*PassResult, error) {
	p, pr, err := newPass(w, cfg, false)
	if err != nil {
		return nil, err
	}
	var builds []float64
	for i := 0; i < setupBuilds; i++ {
		t0 := time.Now()
		pr = inputs[w.Input](cfg.Seed, cfg.small)
		builds = append(builds, time.Since(t0).Seconds())
	}
	bootRuns := []float64{p.rep(pr, false, "warm-up rep").bootRun.Seconds()}

	var walls, speedups, evals []float64
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds() < cfg.Seconds; {
		runtime.GC()
		out := p.rep(pr, false, fmt.Sprintf("rep %d", len(walls)))
		walls = append(walls, out.wall.Seconds())
		bootRuns = append(bootRuns, out.bootRun.Seconds())
		evals = append(evals, float64(out.evals))

		runtime.GC()
		t0, solves := time.Now(), 0
		for solves == 0 || time.Since(t0) < out.wall/2 {
			core.SolveSequential(pr)
			solves++
		}
		speedups = append(speedups, time.Since(t0).Seconds()/float64(solves)/out.wall.Seconds())
	}

	wall := median(walls)
	p.res.Walls = walls
	p.res.Tasks = int64(median(evals))
	p.res.Metrics["speedup_vs_seq"] = Value{median(speedups), "ratio"}
	p.res.Metrics["setup_s"] = Value{median(builds) + median(bootRuns), "s"}
	p.res.Metrics["run_wall_s"] = Value{wall, "s"}
	p.res.Metrics["tasks_per_s"] = Value{ratio(float64(p.res.Tasks), wall), "1/s"}
	return p.res, nil
}

// RunTraced is the per-layer pass: after one warm-up it alternates an
// untraced and a traced rep for cfg.Seconds. The traced reps' per-layer
// numbers are averaged; the two medians give trace.overhead_share.
func RunTraced(w Workload, cfg Config) (*PassResult, error) {
	p, pr, err := newPass(w, cfg, true)
	if err != nil {
		return nil, err
	}
	p.rep(pr, false, "warm-up rep")

	var plain, traced []float64
	sums := map[string]float64{}
	for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < cfg.Seconds; {
		runtime.GC()
		out := p.rep(pr, false, fmt.Sprintf("untraced rep %d", len(plain)))
		plain = append(plain, out.wall.Seconds())
		runtime.GC()
		out = p.rep(pr, true, fmt.Sprintf("traced rep %d", len(traced)))
		traced = append(traced, out.wall.Seconds())
		for k, v := range out.layers {
			sums[k] += v
		}
		p.res.Spans = out.spans
		p.res.Tasks = out.evals
	}
	p.res.Walls = traced
	for _, spec := range PerLayer {
		p.res.Metrics[spec.Name] = Value{sums[spec.Name] / float64(len(traced)), spec.Unit}
	}
	p.res.Metrics["trace.overhead_share"] = Value{median(traced)/median(plain) - 1, "share"}
	return p.res, nil
}

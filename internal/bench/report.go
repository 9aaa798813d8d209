package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// PrintPass writes every metric of a pass by name with its unit, one per
// line: workload, metric, value, unit. The median wall carries its sample
// count, minimum and maximum; no percentile is printed because a pass
// holds fewer than ten samples beyond any.
func PrintPass(w io.Writer, r *PassResult) {
	specs := untracedSpecs
	if r.Traced {
		specs = PerLayer
	}
	samples := ""
	if len(r.Walls) > 0 {
		s := append([]float64(nil), r.Walls...)
		sort.Float64s(s)
		samples = fmt.Sprintf("\tsamples=%d min=%.6g max=%.6g", len(s), s[0], s[len(s)-1])
	}
	for _, spec := range specs {
		v := r.Metrics[spec.Name]
		fmt.Fprintf(w, "%s\t%s\t%.6g\t%s", r.Workload, spec.Name, v.Value, v.Unit)
		if spec.Name == "run_wall_s" || spec.Name == "trace.run_wall_s" {
			fmt.Fprint(w, samples)
		}
		fmt.Fprintln(w)
	}
	if !r.Traced {
		fmt.Fprintf(w, "%s\ttasks_per_run\t%d\tcount\n", r.Workload, r.Tasks)
	}
	fmt.Fprintf(w, "%s\tfailed_run_share\t%g\tshare\tfailed=%d attempted=%d\n",
		r.Workload, r.FailedRunShare(), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED\t%s\n", f)
	}
}

// untracedSpecs is everything the untraced pass reports.
var untracedSpecs = append(append([]MetricSpec(nil), EndToEnd...), RawTimings...)

// ResultLine is the one-line JSON object a single-workload, single-pass
// invocation prints last. It carries the bounded metrics of the pass,
// which is what the driver expects; with raw set, the untraced pass's
// raw timings too, which is how a parent collects them from the
// processes it splits the pass over.
func ResultLine(r *PassResult, raw bool) (string, error) {
	specs := PerLayer
	if !r.Traced {
		specs = EndToEnd
		if raw {
			specs = untracedSpecs
		}
	}
	metrics := map[string]Value{}
	for _, spec := range specs {
		metrics[spec.Name] = r.Metrics[spec.Name]
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(b), err
}

// ParseResultLine reads back what ResultLine wrote.
func ParseResultLine(workload, line string) (*PassResult, error) {
	var obj struct {
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		return nil, fmt.Errorf("bench: result line %q: %w", line, err)
	}
	return &PassResult{Workload: workload, Attempted: obj.Attempted, Failed: obj.Failed, Metrics: obj.Metrics}, nil
}

// MedianOfProcs folds the untraced passes of several processes over one
// workload into one: every metric's median over the processes, and the
// sums of their attempted and failed reps. tuplespace draws the seed that
// maps tuple signatures to lock stripes once per process, and a process
// in which the task and ctl tuples share a stripe runs a fine-grained
// workload about 30% slower; the median over a few fresh processes
// describes the typical one whichever way a single toss comes out. The
// processes' own lines, collisions named, are printed next to it.
func MedianOfProcs(procs []*PassResult) *PassResult {
	r := &PassResult{Workload: procs[0].Workload, Metrics: map[string]Value{}}
	for _, spec := range untracedSpecs {
		var vals []float64
		for _, p := range procs {
			vals = append(vals, p.Metrics[spec.Name].Value)
		}
		r.Metrics[spec.Name] = Value{median(vals), spec.Unit}
	}
	for _, p := range procs {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
	// The task count repeats exactly per workload and seed.
	r.Tasks = int64(math.Round(r.Metrics["tasks_per_s"].Value * r.Metrics["run_wall_s"].Value))
	return r
}

// PrintBudget writes the derived layer budget: the backends' costs as
// differences between the untraced medians of workloads that share an
// input, in seconds a run and microseconds a task. It prints nothing for
// a line whose workloads were not run.
func PrintBudget(w io.Writer, untraced, traced map[string]*PassResult, workers int) {
	wall := func(name string) (float64, bool) {
		r, ok := untraced[name]
		if !ok {
			return 0, false
		}
		return r.Metrics["run_wall_s"].Value, true
	}
	space, okSpace := wall("motif_exact_plet_space")
	if !okSpace {
		return
	}
	tasks := float64(untraced["motif_exact_plet_space"].Tasks)
	line := func(name string, s float64) {
		fmt.Fprintf(w, "budget\t%s\t%.6g\ts\t%.4g us/task\n", name, s, ratio(s*1e6, tasks))
	}
	if tr, ok := traced["motif_exact_plet_space"]; ok {
		mining := tr.Metrics["mining.goodness_busy_s"].Value + tr.Metrics["mining.children_busy_s"].Value +
			tr.Metrics["mining.decode_busy_s"].Value
		line("layer.coord_s", space-mining/float64(workers))
	}
	client, okClient := wall("motif_exact_plet_client")
	if okClient {
		line("layer.wire_s", client-space)
	}
	durable, okDurable := wall("motif_exact_plet_durable")
	if okDurable {
		line("layer.wal_s", durable-space)
	}
	if router, ok := wall("motif_exact_plet_router3"); ok && okClient && okDurable {
		line("layer.cluster_s", router-client-(durable-space))
	}
	// PLED evaluates fewer patterns than PLET on the same input (the E-dag
	// prune), so its per-task figure is taken over its own task count.
	if pled, ok := wall("motif_exact_pled_space"); ok {
		perTask := ratio(pled*1e6, float64(untraced["motif_exact_pled_space"].Tasks)) - ratio(space*1e6, tasks)
		fmt.Fprintf(w, "budget\tlayer.pled_master_s\t%.6g\ts\t%.4g us/task\n", pled-space, perTask)
	}
}

// CompareSets is the repeatability self-check: for every end-to-end
// metric it prints how much worse the second set's value is than the
// first's, relative to the first, next to the metric's bound, and
// reports whether every difference held its bound.
func CompareSets(w io.Writer, first, second *PassResult) bool {
	ok := true
	for _, spec := range EndToEnd {
		a, b := first.Metrics[spec.Name].Value, second.Metrics[spec.Name].Value
		worse := ratio(b-a, a)
		if spec.Better == "higher" {
			worse = ratio(a-b, a)
		}
		verdict := "ok"
		if worse > spec.Bound {
			verdict, ok = "EXCEEDED", false
		}
		fmt.Fprintf(w, "repeat\t%s\t%s\tset1=%.6g set2=%.6g worse_by=%+.2f%% bound=%.0f%%\t%s\n",
			first.Workload, spec.Name, a, b, worse*100, spec.Bound*100, verdict)
	}
	return ok
}

package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"freepdm/internal/core"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all seven workloads, both passes, at one measured rep
// on the shrunken inputs and asserts the output schema, that the traced
// budget adds up, and that each layer shows up where it is used.
func TestSmoke(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 2, TmpDir: t.TempDir(), small: true}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		un, err := RunUntraced(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := RunTraced(w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, r := range []*PassResult{un, tr} {
			if r.Failed != 0 || r.FailedRunShare() != 0 || r.Attempted < 2 {
				t.Errorf("%s: failed=%d attempted=%d: %v", w.Name, r.Failed, r.Attempted, r.Failures)
			}
		}
		for _, spec := range untracedSpecs {
			v, ok := un.Metrics[spec.Name]
			if !ok || v.Unit != spec.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: untraced metric %s = %+v (present %v), want a positive value in %s", w.Name, spec.Name, v, ok, spec.Unit)
			}
		}
		if len(un.Metrics) != len(untracedSpecs) || un.Tasks <= 0 {
			t.Errorf("%s: %d untraced metrics, %d tasks", w.Name, len(un.Metrics), un.Tasks)
		}
		for _, spec := range PerLayer {
			v, ok := tr.Metrics[spec.Name]
			if !ok || v.Unit != spec.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.Name, spec.Name, v, ok)
			}
		}
		if len(tr.Metrics) != len(PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(tr.Metrics), len(PerLayer))
		}

		// The budget: mining + store + core_plinda.self_s is the rep's
		// proc-seconds, no term is negative, and the procs' transactions
		// fit inside their lifetimes.
		val := func(name string) float64 { return tr.Metrics[name].Value }
		procS := val("budget.proc_s")
		sum := val("budget.mining_s") + val("budget.store_s") + val("core_plinda.self_s")
		if procS <= 0 || math.Abs(sum-procS) > 0.02*procS {
			t.Errorf("%s: budget sums to %.6g s of %.6g proc-seconds", w.Name, sum, procS)
		}
		if val("core_plinda.self_s") < 0 || val("budget.txn_s") > 1.02*procS {
			t.Errorf("%s: core_plinda.self_s=%.6g budget.txn_s=%.6g proc_s=%.6g", w.Name, val("core_plinda.self_s"), val("budget.txn_s"), procS)
		}
		if val("mining.goodness_calls") != float64(un.Tasks) {
			t.Errorf("%s: traced pass saw %v tasks, untraced %d", w.Name, val("mining.goodness_calls"), un.Tasks)
		}
		if len(tr.Spans) == 0 || val("store.commit.count") == 0 || val("ts.out") == 0 {
			t.Errorf("%s: traced pass recorded %d spans, %v commits, ts.out %v", w.Name, len(tr.Spans), val("store.commit.count"), val("ts.out"))
		}

		for _, name := range layerUse[w.Name].nonzero {
			if val(name) <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, val(name))
			}
		}
		for _, name := range layerUse[w.Name].zero {
			if val(name) != 0 {
				t.Errorf("%s: %s = %v, want 0", w.Name, name, val(name))
			}
		}

		var buf bytes.Buffer
		PrintPass(&buf, un)
		PrintPass(&buf, tr)
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			f := strings.Split(line, "\t")
			if len(f) < 4 || f[0] != w.Name || !nameRE.MatchString(f[1]) || f[3] == "" {
				t.Errorf("malformed report line %q", line)
			}
		}
		// The driver's line carries exactly the bounded metrics of the
		// untraced pass, or every per-layer metric of the traced one.
		for _, r := range []*PassResult{un, tr} {
			line, err := ResultLine(r, false)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &obj); err != nil || len(obj) != 4 || strings.Contains(line, "\n") {
				t.Errorf("result line %q: %v", line, err)
			}
			back, err := ParseResultLine(w.Name, line)
			want := len(EndToEnd)
			if r.Traced {
				want = len(PerLayer)
			}
			if err != nil || len(back.Metrics) != want {
				t.Errorf("result line %q carries %d metrics, want %d: %v", line, len(back.Metrics), want, err)
			}
		}
	}
}

// layerUse names, per workload, per-layer metrics that must read above
// zero because the workload uses the layer, and ones that must read zero
// because it bypasses it.
var layerUse = map[string]struct{ nonzero, zero []string }{
	"motif_exact_plet_space":   {[]string{"ts.in", "store.in.task.count", "store.in.ctl.s"}, []string{"net.tx_bytes", "wal.appends", "cluster.node_ops_total"}},
	"motif_exact_plet_client":  {[]string{"net.tx_bytes", "codec.enc_bytes", "net.flushes_per_commit"}, []string{"wal.appends", "cluster.node_ops_total"}},
	"motif_exact_plet_durable": {[]string{"wal.appends", "wal.records_per_write"}, []string{"net.tx_bytes", "cluster.node_ops_total"}},
	"motif_exact_plet_router3": {[]string{"cluster.node_ops_total", "cluster.node_op_share_max", "wal.appends", "net.rx_bytes"}, nil},
	"apriori_pled_space":       {[]string{"store.in.result.s", "mining.subpatterns_busy_s"}, []string{"store.in.ctl.s"}},
}

// wrongProblem reports every goodness one too high.
type wrongProblem struct {
	core.Problem
	core.Decoder
}

func (p wrongProblem) Goodness(pat core.Pattern) float64 { return p.Problem.Goodness(pat) + 1 }

// The oracle: a run whose result set differs from SolveSequential's is a
// failed rep, named in the report.
func TestOracleCountsWrongResults(t *testing.T) {
	var calls atomic.Int64
	inputs["wrong_after_oracle"] = func(seed int64, small bool) core.Problem {
		pr := inputs["apriori"](seed, true)
		if calls.Add(1) == 1 {
			return pr // the instance the oracle is computed from
		}
		return wrongProblem{pr, pr.(core.Decoder)}
	}
	defer delete(inputs, "wrong_after_oracle")

	w := Workload{Name: "wrong", Program: "pled", Input: "wrong_after_oracle", Backend: "space"}
	r, err := RunUntraced(w, Config{Seed: 3, Workers: 2, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != r.Attempted || r.Failed == 0 || r.FailedRunShare() != 1 {
		t.Fatalf("failed=%d attempted=%d, want every rep failed", r.Failed, r.Attempted)
	}
	if len(r.Failures) != r.Failed || !strings.Contains(r.Failures[0], "wrong warm-up rep") {
		t.Fatalf("failures do not name the reps: %q", r.Failures)
	}
	line, _ := ResultLine(r, false)
	if !strings.Contains(line, `"correct":false`) {
		t.Fatalf("result line %s does not report the failure", line)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(wall float64) *PassResult {
		return &PassResult{Workload: "w", Metrics: map[string]Value{
			"run_wall_s": {wall, "s"}, "tasks_per_s": {100 / wall, "1/s"},
			"speedup_vs_seq": {1 / wall, "ratio"}, "setup_s": {1, "s"},
		}}
	}
	var buf bytes.Buffer
	if !CompareSets(&buf, set(1), set(1.05)) {
		t.Errorf("5%% apart rejected:\n%s", buf.String())
	}
	if CompareSets(&buf, set(1), set(1.4)) {
		t.Errorf("40%% slower accepted:\n%s", buf.String())
	}
	if !CompareSets(&buf, set(1), set(0.5)) {
		t.Errorf("an improvement rejected:\n%s", buf.String())
	}
}

// The parent folds its processes' result lines: medians per metric, sums
// of the reps, and the task count back out of the medians.
func TestMedianOfProcs(t *testing.T) {
	var procs []*PassResult
	for i, wall := range []float64{0.2, 0.1, 0.4} {
		r := &PassResult{Workload: "w", Attempted: 5, Failed: i % 2, Metrics: map[string]Value{
			"run_wall_s": {wall, "s"}, "tasks_per_s": {1000 / wall, "1/s"},
			"speedup_vs_seq": {1 / wall, "ratio"}, "setup_s": {wall + 1, "s"},
		}}
		line, err := ResultLine(r, true)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseResultLine("w", line)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, back)
	}
	r := MedianOfProcs(procs)
	if r.Metrics["run_wall_s"] != (Value{0.2, "s"}) || r.Metrics["tasks_per_s"] != (Value{5000, "1/s"}) ||
		r.Metrics["setup_s"] != (Value{1.2, "s"}) || r.Attempted != 15 || r.Failed != 1 || r.Tasks != 1000 {
		t.Errorf("folded %+v", r)
	}
	if _, err := ParseResultLine("w", ""); err == nil {
		t.Error("an empty result line parsed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the tables the benchmark reports from, and inside the
// driver's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("size %d, run_seconds %d", len(data), file.RunSeconds)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q / %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metric, want []MetricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, spec)
			}
			if !nameRE.MatchString(spec.Name) || !unitRE.MatchString(spec.Unit) || seen[spec.Name] ||
				(spec.Better != "lower" && spec.Better != "higher") {
				t.Errorf("%s: metric %+v breaks the naming rules", kind, spec)
			}
			seen[spec.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != spec.Bound || spec.Bound <= 0 || spec.Bound > 0.25)) {
				t.Errorf("%s: metric %s bound %v, the benchmark has %v", kind, spec.Name, g.Bound, spec.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, EndToEnd, true)
	check("per_layer", file.PerLayer, PerLayer, false)
}

// Command fpdm-bench runs the end-to-end mining-run benchmark of
// freepdm/internal/bench and prints every metric by name with its unit.
//
// With no flags it runs all seven workloads, an untraced pass for the
// end-to-end metrics and a traced pass for the per-layer budget. The
// benchmark driver runs one workload and one pass at a time:
//
//	fpdm-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object printed as the last line. The untraced pass
// is taken in -procs fresh copies of the command (bench.MedianOfProcs
// says why). The command exits
// non-zero when any run failed or returned a result set other than
// SolveSequential's, or when -sets 2 finds a metric outside its bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"freepdm/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 14, "how long each pass measures, per workload")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
	sets := flag.Int("sets", 1, "run the untraced pass this many times and check that the sets agree within the bounds")
	traceOut := flag.String("trace-out", "", "write the last traced rep's spans of each workload to this file as JSON lines")
	tmp := flag.String("tmp", ".bench_build/tmp", "scratch directory for WAL files")
	procs := flag.Int("procs", 5, "take the untraced pass in this many fresh processes, one after the other, and report each metric's median over them; 1 measures in this process and adds the raw timings to the result line")
	flag.Parse()

	workloads := bench.Workloads
	if *workload != "all" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "fpdm-bench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	cfg := bench.Config{Seed: *seed, Seconds: *seconds, Workers: bench.DefaultWorkers(), TmpDir: *tmp}
	printEnv(cfg)

	var spanFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpdm-bench:", err)
			return 1
		}
		spanFile = f
	}

	status := 0
	untraced := map[string]*bench.PassResult{}
	traced := map[string]*bench.PassResult{}
	var last *bench.PassResult
	finish := func(r *bench.PassResult, err error) bool {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpdm-bench:", err)
			status = 1
			return false
		}
		bench.PrintPass(os.Stdout, r)
		if r.Failed > 0 {
			status = 1
		}
		last = r
		return true
	}
	runUntraced := func(w bench.Workload) (*bench.PassResult, error) {
		if *procs <= 1 {
			return bench.RunUntraced(w, cfg)
		}
		return untracedInProcs(w, cfg, *procs)
	}
	for _, w := range workloads {
		if *trace != 1 {
			r, err := runUntraced(w)
			if !finish(r, err) {
				continue
			}
			untraced[w.Name] = r
			for set := 2; set <= *sets; set++ {
				again, err := runUntraced(w)
				if finish(again, err) && !bench.CompareSets(os.Stdout, r, again) {
					status = 1
				}
			}
		}
		if *trace != 0 {
			r, err := bench.RunTraced(w, cfg)
			if !finish(r, err) {
				continue
			}
			traced[w.Name] = r
			if spanFile != nil {
				if err := bench.WriteSpans(spanFile, w.Name, r.Spans); err != nil {
					fmt.Fprintln(os.Stderr, "fpdm-bench:", err)
					status = 1
				}
			}
		}
	}
	bench.PrintBudget(os.Stdout, untraced, traced, cfg.Workers)
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fpdm-bench:", err)
			status = 1
		}
	}

	// One workload, one pass: the driver's invocation. Its result object
	// is the last line of standard output.
	if len(workloads) == 1 && *trace >= 0 && last != nil {
		// A copy run by untracedInProcs hands its raw timings up as well.
		line, err := bench.ResultLine(last, *procs <= 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpdm-bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	return status
}

// untracedInProcs splits the untraced pass of one workload over n fresh
// copies of this program, run one after the other with the driver's own
// invocation, and folds their result lines with bench.MedianOfProcs. Each
// copy's report is passed on, prefixed with its number.
func untracedInProcs(w bench.Workload, cfg bench.Config, n int) (*bench.PassResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*bench.PassResult
	for i := 1; i <= n; i++ {
		cmd := exec.Command(exe, "-procs", "1", "-trace", "0", "-workload", w.Name, "-tmp", cfg.TmpDir,
			"-seed", strconv.FormatInt(cfg.Seed, 10), "-seconds", strconv.FormatFloat(cfg.Seconds/float64(n), 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, line := range lines[:len(lines)-1] {
			fmt.Printf("proc%d\t%s\n", i, line)
		}
		// A copy that saw a failed rep exits non-zero after its result line.
		r, err := bench.ParseResultLine(w.Name, lines[len(lines)-1])
		if err != nil {
			return nil, fmt.Errorf("%s, process %d: %v (%v)", w.Name, i, runErr, err)
		}
		results = append(results, r)
	}
	return bench.MedianOfProcs(results), nil
}

// printEnv records the environment the numbers were taken in.
func printEnv(cfg bench.Config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	collisions := "none"
	if pairs := bench.TagShardCollisions(); len(pairs) > 0 {
		collisions = strings.Join(pairs, ",")
	}
	fmt.Printf("env\tnproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s seed=%d workers=%d seconds=%g shard_collisions=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, cfg.Seed, cfg.Workers, cfg.Seconds, collisions)
}

// cpuModel reads the processor's name where the kernel offers it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// Command fpdm is the experiment and demo driver of the Free Parallel
// Data Mining reproduction. Usage:
//
//	fpdm list                                       list all reproducible tables and figures
//	fpdm [-debug-addr a] [-log-json l] exp <id>...  run experiments by id (e.g. t4.2 f6.3); "all" runs everything
//
// With -debug-addr, live metrics, the operation trace, and pprof are
// served while experiments run, at /debug/metrics, /debug/trace and
// /debug/pprof/ on the given address. -log-json <level> writes
// log/slog JSON lines to stderr.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"freepdm/internal/experiments"
	"freepdm/internal/obs"
)

func main() {
	debugAddr := flag.String("debug-addr", "", "serve /debug/metrics, /debug/trace and pprof on this address (e.g. localhost:6060)")
	logJSON := flag.String("log-json", "", "write JSON-lines structured logs to stderr at this level (debug|info|warn|error)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	if *logJSON != "" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(*logJSON)); err != nil {
			fmt.Fprintf(os.Stderr, "fpdm: -log-json: %v\n", err)
			usage()
			os.Exit(2)
		}
		obs.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(4096)
		experiments.SetObserver(reg, tracer)
		ds, err := obs.ServeDebug(*debugAddr, reg, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpdm: debug server: %v\n", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "fpdm: debug endpoints at http://%s/debug/{metrics,trace,pprof}\n", ds.Addr())
	}
	switch args[0] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
	case "exp":
		ids := args[1:]
		if len(ids) == 0 {
			usage()
			os.Exit(2)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		}
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "fpdm: unknown experiment %q (try 'fpdm list')\n", id)
				os.Exit(1)
			}
			if err := e.Run(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "fpdm: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fpdm [-debug-addr addr] [-log-json level] list | exp <id>...|all")
}

// Command plinda is the chapter 7 runtime environment as a terminal
// console instead of the original X-Windows interface: it starts a
// PLinda server running a long parallel data mining demo (sequence
// pattern discovery over the cyclins-like corpus) and accepts the
// process-control commands of section 7.2.5 on standard input:
//
//	ps                 the "Process Watch" table (figure 7.6)
//	kill <name>        simulate an owner reclaiming the workstation
//	migrate <name>     move a process (kill + recover elsewhere)
//	suspend <name>     pause a process at its next tuple operation
//	resume <name>      let a suspended process continue
//	checkpoint <file>  checkpoint the tuple space to disk
//	restore <file>     roll the tuple space back to a checkpoint
//	stats              metrics-registry snapshot (counters/gauges/latencies)
//	trace [n]          last n trace events (default 20)
//	quit               shut the server down
//
// With -debug-addr the same counters, the trace ring, and net/http/pprof
// are served over HTTP at /debug/metrics, /debug/trace and /debug/pprof/,
// plus a Prometheus text exposition of the registry at /metrics.
// -trace-sample, -slow-op and -log-json control trace sampling, the
// slow-operation log, and JSON-lines structured logging.
//
// With -wal <dir> the tuple space is write-ahead logged: committed
// tuple operations survive a server crash, and a restart with the same
// -wal directory replays them before accepting work. With -addr the
// space is additionally served over TCP so remote workstations can
// join (and leave, and be killed) freely:
//
//	plinda -wal /tmp/demo.wal -addr :7117     # durable server + demo
//	plinda -worker host:7117                  # remote worker; kill -9 at will
//
// A remote worker holds a session lease; when it is killed mid
// transaction the server aborts the transaction and its task tuples
// reappear for the remaining workers. The demo keeps running (and
// finishing, and producing correct results) no matter how often its
// workers are killed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/core"
	"freepdm/internal/durable"
	"freepdm/internal/faultnet"
	"freepdm/internal/mining/motif"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/seq"
	"freepdm/internal/tuplespace"
)

// validateWALFlags checks the durability flags for consistency: the
// group-commit options only modify WAL behavior, so without -wal they
// are silently dead configuration — better to refuse than to let an
// operator believe fsync durability is on.
func validateWALFlags(walDir string, fsync bool, walBatch int) error {
	if walBatch < 0 {
		return fmt.Errorf("-wal-batch must be >= 0, got %d", walBatch)
	}
	if walDir == "" {
		if fsync {
			return fmt.Errorf("-fsync requires -wal")
		}
		if walBatch != 0 {
			return fmt.Errorf("-wal-batch requires -wal")
		}
	}
	return nil
}

// parseChaosSpec parses the -chaos flag: comma-separated key=value
// pairs from {delay=<duration>, err=<probability 0..1>, seed=<uint>}.
func parseChaosSpec(spec string) (faultnet.StoreOptions, error) {
	var opts faultnet.StoreOptions
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return opts, fmt.Errorf("bad element %q, want key=value", kv)
		}
		switch k {
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return opts, fmt.Errorf("bad delay %q: %v", v, err)
			}
			opts.Delay = d
		case "err":
			var p float64
			if _, err := fmt.Sscanf(v, "%g", &p); err != nil || p < 0 || p > 1 {
				return opts, fmt.Errorf("bad err %q: want a probability in [0,1]", v)
			}
			opts.ErrRate = p
		case "seed":
			var s int64
			if _, err := fmt.Sscanf(v, "%d", &s); err != nil {
				return opts, fmt.Errorf("bad seed %q: %v", v, err)
			}
			opts.Seed = s
		default:
			return opts, fmt.Errorf("unknown key %q (want delay, err or seed)", k)
		}
	}
	return opts, nil
}

// demoProblem builds the motif-discovery demo deterministically, so a
// remote worker process constructs exactly the same problem (and
// decodes the same pattern keys) as the server.
func demoProblem() *motif.Problem {
	corpus := seq.CyclinsSpec(42).Generate()
	return motif.NewProblem(corpus, motif.Params{
		MinOccur: 5, MaxMut: 0, MinLength: 12, MaxLength: 24,
	})
}

func main() {
	debugAddr := flag.String("debug-addr", "", "serve /debug/metrics, /debug/trace and pprof on this address (e.g. localhost:6060)")
	shards := flag.Int("shards", 0, "tuple-space shard count (rounded up to a power of two; 0 = derive from GOMAXPROCS)")
	walDir := flag.String("wal", "", "write-ahead log directory: committed tuple ops survive a crash and replay on restart")
	fsync := flag.Bool("fsync", false, "fsync every WAL group commit (survives machine crashes, not just process crashes; requires -wal)")
	walBatch := flag.Int("wal-batch", 0, "max records coalesced into one WAL group-commit write (0 = default; requires -wal)")
	addr := flag.String("addr", "", "serve the tuple space over TCP on this address so remote workers can join (e.g. :7117)")
	workers := flag.Int("workers", 3, "local demo worker count")
	workerAddr := flag.String("worker", "", "run as a remote worker against the server at this address (no local server); a comma-separated list joins a cluster")
	nodes := flag.String("nodes", "", "comma-separated tuple-space server addresses: route the space across a multi-node cluster instead of hosting it in-process (host:port,host:port,...)")
	opTimeout := flag.Duration("op-timeout", 2*time.Second, "bound on non-blocking remote tuple ops in cluster/worker mode (0 = none)")
	chaos := flag.String("chaos", "", "dev-only fault injection on the local store: \"delay=5ms,err=0.01,seed=42\" (delay per op, error probability, deterministic seed)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of new traces to sample, 0..1 (children always follow their parent)")
	slowOp := flag.Duration("slow-op", 0, "log every span at least this long as a slow op (0 disables)")
	logJSON := flag.String("log-json", "", "write JSON-lines structured logs to stderr at this level (debug|info|warn|error)")
	flag.Parse()

	if err := validateWALFlags(*walDir, *fsync, *walBatch); err != nil {
		fmt.Fprintf(os.Stderr, "plinda: %v\n", err)
		os.Exit(2)
	}

	if *logJSON != "" {
		obs.SetDefault(obs.NewLogger(os.Stderr, obs.ParseLevel(*logJSON)))
	}

	if *workerAddr != "" {
		os.Exit(runRemoteWorker(*workerAddr, *opTimeout))
	}

	if *nodes != "" && (*walDir != "" || *addr != "") {
		fmt.Fprintln(os.Stderr, "plinda: -nodes is incompatible with -wal and -addr: durability and serving live on the member servers")
		os.Exit(2)
	}

	var space *tuplespace.Space
	var store tuplespace.TxnStore
	var backend tuplespace.ServerBackend
	if *nodes != "" {
		rt, err := cluster.New(strings.Split(*nodes, ","), cluster.Options{
			Dial: tuplespace.DialOptions{
				DialTimeout: 2 * time.Second,
				OpTimeout:   *opTimeout,
				Lease:       3 * time.Second,
				Name:        fmt.Sprintf("plinda-%d", os.Getpid()),
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "plinda: cluster: %v\n", err)
			os.Exit(1)
		}
		store = rt
		// Member servers that ran (or hosted) an earlier demo still hold
		// its broadcast poison pills; drain the ones visible on the
		// routed task path so they cannot kill this run's workers at
		// birth — the same startup hygiene the WAL branch performs.
		drained := 0
		for {
			_, ok, err := tuplespace.Inp(rt, core.TagTask, []string{core.PoisonKey})
			if err != nil || !ok {
				break
			}
			drained++
		}
		if drained > 0 {
			fmt.Printf("plinda: drained %d stale poison tuples from the cluster\n", drained)
		}
	} else {
		space = tuplespace.NewSpace(tuplespace.Options{Shards: *shards})
		store, backend = space, space
	}
	if *walDir != "" {
		ds, err := durable.Open(*walDir, space, durable.Options{Fsync: *fsync, MaxBatch: *walBatch})
		if err != nil {
			fmt.Fprintf(os.Stderr, "plinda: wal: %v\n", err)
			os.Exit(1)
		}
		if n := ds.Replayed(); n > 0 {
			fmt.Printf("plinda: replayed %d WAL records from %s\n", n, *walDir)
		}
		store = ds
		backend = ds
		// A completed earlier run leaves its broadcast poison pills in
		// the durable space; drain them so they cannot kill this run's
		// workers at birth.
		drained := 0
		for {
			_, ok, err := tuplespace.Inp(ds, core.TagTask, []string{core.PoisonKey})
			if err != nil || !ok {
				break
			}
			drained++
		}
		if drained > 0 {
			fmt.Printf("plinda: drained %d stale poison tuples\n", drained)
		}
	}
	if *chaos != "" {
		copts, err := parseChaosSpec(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plinda: -chaos: %v\n", err)
			os.Exit(2)
		}
		// The wrapper sits between the server and whatever store was
		// selected above (in-process, durable, or routed): every demo
		// tuple op takes the injected delay and error rate, while remote
		// workers served via -addr still hit the raw backend.
		store = faultnet.WrapStore(store, copts)
		fmt.Printf("plinda: chaos store enabled (%s)\n", *chaos)
	}
	srv := plinda.NewServerOnStore(store)
	defer srv.Close()
	defer store.Close() //nolint:errcheck

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	tracer.SetSampleRate(*traceSample)
	if *slowOp > 0 {
		tracer.SetSlowOp(*slowOp, nil)
	}
	srv.Observe(reg, tracer)
	core.SetObserver(reg, tracer)
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plinda: debug server: %v\n", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("plinda: debug endpoints at http://%s/debug/{metrics,trace,pprof}\n", ds.Addr())
	}
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plinda: listen: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		go tuplespace.Serve(ln, backend) //nolint:errcheck — ends when ln closes
		fmt.Printf("plinda: serving tuple space on %s (plinda -worker %s to join)\n", ln.Addr(), ln.Addr())
	}

	if space != nil {
		fmt.Printf("plinda: starting server (%d tuple-space shards) and the motif-discovery demo (%d workers)\n", space.Shards(), *workers)
	} else {
		fmt.Printf("plinda: starting server (tuple space routed across %s) and the motif-discovery demo (%d workers)\n", *nodes, *workers)
	}
	pr := demoProblem()
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := core.RunPLET(srv, pr, *workers)
		if err != nil {
			fmt.Printf("plinda: demo failed: %v\n", err)
			return
		}
		if *addr != "" {
			// Extra poison so remote workers (beyond the local count the
			// master poisoned) terminate too.
			extra := make([]tuplespace.Tuple, 16)
			for i := range extra {
				// lint:ignore tuple-contract consumed by the PLET workers in internal/core
				extra[i] = tuplespace.Tuple{core.TagTask, []string{core.PoisonKey}}
			}
			if err := tuplespace.OutN(store, extra); err != nil {
				fmt.Printf("plinda: remote poison: %v\n", err)
			}
		}
		fmt.Printf("\nplinda: demo finished — %d active motifs:\n", len(pr.ActiveMotifs(res)))
		for _, r := range pr.ActiveMotifs(res) {
			fmt.Printf("  *%s* occurs in %d sequences\n", r.Pattern.Key(), int(r.Goodness))
		}
		fmt.Print("> ")
	}()

	// Wait for the demo processes to register before accepting
	// commands, so scripted input sees a populated process table.
	for i := 0; i < 200 && len(srv.Processes()) == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		cmd := fields[0]
		arg := ""
		if len(fields) > 1 {
			arg = fields[1]
		}
		switch cmd {
		case "ps":
			fmt.Printf("%-18s %-16s %s\n", "PROCESS", "STATUS", "INCARNATION")
			for _, p := range srv.Processes() {
				fmt.Printf("%-18s %-16s %d\n", p.Name, p.Status, p.Incarnation)
			}
		case "kill", "migrate":
			if err := srv.Kill(arg); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s: incarnation destroyed; recovery scheduled\n", arg)
			}
		case "suspend":
			if err := srv.Suspend(arg); err != nil {
				fmt.Println("error:", err)
			}
		case "resume":
			if err := srv.Resume(arg); err != nil {
				fmt.Println("error:", err)
			}
		case "checkpoint":
			if arg == "" {
				fmt.Println("usage: checkpoint <file>")
				break
			}
			f, err := os.Create(arg)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if err := srv.Checkpoint(f); err != nil {
				fmt.Println("error:", err)
			}
			f.Close()
			fmt.Printf("tuple space checkpointed to %s\n", arg)
		case "restore":
			f, err := os.Open(arg)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if err := srv.RestoreCheckpoint(f); err != nil {
				fmt.Println("error:", err)
			}
			f.Close()
			fmt.Println("tuple space rolled back")
		case "stats":
			tuples, err := store.Len()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("commits=%d aborts=%d kills=%d recoveries=%d tuples=%d\n",
				srv.Commits(), srv.Aborts(), srv.Kills(), srv.Respawns(), tuples)
			printSnapshot(reg.Snapshot())
		case "trace":
			n := 20
			if arg != "" {
				fmt.Sscanf(arg, "%d", &n)
			}
			evs := tracer.Events()
			if len(evs) > n {
				evs = evs[len(evs)-n:]
			}
			for _, e := range evs {
				line := fmt.Sprintf("%s %-6s %-10s", e.Time.Format("15:04:05.000"), e.Kind, e.Name)
				if e.Dur > 0 {
					line += fmt.Sprintf(" dur=%s", e.Dur)
				}
				for _, k := range sortedKeys(e.Attrs) {
					line += fmt.Sprintf(" %s=%v", k, e.Attrs[k])
				}
				fmt.Println(line)
			}
			fmt.Printf("(%d of %d recorded events)\n", len(evs), tracer.Total())
		case "quit", "exit":
			return
		default:
			fmt.Println("commands: ps, kill <p>, migrate <p>, suspend <p>, resume <p>, checkpoint <f>, restore <f>, stats, trace [n], quit")
		}
		fmt.Print("> ")
	}
}

// runRemoteWorker joins the demo as a remote workstation: it dials the
// server with a heartbeat lease and runs the PLET worker body under a
// standalone proc. If the process is killed (or the connection drops),
// the server's lease machinery aborts its open transaction so the
// task reappears; if the server restarts, the worker redials. Returns
// a process exit code.
func runRemoteWorker(addr string, opTimeout time.Duration) int {
	pr := demoProblem()
	name := fmt.Sprintf("remote-%d", os.Getpid())
	fmt.Printf("plinda worker %s: joining %s\n", name, addr)
	worker := core.PLETWorker(pr)
	dialOpts := tuplespace.DialOptions{
		DialTimeout: 2 * time.Second,
		OpTimeout:   opTimeout,
		Lease:       3 * time.Second,
		Name:        name,
	}
	dial := func() (tuplespace.TxnStore, error) {
		if addrs := strings.Split(addr, ","); len(addrs) > 1 {
			return cluster.New(addrs, cluster.Options{Dial: dialOpts})
		}
		return tuplespace.DialOpts(addr, dialOpts)
	}
	var lastErr error
	for attempt := 0; attempt <= plinda.MaxRespawns; attempt++ {
		cl, err := dial()
		if err != nil {
			lastErr = err
			time.Sleep(200 * time.Millisecond)
			continue
		}
		err = worker(plinda.Standalone(cl))
		cl.Close()
		if err == nil {
			fmt.Printf("plinda worker %s: done\n", name)
			return 0
		}
		lastErr = err
		fmt.Fprintf(os.Stderr, "plinda worker %s: incarnation failed: %v (retrying)\n", name, err)
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "plinda worker %s: giving up: %v\n", name, lastErr)
	return 1
}

// printSnapshot renders a registry snapshot as sorted name=value lines,
// summarizing histograms by count/mean/max.
func printSnapshot(s obs.Snapshot) {
	for _, k := range sortedKeys(s.Counters) {
		fmt.Printf("  %-24s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Printf("  %-24s %d\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if h.Count == 0 {
			fmt.Printf("  %-24s count=0\n", k)
			continue
		}
		mean := time.Duration(h.SumNanos / h.Count)
		fmt.Printf("  %-24s count=%d mean=%s max=%s\n", k, h.Count, mean, time.Duration(h.MaxNanos))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

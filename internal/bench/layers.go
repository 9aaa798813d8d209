package bench

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"freepdm/internal/obs"
)

// repFacts is what one traced rep hands to layerMetrics besides its
// spans: the run's size and the process's resource use across it.
type repFacts struct {
	wall         time.Duration
	procs        int   // workers + master
	workers      int   // worker procs
	evals        int64 // Goodness calls of the rep
	seqEvaluated int   // SolveSequential's Stats.Evaluated on the same input
	commits      int   // plinda.Server counters
	aborts       int
	respawns     int
	cpu          time.Duration // getrusage user+system across the rep
	allocBytes   uint64
	gcPause      time.Duration
	peakHeap     uint64  // highest sampled live-heap size
	shardShare   float64 // mean over samples of the fullest shard's share of resident tuples
}

// agg accumulates the spans of one (name, tag) key.
type agg struct {
	count int
	total time.Duration
	outs  int
	durs  []time.Duration
}

func (a *agg) add(s Span) {
	a.count++
	a.total += s.dur()
	a.outs += s.Outs
	a.durs = append(a.durs, s.dur())
}

// quantileUS is the q-quantile of the recorded durations in
// microseconds, by nearest rank.
func (a *agg) quantileUS(q float64) float64 {
	if len(a.durs) == 0 {
		return 0
	}
	sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
	i := int(math.Ceil(q*float64(len(a.durs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(a.durs[i]) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives one rep's per-layer numbers from its spans, the
// registries the layers were observed into, and the rep's facts. The
// budget splits the rep's proc-seconds (procs x wall) three ways: mining
// calls, store operations (blocked time included), and the rest, which
// is core + plinda (not separable from outside). budget.txn_s, the time
// inside transactions, tells how much of that rest is the programs' own
// bookkeeping and how much is plinda between a commit and the next begin,
// spawn, and a worker's idle tail after its poison.
func layerMetrics(spans []Span, regs []*obs.Registry, f repFacts) map[string]float64 {
	byKey := map[string]*agg{}
	get := func(k string) *agg {
		a := byKey[k]
		if a == nil {
			a = &agg{}
			byKey[k] = a
		}
		return a
	}
	var txnTotal, storeTotal, miningTotal time.Duration
	errs := 0
	for _, s := range spans {
		switch {
		case s.Name == "txn":
			txnTotal += s.dur()
		case strings.HasPrefix(s.Name, "store."):
			get(s.Name).add(s)
			if s.Tag != "" {
				get(s.Name + "." + s.Tag).add(s)
			}
			storeTotal += s.dur()
			if s.Err {
				errs++
			}
		case strings.HasPrefix(s.Name, "mining."):
			get(s.Name).add(s)
			miningTotal += s.dur()
		}
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	procS := sec(f.wall) * float64(f.procs)

	m := map[string]float64{
		"trace.run_wall_s": sec(f.wall),

		"mining.goodness_calls":     float64(f.evals),
		"mining.goodness_busy_s":    sec(get("mining.goodness").total),
		"mining.children_busy_s":    sec(get("mining.children").total),
		"mining.subpatterns_busy_s": sec(get("mining.subpatterns").total),
		"mining.decode_busy_s":      sec(get("mining.decode").total),
		"mining.busy_share":         ratio(sec(miningTotal), sec(f.wall)*float64(f.workers)),
		"mining.wasted_eval_ratio":  ratio(float64(f.evals), float64(f.seqEvaluated)),

		"plinda.commits":       float64(f.commits),
		"plinda.aborts":        float64(f.aborts),
		"plinda.respawns":      float64(f.respawns),
		"plinda.commits_per_s": ratio(float64(f.commits), sec(f.wall)),
		"core_plinda.self_s":   procS - sec(miningTotal) - sec(storeTotal),
		"budget.proc_s":        procS,
		"budget.txn_s":         sec(txnTotal),
		"budget.mining_s":      sec(miningTotal),
		"budget.store_s":       sec(storeTotal),

		"store.begin.count":         float64(get("store.begin").count),
		"store.begin.busy_s":        sec(get("store.begin").total),
		"store.in.task.count":       float64(get("store.in.task").count),
		"store.in.task.s":           sec(get("store.in.task").total),
		"store.in.task.p50_us":      get("store.in.task").quantileUS(0.50),
		"store.in.task.p99_us":      get("store.in.task").quantileUS(0.99),
		"store.in.ctl.s":            sec(get("store.in.ctl").total),
		"store.in.result.s":         sec(get("store.in.result").total),
		"store.inp.count":           float64(get("store.inp").count),
		"store.inp.s":               sec(get("store.inp").total),
		"store.commit.count":        float64(get("store.commit").count),
		"store.commit.s":            sec(get("store.commit").total),
		"store.commit.outs":         float64(get("store.commit").outs),
		"store.commit.p50_us":       get("store.commit").quantileUS(0.50),
		"store.commit.p99_us":       get("store.commit").quantileUS(0.99),
		"store.out.count":           float64(get("store.out").count),
		"store.out.s":               sec(get("store.out").total),
		"store.errors":              float64(errs),
		"store.busy_share":          ratio(sec(storeTotal), procS),
		"ts.shard_tuples_share_max": f.shardShare,

		"proc.cpu_s_per_run":       sec(f.cpu),
		"proc.cpu_util":            ratio(sec(f.cpu), sec(f.wall)*float64(runtime.GOMAXPROCS(0))),
		"proc.alloc_mb_per_run":    float64(f.allocBytes) / (1 << 20),
		"proc.gc_pause_ms_per_run": float64(f.gcPause) / 1e6,
		"proc.peak_heap_mb":        float64(f.peakHeap) / (1 << 20),
	}

	// Registry counters, summed over the main registry and the nodes'.
	c := map[string]float64{}
	var nodeOps []float64
	for _, reg := range regs {
		for name, v := range reg.Snapshot().Counters {
			c[name] += float64(v)
			if strings.HasPrefix(name, "cluster.node.") {
				switch {
				case strings.HasSuffix(name, ".ops"):
					nodeOps = append(nodeOps, float64(v))
				case strings.HasSuffix(name, ".errors"):
					c["cluster.errors"] += float64(v)
				}
			}
		}
	}
	var opsTotal, opsMax float64
	for _, v := range nodeOps {
		opsTotal += v
		opsMax = math.Max(opsMax, v)
	}
	m["ts.in"] = c["ts.in"]
	m["ts.out"] = c["ts.out"]
	m["ts.inp"] = c["ts.inp"]
	m["ts.blocked_ratio"] = ratio(c["ts.blocked"], c["ts.in"])
	m["ts.tag_shard_collisions"] = float64(len(TagShardCollisions()))
	m["codec.enc_bytes"] = c["codec.enc_bytes"]
	m["codec.dec_bytes"] = c["codec.dec_bytes"]
	m["codec.pool_hit_ratio"] = ratio(c["codec.pool_hits"], c["codec.pool_hits"]+c["codec.pool_misses"])
	m["net.tx_bytes"] = c["net.tx_bytes"]
	m["net.rx_bytes"] = c["net.rx_bytes"]
	m["net.flushes_per_commit"] = ratio(c["net.flushes"], float64(f.commits))
	m["net.bytes_per_task"] = ratio(c["net.tx_bytes"]+c["net.rx_bytes"], float64(f.evals))
	m["wal.appends"] = c["wal.appends"]
	m["wal.writes"] = c["wal.writes"]
	m["wal.records_per_write"] = ratio(c["wal.appends"], c["wal.writes"])
	m["wal.bytes_per_task"] = ratio(c["wal.bytes"], float64(f.evals))
	m["wal.compactions"] = c["wal.compactions"]
	m["cluster.node_op_share_max"] = ratio(opsMax, opsTotal)
	m["cluster.node_ops_total"] = opsTotal
	m["cluster.errors"] = c["cluster.errors"]
	return m
}

// procUsage reads the process's cumulative CPU time, allocation and GC
// pause totals; a rep's use is the difference of two readings.
type procUsage struct {
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
}

func readProcUsage() procUsage {
	var ru syscall.Rusage
	var u procUsage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc, u.gcPause = ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
	return u
}

// sampler polls, every 10 ms while a traced rep runs, what only exists
// as an instantaneous value: the per-shard resident-tuple gauges of every
// observed space, and the live heap.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	shareSum float64
	shareN   int
	peakHeap uint64
}

func startSampler(regs []*obs.Registry) *sampler {
	var gauges []*obs.Gauge
	for _, reg := range regs {
		for name := range reg.Snapshot().Gauges {
			if strings.HasPrefix(name, "ts.shard.") {
				gauges = append(gauges, reg.Gauge(name))
			}
		}
	}
	s := &sampler{stop: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sample := func() {
		var sum, max int64
		for _, g := range gauges {
			v := g.Value()
			sum += v
			if v > max {
				max = v
			}
		}
		if sum > 0 {
			s.shareSum += float64(max) / float64(sum)
			s.shareN++
		}
		metrics.Read(heap)
		if heap[0].Value.Kind() == metrics.KindUint64 && heap[0].Value.Uint64() > s.peakHeap {
			s.peakHeap = heap[0].Value.Uint64()
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				sample() // at least one sample for the shortest rep
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean fullest-shard share and
// the peak live heap.
func (s *sampler) finish() (shardShare float64, peakHeap uint64) {
	close(s.stop)
	s.wg.Wait()
	return ratio(s.shareSum, float64(s.shareN)), s.peakHeap
}

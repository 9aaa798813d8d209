package bench

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"freepdm/internal/cluster"
	"freepdm/internal/core"
	"freepdm/internal/durable"
	"freepdm/internal/obs"
	"freepdm/internal/plinda"
	"freepdm/internal/tuplespace"
)

// backend is one freshly booted tuple-space stack with a PLinda server
// on top. All servers run in this process on loopback. A rep gets its
// own backend because a plinda.Server's process names are used once.
type backend struct {
	srv *plinda.Server
	// regs holds the main registry first, then one per served node, in
	// the traced pass; nil in the untraced pass. Nodes get registries of
	// their own because spaces sharing one would overwrite each other's
	// shard gauges.
	regs    []*obs.Registry
	closers []func() // run in reverse order
}

func (b *backend) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// bootBackend starts the named backend. With a tracer, the store handed
// to plinda is wrapped in a timedStore and every layer is observed into
// fresh registries; without one nothing is attached at all. dir is a
// scratch directory for WAL files.
func bootBackend(kind, dir string, tr *tracer) (b *backend, err error) {
	b = &backend{}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if tr != nil {
		b.regs = []*obs.Registry{obs.NewRegistry()}
	}
	wrap := func(s tuplespace.TxnStore) tuplespace.TxnStore {
		if tr == nil {
			return s
		}
		return newTimedStore(s, tr)
	}

	switch kind {
	case "space":
		b.srv = plinda.NewServerOnStore(wrap(tuplespace.NewSpace(tuplespace.Options{})))
	case "client":
		addr, err := b.serve(tuplespace.NewSpace(tuplespace.Options{}), tr != nil)
		if err != nil {
			return nil, err
		}
		b.srv = plinda.NewServerRemote(func() (tuplespace.TxnStore, error) {
			cl, err := tuplespace.Dial(addr)
			if err != nil {
				return nil, err
			}
			return wrap(cl), nil
		})
	case "durable":
		// The zero Options are the stated flush policy: every record
		// reaches the OS before its operation returns, no fsync.
		ds, err := durable.Open(dir, nil, durable.Options{})
		if err != nil {
			return nil, err
		}
		b.srv = plinda.NewServerOnStore(wrap(ds))
	case "router3":
		addrs := make([]string, 3)
		for i := range addrs {
			ds, err := durable.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), nil, durable.Options{})
			if err != nil {
				return nil, err
			}
			if addrs[i], err = b.serve(ds, tr != nil); err != nil {
				ds.Close() //nolint:errcheck — already failing
				return nil, err
			}
		}
		r, err := cluster.New(addrs, cluster.Options{
			Dial: tuplespace.DialOptions{DialTimeout: time.Second, OpTimeout: 5 * time.Second},
		})
		if err != nil {
			return nil, err
		}
		b.srv = plinda.NewServerOnStore(wrap(r))
	default:
		return nil, fmt.Errorf("bench: unknown backend %q", kind)
	}
	// plinda.Server.Close closes the store it owns (and, in remote mode,
	// every session), so it runs before the served nodes shut down.
	b.closers = append(b.closers, b.srv.Close)
	if tr != nil {
		b.srv.Observe(b.regs[0], nil)
	}
	return b, nil
}

// servedBackend is a node's store: what tuplespace.Serve needs plus the
// Observe both *tuplespace.Space and *durable.Space offer.
type servedBackend interface {
	tuplespace.ServerBackend
	Observe(*obs.Registry, *obs.Tracer)
}

// serve puts a node on a loopback listener and registers its shutdown:
// close the listener, close the store (unblocking its handlers), wait
// for Serve to return.
func (b *backend) serve(be servedBackend, observed bool) (string, error) {
	if observed {
		reg := obs.NewRegistry()
		be.Observe(reg, nil)
		b.regs = append(b.regs, reg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tuplespace.Serve(ln, be) //nolint:errcheck — returns when the listener closes
	}()
	b.closers = append(b.closers, func() {
		ln.Close() //nolint:errcheck
		be.Close() //nolint:errcheck
		<-done
	})
	return ln.Addr().String(), nil
}

// scratchDir makes an empty directory for one backend under base.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "be-")
}

// TagShardCollisions names the pairs of the mining programs' tuple tags
// whose signatures land in the same lock stripe of a default in-process
// space, in this process. tuplespace hashes signatures to shards with a
// seed drawn once per process, so about one process in three has a pair,
// and it runs slower for it. The benchmark does not select on this: it
// records the pairs in the env line and their number as
// ts.tag_shard_collisions, so comparisons can pair on it. The probe reads
// the per-shard gauges Observe registers.
var TagShardCollisions = sync.OnceValue(probeTagShards)

func probeTagShards() []string {
	// One tuple of each signature the programs use, in fields form: they
	// are probes, not part of any tuple contract.
	probes := [][]any{
		{core.TagTask, ""},
		{core.TagResult, "", 0.0},
		{core.TagGood, "", 0.0},
		{core.TagCtl, "", "", []string(nil)},
	}
	s := tuplespace.NewSpace(tuplespace.Options{})
	defer s.Close() //nolint:errcheck
	reg := obs.NewRegistry()
	s.Observe(reg, nil)
	var pairs []string
	tagsIn := map[string][]string{} // shard gauge -> tags already there
	for _, fields := range probes {
		before := reg.Snapshot().Gauges
		if err := tuplespace.Out(s, fields...); err != nil {
			return nil
		}
		for name, v := range reg.Snapshot().Gauges {
			if strings.HasPrefix(name, "ts.shard.") && v > before[name] {
				tag := fields[0].(string)
				for _, other := range tagsIn[name] {
					pairs = append(pairs, other+"+"+tag)
				}
				tagsIn[name] = append(tagsIn[name], tag)
			}
		}
	}
	return pairs
}

package durable

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/faultnet"
	"freepdm/internal/obs"
)

// TestGroupCommitBatchesConcurrentAppends proves the leader/follower
// protocol coalesces: while the first append's leader write is stalled
// (via the slowWrite test hook), two more appends enqueue; when the
// stall lifts, one of them leads and the other follows, so three
// records reach the file in exactly two write syscalls — and the
// second write carries a batch of two.
func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	d, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck

	reg := obs.NewRegistry()
	d.Observe(reg, nil)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var first atomic.Bool
	d.slowWrite = func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.Out(context.Background(), "a", 1); err != nil {
			t.Errorf("Out a: %v", err)
		}
	}()
	<-entered // the first Out is now the stalled leader

	wg.Add(2)
	for _, v := range []int{2, 3} {
		go func(v int) {
			defer wg.Done()
			if err := d.Out(context.Background(), "b", v); err != nil {
				t.Errorf("Out b %d: %v", v, err)
			}
		}(v)
	}
	// Wait until both followers have enqueued behind the stalled
	// leader's record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.gmu.Lock()
		n := len(d.ends)
		d.gmu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never enqueued: %d pending frames", n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := reg.Counter("wal.appends").Value(); got != 3 {
		t.Errorf("wal.appends = %d, want 3", got)
	}
	if got := reg.Counter("wal.writes").Value(); got != 2 {
		t.Errorf("wal.writes = %d, want 2 (three appends must coalesce into two writes)", got)
	}
	if got := reg.Histogram("wal.batch_records").Count(); got != 2 {
		t.Errorf("wal.batch_records count = %d, want 2", got)
	}

	// The coalesced log must still recover all three tuples.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(d.dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //nolint:errcheck
	if d2.Replayed() != 3 {
		t.Errorf("replayed %d records, want 3", d2.Replayed())
	}
	if n, _ := d2.Len(); n != 3 {
		t.Errorf("recovered %d tuples, want 3", n)
	}
}

// TestGroupCommitWriteFailureFailsBatch proves a failed batch write is
// reported to every operation whose record it carried. The first Out's
// leader write is stalled (slowWrite hook) so two followers enqueue
// behind it; the first write succeeds, and the hook then closes the
// WAL file out from under the second — the batch of two. Both batched
// Outs must return the write error, not a false success, and the WAL
// must fail-stop: later operations keep failing.
func TestGroupCommitWriteFailureFailsBatch(t *testing.T) {
	d, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck

	gate := make(chan struct{})
	entered := make(chan struct{})
	var calls atomic.Int32
	d.slowWrite = func() {
		switch calls.Add(1) {
		case 1:
			close(entered)
			<-gate
		case 2:
			// Inject: the batched write that follows must fail.
			d.f.Close() //nolint:errcheck
		}
	}

	first := make(chan error, 1)
	go func() {
		first <- d.Out(context.Background(), "a", 1)
	}()
	<-entered // the first Out is now the stalled leader

	batched := make(chan error, 2)
	for _, v := range []int{2, 3} {
		go func(v int) {
			batched <- d.Out(context.Background(), "b", v)
		}(v)
	}
	// Wait until both followers have enqueued behind the stalled
	// leader's record, so they share the second (failing) batch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.gmu.Lock()
		n := len(d.ends)
		d.gmu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never enqueued: %d pending frames", n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	if err := <-first; err != nil {
		t.Errorf("first Out (written before the injected failure) = %v, want nil", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-batched; err == nil {
			t.Error("batched Out returned nil after its WAL write failed")
		}
	}
	if err := d.Out(context.Background(), "later", 4); err == nil {
		t.Error("Out after a WAL write failure returned nil; the WAL must fail-stop")
	}
}

// TestFsyncMode exercises the fsync durability level end to end:
// records survive a reopen, and the fsync latency histogram sees one
// observation per group commit.
func TestFsyncMode(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d.Observe(reg, nil)
	for i := 0; i < 3; i++ {
		if err := d.Out(context.Background(), "f", i); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Histogram("wal.fsync").Count(); got == 0 {
		t.Error("wal.fsync histogram saw no observations in fsync mode")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, nil, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //nolint:errcheck
	if n, _ := d2.Len(); n != 3 {
		t.Errorf("recovered %d tuples, want 3", n)
	}
	// Each record must still be individually intact under the codec
	// framing: take one back and reopen again.
	if _, ok, err := d2.Inp(context.Background(), "f", 1); err != nil || !ok {
		t.Fatalf("Inp after fsync recovery: ok=%v err=%v", ok, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close() //nolint:errcheck
	if n, _ := d3.Len(); n != 2 {
		t.Errorf("after take+reopen Len = %d, want 2", n)
	}
}

// TestDurableFsyncCoversEveryWrite holds the fsync contract on every
// batch write, not only on a group commit's: in fsync mode the count of
// fsyncs equals the count of WAL writes after compactions and after a
// Close drained a queued record, and a batch that a compaction drains
// passes the before-write fault point like any other.
func TestDurableFsyncCoversEveryWrite(t *testing.T) {
	ctx := context.Background()
	open := func(t *testing.T, dir string) (*Space, *obs.Registry) {
		t.Helper()
		d, err := Open(dir, nil, Options{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		d.Observe(reg, nil)
		return d, reg
	}
	sameCounts := func(t *testing.T, reg *obs.Registry, writes int64) {
		t.Helper()
		w, f := reg.Counter("wal.writes").Value(), reg.Histogram("wal.fsync").Count()
		if w != writes || f != w {
			t.Errorf("wal.writes %d, wal.fsync %d; want %d of each", w, f, writes)
		}
	}

	t.Run("compaction", func(t *testing.T) {
		d, reg := open(t, t.TempDir())
		defer d.Close() //nolint:errcheck
		d.compactEvery = 2
		for i := 0; i < 4; i++ {
			if err := d.Out(ctx, "c", i); err != nil {
				t.Fatal(err)
			}
		}
		if got := reg.Counter("wal.compactions").Value(); got != 2 {
			t.Fatalf("wal.compactions = %d, want 2", got)
		}
		sameCounts(t, reg, 4)
	})

	t.Run("close", func(t *testing.T) {
		d, reg := open(t, t.TempDir())
		gate := make(chan struct{})
		entered := make(chan struct{})
		var first atomic.Bool
		d.slowWrite = func() {
			if first.CompareAndSwap(false, true) {
				close(entered)
				<-gate
			}
		}
		outs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func(i int) { outs <- d.Out(ctx, "q", i) }(i)
			if i == 0 {
				<-entered // the first Out is now the stalled leader
			}
		}
		// Wait until the second record is queued and its Out has let go
		// of the apply lock, then until Close holds it: Close is then
		// draining the queue behind the stalled leader.
		deadline := time.Now().Add(5 * time.Second)
		for {
			d.gmu.Lock()
			n := len(d.ends)
			d.gmu.Unlock()
			if n == 2 && d.mu.TryLock() {
				d.mu.Unlock()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("second record never queued: %d pending frames", n)
			}
			time.Sleep(time.Millisecond)
		}
		closed := make(chan error, 1)
		go func() { closed <- d.Close() }()
		for d.mu.TryLock() {
			d.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		close(gate)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := <-outs; err != nil {
				t.Errorf("Out whose record was written = %v, want nil", err)
			}
		}
		sameCounts(t, reg, 2)
	})

	t.Run("drain-fault", func(t *testing.T) {
		dir := t.TempDir()
		d, _ := open(t, dir)
		d.compactEvery = 2
		if err := d.Out(ctx, "kept", 1); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("injected: disk died before the drained write")
		disarm := faultnet.Arm("durable.wal.before-write", func(args ...any) error {
			if args[0] == dir {
				return boom
			}
			return nil
		})
		defer disarm()
		if err := d.Out(ctx, "doomed", 2); !errors.Is(err, boom) {
			t.Errorf("Out whose record a compaction drained = %v, want the injected error", err)
		}
		disarm()
		d.Close() //nolint:errcheck — the sticky error surfaces here too
		d2, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close() //nolint:errcheck
		if n, _ := d2.Len(); n != 1 {
			t.Errorf("reopened space holds %d tuples, want 1: the failed record must be gone", n)
		}
	})
}

// BenchmarkWALGroupCommit drives concurrent appends through the
// group-commit pipeline: RunParallel makes many goroutines race into
// enqueue, so the leader/follower protocol coalesces their records
// into shared writes. Compare against -cpu=1 (no concurrency, every
// append leads its own write) to see the batching win.
func BenchmarkWALGroupCommit(b *testing.B) {
	d, err := Open(b.TempDir(), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := d.Out(context.Background(), "bench", 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

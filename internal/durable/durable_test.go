package durable

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// tupleSet renders a snapshot as a sorted multiset for comparison.
func tupleSet(tuples []tuplespace.Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = fmt.Sprint([]any(t))
	}
	sort.Strings(out)
	return out
}

func sameTuples(t *testing.T, want, got []tuplespace.Tuple, label string) {
	t.Helper()
	w, g := tupleSet(want), tupleSet(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d tuples, want %d\nwant %v\ngot  %v", label, len(g), len(w), w, g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: tuple %d = %s, want %s", label, i, g[i], w[i])
		}
	}
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Out(context.Background(), "item", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := d.Inp(context.Background(), "item", 3); err != nil || !ok {
		t.Fatalf("Inp: ok=%v err=%v", ok, err)
	}
	want := d.Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Replayed() == 0 {
		t.Fatal("no WAL records replayed")
	}
	sameTuples(t, want, d2.Snapshot(), "after recovery")
	if _, ok, err := d2.Inp(context.Background(), "item", 3); err != nil || ok {
		t.Fatalf("taken tuple resurrected: ok=%v err=%v", ok, err)
	}
	if _, ok, err := d2.Inp(context.Background(), "item", 4); err != nil || !ok {
		t.Fatalf("surviving tuple lost: ok=%v err=%v", ok, err)
	}
}

// TestDurableTruncatedTail tears the last WAL record (a crash mid
// write) and verifies recovery replays the intact prefix, truncates
// the tail, and keeps accepting appends.
func TestDurableTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Out(context.Background(), "rec", i); err != nil {
			t.Fatal(err)
		}
	}
	gen := generation(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	wp := filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
	fi, err := os.Stat(wp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	if d2.Replayed() != 4 {
		t.Fatalf("replayed %d records, want 4 (torn fifth discarded)", d2.Replayed())
	}
	if _, ok, _ := d2.Rdp(context.Background(), "rec", 4); ok {
		t.Fatal("torn record's tuple survived")
	}
	if _, ok, _ := d2.Rdp(context.Background(), "rec", 3); !ok {
		t.Fatal("intact record's tuple lost")
	}
	// The log must keep working from the truncation point.
	if err := d2.Out(context.Background(), "rec", 99); err != nil {
		t.Fatal(err)
	}
	want := d2.Snapshot()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	sameTuples(t, want, d3.Snapshot(), "append after truncation")
}

// TestDurableReplayIdempotence recovers the same directory twice and
// verifies both recoveries produce identical state (replay applies
// each committed op exactly once, regardless of how often it runs).
func TestDurableReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := d.Out(context.Background(), "x", i, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok, err := d.Inp(context.Background(), "x", i, tuplespace.FormalFloat); err != nil || !ok {
			t.Fatalf("Inp %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := d2.Snapshot()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	sameTuples(t, first, d3.Snapshot(), "second recovery")
}

// TestDurableSnapshotPlusWAL forces compactions mid-stream, with a
// transaction holding a tentative take, so recovery must combine a
// generation's snapshot record with the records after it. Each
// compaction leaves one file, the new generation's WAL; recovery equals
// the pre-crash Snapshot() and counts only the records after the
// snapshot.
func TestDurableSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.compactEvery = 4
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // compactions at 4 and 8, then 2 live records
		if err := d.Out(ctx, "n", i); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, ok, err := tx.Inp(ctx, "n", 0); err != nil || !ok {
				t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
			}
		}
		onlyFile(t, dir, generation(d))
	}
	if _, ok, err := d.Inp(ctx, "n", 9); err != nil || !ok { // the third live record
		t.Fatalf("Inp: ok=%v err=%v", ok, err)
	}
	if g := generation(d); g != 2 {
		t.Fatalf("generation %d after 11 records compacting every 4, want 2", g)
	}
	want := d.Snapshot() // the open transaction's take counts as present
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Replayed() != 3 {
		t.Errorf("replayed %d records, want the 3 after the snapshot", d2.Replayed())
	}
	sameTuples(t, want, d2.Snapshot(), "snapshot+WAL recovery")
	onlyFile(t, dir, 2)
}

// TestDurableTxnSemantics proves the recovery invariants of durable
// transactions: commits are logged atomically, aborts restore without
// logging, and tentative takes of an unfinished transaction are NOT
// logged — after a crash the taken task tuples reappear.
func TestDurableTxnSemantics(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Out(context.Background(), "task", i); err != nil {
			t.Fatal(err)
		}
	}

	// Committed transaction: take task 0, publish a result.
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.Inp(context.Background(), "task", 0); err != nil || !ok {
		t.Fatalf("txn Inp: ok=%v err=%v", ok, err)
	}
	if err := tx.Commit(context.Background(), []tuplespace.Tuple{{"result", 0}}); err != nil {
		t.Fatal(err)
	}

	// Aborted transaction: the take must be restored.
	tx2, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx2.Inp(context.Background(), "task", 1); err != nil || !ok {
		t.Fatalf("txn2 Inp: ok=%v err=%v", ok, err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Rdp(context.Background(), "task", 1); !ok {
		t.Fatal("aborted take not restored")
	}

	// Unfinished transaction: tentative take crosses the crash.
	tx3, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx3.Inp(context.Background(), "task", 2); err != nil || !ok {
		t.Fatalf("txn3 Inp: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := d.Rdp(context.Background(), "task", 2); ok {
		t.Fatal("tentative take still visible")
	}
	if err := d.Close(); err != nil { // crash with tx3 open
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok, _ := d2.Rdp(context.Background(), "task", 2); !ok {
		t.Fatal("tentatively taken task tuple did not reappear after crash")
	}
	if _, ok, _ := d2.Rdp(context.Background(), "task", 0); ok {
		t.Fatal("committed take resurrected")
	}
	if _, ok, _ := d2.Rdp(context.Background(), "result", 0); !ok {
		t.Fatal("committed out lost")
	}
	if _, ok, _ := d2.Rdp(context.Background(), "task", 1); !ok {
		t.Fatal("abort-restored tuple lost")
	}
}

func TestDurableObserve(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.compactEvery = 2
	defer d.Close()
	reg := obs.NewRegistry()
	d.Observe(reg, nil)
	for i := 0; i < 5; i++ {
		if err := d.Out(context.Background(), "m", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := d.Inp(context.Background(), "m", tuplespace.FormalInt); err != nil || !ok {
		t.Fatalf("Inp: ok=%v err=%v", ok, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["wal.appends"] == 0 {
		t.Fatal("wal.appends not counted")
	}
	if snap.Counters["wal.bytes"] == 0 {
		t.Fatal("wal.bytes not counted")
	}
	if snap.Counters["wal.compactions"] == 0 {
		t.Fatal("wal.compactions not counted")
	}
}

// TestDurableObserveWhileCommitting attaches a registry while 200 Outs
// commit from four goroutines in fsync mode, so a batch writer is
// between its enqueue and its write when Observe swaps the instruments.
// Under -race it catches an instrument read outside the lock Observe
// writes it under; without the race detector it checks that every
// commit landed and the new registry counted the writes after it.
func TestDurableObserveWhileCommitting(t *testing.T) {
	d, err := Open(t.TempDir(), nil, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	ctx := context.Background()
	const goroutines, outs = 4, 50
	var wg sync.WaitGroup
	started := make(chan struct{}, goroutines*outs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < outs; i++ {
				started <- struct{}{}
				if err := d.Out(ctx, "o", g*outs+i); err != nil {
					t.Errorf("Out: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		<-started
	}
	reg := obs.NewRegistry()
	d.Observe(reg, nil)
	wg.Wait()
	if n, _ := d.Len(); n != goroutines*outs {
		t.Fatalf("Len = %d, want %d", n, goroutines*outs)
	}
	w, f := reg.Counter("wal.writes").Value(), reg.Histogram("wal.fsync").Count()
	if w == 0 || f > w {
		t.Errorf("after Observe: wal.writes %d, wal.fsync %d; want writes > 0 and no more fsyncs than writes", w, f)
	}
}

// dirState maps each file in dir to its contents.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(b)
	}
	return state
}

// onlyFile fails unless dir holds exactly one file, wal-<gen>.log.
func onlyFile(t *testing.T, dir string, gen uint64) {
	t.Helper()
	want := fmt.Sprintf("wal-%d.log", gen)
	st := dirState(t, dir)
	if _, ok := st[want]; !ok || len(st) != 1 {
		names := make([]string, 0, len(st))
		for n := range st {
			names = append(names, n)
		}
		t.Fatalf("files on disk: %v, want only %s", names, want)
	}
}

// TestDurableDamagedSnapshotFailsOpen: a snapshot record that fails its
// checksum or ends early is not a torn tail to truncate. Open fails,
// and the directory is left exactly as it was.
func TestDurableDamagedSnapshotFailsOpen(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { b[8] ^= 0xff; return b },
		"torn":         func(b []byte) []byte { return b[:5] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.compactEvery = 4
			for i := 0; i < 6; i++ {
				if err := d.Out(context.Background(), "n", i); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			wp := filepath.Join(dir, "wal-1.log")
			b, err := os.ReadFile(wp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wp, damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			// A compaction leftover, which a successful Open would remove.
			if err := os.WriteFile(filepath.Join(dir, "wal-2.log.tmp"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirState(t, dir)

			if d2, err := Open(dir, nil, Options{}); err == nil {
				d2.Close()
				t.Fatal("Open accepted a damaged snapshot record")
			} else if !strings.Contains(err.Error(), "snapshot") {
				t.Fatalf("Open: %v, want a damaged-snapshot error", err)
			}
			if after := dirState(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatal("the failed Open changed the directory")
			}
		})
	}
}

// TestDurableLeftoverGobSnapshotFailsOpen: a snap-<g>.gob file belongs
// to a layout whose WAL is incomplete without it, so Open refuses to
// run and names the file.
func TestDurableLeftoverGobSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Out(context.Background(), "n", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0.gob"), []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d2, err := Open(dir, nil, Options{}); err == nil {
		d2.Close()
		t.Fatal("Open ignored a leftover snap-0.gob")
	} else if !strings.Contains(err.Error(), "snap-0.gob") {
		t.Fatalf("Open: %v, want an error naming snap-0.gob", err)
	}
}

// TestDurableCrashBetweenRenameAndDelete: a compaction that crashed
// after its rename and before deleting the old generation leaves both
// WALs. Open recovers the newer one's state, and removes the older one
// and a later compaction's leftover tmp file.
func TestDurableCrashBetweenRenameAndDelete(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Out(ctx, "n", i); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := compact(d); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Inp(ctx, "n", 1); err != nil || !ok {
		t.Fatalf("Inp: ok=%v err=%v", ok, err)
	}
	want := d.Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 0), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 2)+".tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if g := generation(d2); g != 1 {
		t.Fatalf("recovered generation %d, want 1", g)
	}
	sameTuples(t, want, d2.Snapshot(), "recovery of the newer generation")
	onlyFile(t, dir, 1)
}

// TestDurableOutCustomValueRefused: a tuple the wire codec cannot
// encode, or one with a formal, is refused before it is logged or
// applied.
func TestDurableOutCustomValueRefused(t *testing.T) {
	type custom struct{ A int }
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d.Observe(reg, nil)
	ctx := context.Background()
	if err := d.Out(ctx, "c", custom{1}); err == nil || !strings.Contains(err.Error(), "not wire-encodable") {
		t.Fatalf("Out of a custom value: %v, want a not-wire-encodable error", err)
	}
	if err := d.Out(ctx, "c", tuplespace.FormalInt); !errors.Is(err, tuplespace.ErrFormalOut) {
		t.Fatalf("Out of a formal: %v, want ErrFormalOut", err)
	}
	if err := d.OutN(ctx, []tuplespace.Tuple{{"c", 1}, {"c", tuplespace.FormalInt}}); !errors.Is(err, tuplespace.ErrFormalOut) {
		t.Fatalf("OutN with a formal: %v, want ErrFormalOut", err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx, []tuplespace.Tuple{{"c", tuplespace.FormalInt}}); !errors.Is(err, tuplespace.ErrFormalOut) {
		t.Fatalf("Commit of a formal: %v, want ErrFormalOut", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Len(); n != 0 {
		t.Errorf("the refused tuple was applied: Len %d", n)
	}
	if n := reg.Snapshot().Counters["wal.appends"]; n != 0 {
		t.Errorf("the refused tuple was logged: wal.appends %d", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, _ := d2.Len(); d2.Replayed() != 0 || n != 0 {
		t.Errorf("recovery replayed %d records into %d tuples, want none", d2.Replayed(), n)
	}
}

// generation reports the current WAL generation.
func generation(d *Space) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// compact forces a new WAL generation, opened by a snapshot record.
func compact(d *Space) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

package durable

import (
	"context"
	"errors"
	"sync"
	"testing"

	"freepdm/internal/faultnet"
)

// TestWALCrashBeforeWrite scripts a crash in the window before the
// group-commit batch reaches the file: every operation whose record
// rode the batch must see the error, the WAL must fail-stop, and after
// a reopen none of the failed records may exist — an acknowledged
// failure must not resurrect as a ghost tuple.
func TestWALCrashBeforeWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck

	boom := errors.New("injected: disk died before the batch write")
	disarm := faultnet.Arm("durable.wal.before-write", func(args ...any) error {
		if args[0] == dir { // other spaces in the process stay healthy
			return boom
		}
		return nil
	})
	defer disarm()

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- d.Out(context.Background(), "doomed", i)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("Out under before-write fault = %v, want the injected error", err)
		}
	}

	// Fail-stop: the sticky write error outlives the fault point.
	disarm()
	if err := d.Out(context.Background(), "later", 9); err == nil {
		t.Error("Out after an injected WAL failure returned nil; the WAL must fail-stop")
	}

	d.Close() //nolint:errcheck — the sticky error surfaces here too
	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //nolint:errcheck
	if n, _ := d2.Len(); n != 0 {
		t.Errorf("reopened space holds %d tuples; records that failed before the write must be gone", n)
	}
}

// TestWALCrashAfterWrite scripts the other side of the window: the
// batch IS on disk but the acknowledgement is lost. Callers must see
// the error (they will retry, producing a duplicate), and after a
// reopen the records must exist — the lost-ack ambiguity resolves to
// duplicated work, never lost work.
func TestWALCrashAfterWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck

	boom := errors.New("injected: crash after the batch write, before the ack")
	disarm := faultnet.Arm("durable.wal.after-write", func(args ...any) error {
		if args[0] == dir {
			return boom
		}
		return nil
	})
	defer disarm()

	if err := d.Out(context.Background(), "ghost", 1); !errors.Is(err, boom) {
		t.Fatalf("Out under after-write fault = %v, want the injected error", err)
	}
	disarm()

	d.Close() //nolint:errcheck — sticky error again
	d2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //nolint:errcheck
	if n, _ := d2.Len(); n != 1 {
		t.Fatalf("reopened space holds %d tuples, want 1: a record written before the fault must survive", n)
	}
	if _, ok, err := d2.Inp(context.Background(), "ghost", 1); err != nil || !ok {
		t.Errorf("Inp(ghost) after reopen: ok=%v err=%v", ok, err)
	}
}
